"""Head-based sampling as a view of a finished recording: deterministic
per-root decisions, root-span atomicity, the bus's own metrics at any
rate, and the never-silent export record."""

from __future__ import annotations

import json

import pytest

from repro.android.device import pixel_6
from repro.core.study import WideLeakStudy
from repro.license_server.provisioning import KeyboxAuthority
from repro.net.network import Network
from repro.obs.bus import ObservabilityBus
from repro.obs.export import to_chrome_trace, to_jsonl
from repro.obs.sampling import TraceSampler, parse_rate
from repro.ott.registry import ALL_PROFILES

SUBSET = ALL_PROFILES[:3]
# Seed 2 @ 1/2 keeps Netflix and Hulu of the synthetic pipeline's four
# apps — a mixed verdict, which is what the tree-atomicity and export
# tests below want to exercise. (The study-level tests use seed 0,
# which is mixed over SUBSET's real app names.)
MIXED_SAMPLER = TraceSampler(2, seed=2)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 1000
        return self.now


def run_pipeline(bus: ObservabilityBus) -> None:
    """A synthetic four-app study shape; each tree's two children
    carry the attributes their counters derive from."""
    for app in ("Netflix", "Hulu", "Starz", "OCS"):
        with bus.span("study.app", app=app):
            bus.event("boot")
            with bus.span("license.issue") as issue:
                issue.set(status=200)
            with bus.span("playback.track", kind="video") as track:
                track.set(frames=24)


class TestRateParsing:
    @pytest.mark.parametrize("spec,expected", [("1/4", 4), ("1/1", 1), ("16", 16)])
    def test_valid_specs(self, spec, expected):
        assert parse_rate(spec) == expected
        assert TraceSampler.from_rate(spec).denominator == expected

    @pytest.mark.parametrize("spec", ["2/4", "1/0", "0", "fast", "1/x", "-1"])
    def test_invalid_specs(self, spec):
        with pytest.raises(ValueError):
            parse_rate(spec)

    def test_rate_renders_back(self):
        assert TraceSampler(4, seed=7).rate == "1/4"


class TestDecisions:
    def test_pure_function_of_seed_rate_and_identity(self):
        a = TraceSampler(4, seed=3)
        b = TraceSampler(4, seed=3)
        for n in range(200):
            attrs = {"app": f"app-{n}"}
            assert a.keep("study.app", attrs) == b.keep("study.app", attrs)

    def test_denominator_one_keeps_everything(self):
        sampler = TraceSampler(1, seed=9)
        assert all(
            sampler.keep("study.app", {"app": f"a{n}"}) for n in range(50)
        )

    def test_keep_frequency_is_roughly_one_in_n(self):
        sampler = TraceSampler(4)
        kept = sum(
            sampler.keep("study.app", {"app": f"app-{n}"}) for n in range(1000)
        )
        assert 150 < kept < 350  # expected 250; deterministic, just loose

    def test_different_attrs_decide_independently(self):
        sampler = TraceSampler(2, seed=0)
        verdicts = {
            name: sampler.keep("study.app", {"app": name})
            for name in ("Netflix", "Disney+", "Amazon Prime Video")
        }
        assert verdicts == {
            "Netflix": True,
            "Disney+": True,
            "Amazon Prime Video": False,
        }


class TestRootSpanAtomicity:
    def test_trees_are_kept_whole_or_dropped_whole(self):
        bus = ObservabilityBus(clock=FakeClock())
        run_pipeline(bus)
        view = MIXED_SAMPLER.view(bus)
        kept_roots = {
            s.attrs["app"] for s in view.spans if s.parent_id is None
        }
        kept_ids = {s.span_id for s in view.spans}
        # Every kept non-root span hangs off a kept parent: no tree is
        # ever split by sampling.
        assert all(
            s.parent_id in kept_ids
            for s in view.spans
            if s.parent_id is not None
        )
        # Each kept tree is complete (root + its two children), in the
        # bus's open order.
        assert len(view.spans) == 3 * len(kept_roots)
        assert view.spans == [s for s in bus.spans if s in view.spans]
        snapshot = view.sampling_snapshot()
        assert snapshot["sampled_roots"] == len(kept_roots)
        assert snapshot["dropped_roots"] == 4 - len(kept_roots)
        assert snapshot["dropped_spans"] == 3 * (4 - len(kept_roots))
        assert 0 < len(kept_roots) < 4  # the seed gives a mixed verdict

    def test_recorded_span_ids_stay_dense(self):
        """The bus records every tree whatever a view keeps: its ids
        stay dense, and the view neither renumbers nor removes them."""
        bus = ObservabilityBus(clock=FakeClock())
        run_pipeline(bus)
        view = MIXED_SAMPLER.view(bus)
        assert [s.span_id for s in bus.spans] == list(range(1, 13))
        assert {s.span_id for s in view.spans} < {s.span_id for s in bus.spans}
        assert bus.sampling_snapshot()["recorded_spans"] == 12

    def test_a_root_is_keyed_on_its_recorded_attributes(self):
        """A root whose attributes grow while it is open is decided on
        what it recorded, the attributes a trace shows."""
        bus = ObservabilityBus(clock=FakeClock())
        with bus.span("package.title", title="t") as root:
            root.set(segments=30)
        sampler = TraceSampler(2, seed=0)
        assert sampler.keep("package.title", {"title": "t"})
        assert not sampler.keep("package.title", {"title": "t", "segments": 30})
        assert sampler.view(bus).spans == []


class TestExactness:
    def test_counters_and_histograms_match_the_unsampled_run(self):
        full = ObservabilityBus(clock=FakeClock())
        run_pipeline(full)
        view = MIXED_SAMPLER.view(full)
        assert view.metrics.counters() == full.metrics.counters()
        # Histograms cover every recorded span — dropped trees included.
        for name, stat in full.metrics.histograms().items():
            other = view.metrics.histograms()[name]
            assert (other.count, other.total) == (stat.count, stat.total)
            assert other.buckets == stat.buckets

    def test_flow_arrows_survive_inside_dropped_trees(self):
        sampler = TraceSampler(2, seed=0)
        bus = ObservabilityBus(clock=FakeClock())
        device = pixel_6(Network(), KeyboxAuthority(), obs=bus)
        assert not sampler.keep("study.app", {"app": "Amazon Prime Video"})
        with bus.span("study.app", app="Amazon Prime Video"):
            device.flows(("Application", "CDM", "Decrypt()"))
        view = sampler.view(bus)
        assert device.trace.labels() == [("Application", "CDM", "Decrypt()")]
        assert view.metrics.counters()["flow.arrows"] == 1
        assert view.spans == []
        assert view.events == []


class TestExportRecord:
    def test_jsonl_trailing_line_reports_the_drop(self):
        bus = ObservabilityBus(clock=FakeClock())
        run_pipeline(bus)
        view = MIXED_SAMPLER.view(bus)
        lines = to_jsonl(view).strip().split("\n")
        sampling = json.loads(lines[-1])
        assert sampling["type"] == "sampling"
        assert sampling["rate"] == "1/2"
        assert sampling["dropped_spans"] > 0
        assert sampling["recorded_spans"] == len(view.spans)
        assert sum(json.loads(line)["type"] == "span" for line in lines) == len(
            view.spans
        )

    def test_chrome_trace_metadata_reports_the_drop(self):
        bus = ObservabilityBus(clock=FakeClock())
        run_pipeline(bus)
        view = MIXED_SAMPLER.view(bus)
        events = to_chrome_trace(view)["traceEvents"]
        sampling = next(e for e in events if e["name"] == "sampling")
        assert sampling["args"] == view.sampling_snapshot()
        assert sampling["args"]["dropped_spans"] > 0
        assert sum(e["ph"] == "X" for e in events) == len(view.spans)

    def test_clear_resets_the_tally(self):
        bus = ObservabilityBus(clock=FakeClock())
        run_pipeline(bus)
        bus.clear()
        snapshot = MIXED_SAMPLER.view(bus).sampling_snapshot()
        assert snapshot["dropped_spans"] == 0
        assert snapshot["sampled_roots"] == 0
        assert snapshot["recorded_spans"] == 0


class TestStudyByteIdentity:
    """For a fixed seed and rate, the view of a study keeps a
    deterministic subset of its app trees and reads the study's own
    counters."""

    @pytest.fixture(scope="class")
    def study(self):
        study = WideLeakStudy(profiles=SUBSET)
        study.run()
        return study

    def test_counters_are_exact_at_any_rate(self, study):
        counters = study.obs.metrics.counters()
        for denominator in (1, 2, 4, 16):
            view = TraceSampler(denominator, seed=0).view(study.obs)
            assert view.metrics.counters() == counters

    def test_sampling_dropped_some_but_not_all_app_roots(self, study):
        view = TraceSampler(2, seed=0).view(study.obs)
        kept = {s.attrs["app"] for s in view.spans if s.name == "study.app"}
        assert kept == {"Netflix", "Disney+"}
        assert view.sampling_snapshot()["dropped_spans"] > 0

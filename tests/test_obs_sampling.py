"""Head-based sampling: deterministic per-root decisions, root-span
atomicity, exactness of counters/histograms at any rate, study
byte-identity, and the never-silent export record."""

from __future__ import annotations

import json

import pytest

from repro.android.device import pixel_6
from repro.core.study import DeviceSession, WideLeakStudy
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
        bus = ObservabilityBus(clock=FakeClock(), sampler=MIXED_SAMPLER)
        run_pipeline(bus)
        kept_roots = {
            s.attrs["app"] for s in bus.spans if s.parent_id is None
        }
        recorded_ids = {s.span_id for s in bus.spans}
        # Every recorded non-root span hangs off a recorded parent: no
        # tree is ever split by sampling.
        assert all(
            s.parent_id in recorded_ids
            for s in bus.spans
            if s.parent_id is not None
        )
        # Each kept tree is complete (root + its two children).
        assert len(bus.spans) == 3 * len(kept_roots)
        snapshot = bus.sampling_snapshot()
        assert snapshot["sampled_roots"] == len(kept_roots)
        assert snapshot["dropped_roots"] == 4 - len(kept_roots)
        assert snapshot["dropped_spans"] == 3 * (4 - len(kept_roots))
        assert 0 < len(kept_roots) < 4  # the seed gives a mixed verdict

    def test_recorded_span_ids_stay_dense(self):
        bus = ObservabilityBus(clock=FakeClock(), sampler=MIXED_SAMPLER)
        run_pipeline(bus)
        assert [s.span_id for s in bus.spans] == list(
            range(1, len(bus.spans) + 1)
        )


class TestExactness:
    def test_counters_and_histograms_match_the_unsampled_run(self):
        full = ObservabilityBus(clock=FakeClock())
        sampled = ObservabilityBus(clock=FakeClock(), sampler=MIXED_SAMPLER)
        run_pipeline(full)
        run_pipeline(sampled)
        assert sampled.metrics.counters() == full.metrics.counters()
        # Histograms observe every closed span — dropped ones included.
        for name, stat in full.metrics.histograms().items():
            other = sampled.metrics.histograms()[name]
            assert (other.count, other.total) == (stat.count, stat.total)
            assert other.buckets == stat.buckets

    def test_dropped_trees_donate_no_exemplars(self):
        bus = ObservabilityBus(clock=FakeClock(), sampler=MIXED_SAMPLER)
        run_pipeline(bus)
        recorded_ids = {s.span_id for s in bus.spans}
        for stat in bus.metrics.histograms().values():
            for _, span_id in stat.exemplars.values():
                assert span_id in recorded_ids

    def test_flow_arrows_survive_inside_dropped_trees(self):
        sampler = TraceSampler(2, seed=0)
        bus = ObservabilityBus(clock=FakeClock(), sampler=sampler)
        device = pixel_6(Network(), KeyboxAuthority(), obs=bus)
        assert not sampler.keep("study.app", {"app": "Amazon Prime Video"})
        with bus.span("study.app", app="Amazon Prime Video"):
            device.flows(("Application", "CDM", "Decrypt()"))
        assert device.trace.labels() == [("Application", "CDM", "Decrypt()")]
        assert bus.metrics.counters()["flow.arrows"] == 1
        assert bus.spans == []
        assert bus.events == []


class TestExportRecord:
    def test_jsonl_trailing_line_reports_the_drop(self):
        bus = ObservabilityBus(clock=FakeClock(), sampler=MIXED_SAMPLER)
        run_pipeline(bus)
        sampling = json.loads(to_jsonl(bus).strip().split("\n")[-1])
        assert sampling["type"] == "sampling"
        assert sampling["rate"] == "1/2"
        assert sampling["dropped_spans"] > 0
        assert sampling["recorded_spans"] == len(bus.spans)

    def test_chrome_trace_metadata_reports_the_drop(self):
        bus = ObservabilityBus(clock=FakeClock(), sampler=MIXED_SAMPLER)
        run_pipeline(bus)
        events = to_chrome_trace(bus)["traceEvents"]
        sampling = next(e for e in events if e["name"] == "sampling")
        assert sampling["args"]["dropped_spans"] > 0

    def test_clear_resets_the_tally(self):
        bus = ObservabilityBus(clock=FakeClock(), sampler=MIXED_SAMPLER)
        run_pipeline(bus)
        bus.clear()
        snapshot = bus.sampling_snapshot()
        assert snapshot["dropped_spans"] == 0
        assert snapshot["sampled_roots"] == 0
        assert snapshot["recorded_spans"] == 0


class TestStudyByteIdentity:
    """The acceptance bar: for a fixed seed and rate, the sampled run
    keeps a deterministic subset of app trees, and the artifact is
    byte-identical to the unsampled run's."""

    @pytest.fixture(scope="class")
    def runs(self):
        unsampled = WideLeakStudy(profiles=SUBSET).run()
        sequential = WideLeakStudy(
            profiles=SUBSET, sampler=TraceSampler(2, seed=0)
        ).run()
        return unsampled, sequential

    def test_artifact_is_byte_identical_at_any_rate(self, runs):
        unsampled, sequential = runs
        assert sequential.to_json() == unsampled.to_json()

    def test_counters_are_exact_at_any_rate(self, runs):
        unsampled, sequential = runs
        assert sequential.obs.metrics.counters() == unsampled.obs.metrics.counters()

    def test_sampling_dropped_some_but_not_all_app_roots(self, runs):
        _, sequential = runs
        kept = {
            s.attrs["app"]
            for s in sequential.obs.spans
            if s.name == "study.app"
        }
        assert kept == {"Netflix", "Disney+"}
        assert sequential.obs.sampling_snapshot()["dropped_spans"] > 0


class TestWideLeakStudyWiring:
    def test_bus_and_sampler_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            WideLeakStudy(
                profiles=SUBSET,
                obs=ObservabilityBus(),
                sampler=TraceSampler(2),
            )

    def test_worker_sessions_share_the_study_sampler(self):
        study = WideLeakStudy(profiles=SUBSET, sampler=TraceSampler(4, seed=1))
        session = DeviceSession(study)
        assert session.obs.sampler is study.obs.sampler

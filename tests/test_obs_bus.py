"""The observability bus: span nesting, ordering determinism, flow
arrows (recorded by the bus, traced by the device that drew them),
histograms, and the zero-overhead disabled mode."""

from __future__ import annotations

import threading

import pytest

from repro.android.device import AndroidDevice, pixel_6
from repro.android.trace import FlowTrace
from repro.license_server.provisioning import KeyboxAuthority
from repro.net.network import Network
from repro.obs.bus import NULL_BUS, ObservabilityBus
from repro.obs.counters import SPAN_COUNTERS
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import NULL_SPAN, structural_tree


class FakeClock:
    """Deterministic monotonic nanosecond clock for tests."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 1000
        return self.now


@pytest.fixture
def bus() -> ObservabilityBus:
    return ObservabilityBus(clock=FakeClock())


def device_on(bus: ObservabilityBus) -> AndroidDevice:
    """A booted device whose observations go to *bus*."""
    return pixel_6(Network(), KeyboxAuthority(), obs=bus)


class TestSpanNesting:
    def test_children_link_to_the_enclosing_span(self, bus):
        with bus.span("study.app", app="Netflix") as root:
            with bus.span("license.exchange") as child:
                with bus.span("http.request") as grandchild:
                    pass
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id

    def test_current_span_tracks_the_stack(self, bus):
        """A new span's parent is the current span: the top of the stack,
        which a close pops."""
        with bus.span("outer") as outer:
            with bus.span("inner") as inner:
                pass
            with bus.span("after_inner") as after_inner:
                pass
        with bus.span("after_outer") as after_outer:
            pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert after_inner.parent_id == outer.span_id
        assert after_outer.parent_id is None

    def test_siblings_share_a_parent(self, bus):
        with bus.span("root") as root:
            with bus.span("a") as a:
                pass
            with bus.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id
        assert bus.trees() == [("root", (), (("a", (), ()), ("b", (), ())))]

    def test_exception_unwinds_and_still_closes(self, bus):
        with pytest.raises(RuntimeError):
            with bus.span("outer"):
                with bus.span("inner"):
                    raise RuntimeError("boom")
        with bus.span("after") as after:
            pass
        assert after.parent_id is None
        assert all(s.end_ns is not None for s in bus.spans)

    def test_root_span_track_comes_from_app_attr(self, bus):
        with bus.span("study.app", app="Hulu"):
            with bus.span("http.request") as child:
                pass
        assert bus.spans[0].track == "Hulu"
        assert child.track == "Hulu"

    def test_span_events_attach_to_their_span(self, bus):
        with bus.span("playback"):
            bus.event("frame", n=1)
            with bus.span("decode"):
                bus.event("on-inner-span")
            bus.event("on-current-span")
        playback, decode = bus.spans
        assert [p.name for p in playback.points] == [
            "frame",
            "on-current-span",
        ]
        assert [p.name for p in decode.points] == ["on-inner-span"]

    def test_points_list_exists_only_once_a_point_arrives(self, bus):
        with bus.span("quiet"):
            pass
        with bus.span("busy"):
            bus.flows(("app", "cdm", "a"), ("cdm", "app", "b"))
            bus.event("frame")
        quiet, loud = bus.spans
        assert quiet.points == () and quiet.to_dict()["points"] == []
        assert [p.name for p in loud.points] == ["flow", "flow", "frame"]
        assert [p["name"] for p in loud.to_dict()["points"]] == [
            "flow", "flow", "frame"
        ]

    def test_root_event_without_open_span(self, bus):
        bus.event("orphan", reason="no span open")
        assert [e.name for e in bus.events] == ["orphan"]


class TestOrderingDeterminism:
    def _run_pipeline(self, bus):
        with bus.span("study.app", app="Netflix"):
            with bus.span("manifest.fetch"):
                bus.event("dash.select_video", rep="v1080")
            with bus.span("license.issue") as issue:
                issue.set(status=200)

    def test_identical_runs_record_identically(self):
        first = ObservabilityBus(clock=FakeClock())
        second = ObservabilityBus(clock=FakeClock())
        self._run_pipeline(first)
        self._run_pipeline(second)
        assert [s.to_dict() for s in first.spans] == [
            s.to_dict() for s in second.spans
        ]
        assert first.metrics.snapshot() == second.metrics.snapshot()

    def test_structure_is_clock_independent(self):
        wall = ObservabilityBus()  # real perf_counter_ns timestamps
        fake = ObservabilityBus(clock=FakeClock())
        self._run_pipeline(wall)
        self._run_pipeline(fake)
        assert wall.trees() == fake.trees()
        assert wall.span_names() == fake.span_names()

    def test_span_ids_are_dense_and_start_ordered(self, bus):
        self._run_pipeline(bus)
        assert [s.span_id for s in bus.spans] == [1, 2, 3]
        starts = [s.start_ns for s in bus.spans]
        assert starts == sorted(starts)


class TestFlowArrows:
    def test_device_flows_reach_its_trace_and_its_bus(self, bus):
        device = device_on(bus)
        device.flows(("Application", "CDM", "Decrypt()"))
        assert device.trace.labels() == [("Application", "CDM", "Decrypt()")]
        assert bus.metrics.counters()["flow.arrows"] == 1
        assert [p.attrs["label"] for p in bus.events] == ["Decrypt()"]

    def test_flows_draw_in_order_and_count_each_arrow(self, bus):
        device = device_on(bus)
        arrows = [
            ("Application", "Media Crypto", "queueSecureInputBuffer()"),
            ("Media Crypto", "CDM", "Decrypt()"),
        ]
        with bus.span("playback.track") as track:
            device.flows(*arrows)
            device.flows(("CDN", "Application", "Media"))
        seen = device.trace.labels()
        assert seen == arrows + [("CDN", "Application", "Media")]
        assert bus.metrics.counters()["flow.arrows"] == 3
        recorded = [
            (p.attrs["source"], p.attrs["target"], p.attrs["label"])
            for p in track.points
        ]
        assert recorded == seen
        assert [p.name for p in track.points] == ["flow"] * 3

    def test_flows_take_the_bus_lock_once(self, bus):
        # The registry shares the bus's lock; counting the arrows must
        # not take it a second time.
        entries = []

        class CountingLock:
            def __init__(self, lock):
                self._lock = lock

            def __enter__(self):
                entries.append(1)
                return self._lock.__enter__()

            def __exit__(self, *exc):
                return self._lock.__exit__(*exc)

        with bus.span("playback.track") as track:
            bus._lock = bus.metrics._lock = CountingLock(bus._lock)
            bus.flows(("Application", "CDM", "a"), ("CDM", "Application", "b"))
            assert len(entries) == 1
        assert bus.metrics.counters()["flow.arrows"] == 2
        assert [p.attrs["label"] for p in track.points] == ["a", "b"]

    def test_disabled_bus_still_fills_the_device_trace(self):
        """Figure 1 regeneration works with observation off: the device
        traces its arrows, the bus records nothing."""
        disabled = ObservabilityBus(enabled=False)
        device = device_on(disabled)
        device.flows(("Application", "CDM", "Decrypt()"))
        assert device.trace.labels() == [("Application", "CDM", "Decrypt()")]
        assert disabled.events == []
        assert disabled.metrics.counters() == {}


class TestDisabledBusIsFree:
    def test_span_returns_the_shared_null_span(self):
        disabled = ObservabilityBus(enabled=False)
        assert disabled.span("anything", app="x") is NULL_SPAN
        assert NULL_BUS.span("anything") is NULL_SPAN

    def test_null_span_handle_is_inert(self):
        with NULL_BUS.span("x") as span:
            assert span.set(a=1) is span
            NULL_BUS.event("e", b=2)
        assert NULL_BUS.spans == []
        assert NULL_BUS.events == []

    def test_nothing_is_recorded(self):
        disabled = ObservabilityBus(enabled=False)
        with disabled.span("license.issue") as issue:
            issue.set(status=200)
            disabled.event("oecc.dump")
            disabled.flows(("a", "b", "c"))
        assert disabled.spans == []
        assert disabled.events == []
        assert disabled.metrics.snapshot() == {
            "counters": {},
            "histograms": {},
        }


class TestLifecycle:
    def test_clear_drops_bus_data_but_not_device_traces(self, bus):
        device = device_on(bus)
        with bus.span("s"):
            device.flows(("a", "b", "c"))
        bus.clear()
        assert bus.spans == []
        assert bus.events == []
        assert bus.metrics.counters() == {}
        device.flows(("d", "e", "f"))
        assert device.trace.labels() == [("a", "b", "c"), ("d", "e", "f")]
        assert bus.metrics.counters() == {"flow.arrows": 1}


class TestMetricsShorthands:
    def test_count_many_adds_like_repeated_counts(self, bus):
        # The registry's one counter entry point (the fleet replays a
        # cell's persisted counters through it).
        bus.metrics.count_many({"http.requests": 1})
        bus.metrics.count_many({"http.requests": 1, "http.bytes_out": 512})
        bus.metrics.count_many({})
        assert bus.metrics.counters() == {"http.bytes_out": 512, "http.requests": 2}

    def test_counted_records_on_a_disabled_bus_count_nothing(self):
        disabled = ObservabilityBus(enabled=False)
        with disabled.span("http.request", bytes_out=1) as request:
            request.set(status=200, bytes_in=2)
        disabled.event("oecc.dump")
        disabled.flows(("a", "b", "c"))
        assert disabled.metrics.counters() == {}

    def test_histograms_read_inside_an_open_tree_include_closed_spans(self, bus):
        with bus.span("study.app", app="Hulu"):
            for _ in range(3):
                with bus.span("http.request"):
                    pass
            stat = bus.metrics.histograms()["span.http.request"]
            assert stat.count == 3
            assert "span.study.app" not in bus.metrics.histograms()
        assert bus.metrics.histograms()["span.study.app"].count == 1
        assert stat.count == 3

    def test_dropped_trees_still_fill_histograms(self):
        from repro.obs.sampling import TraceSampler

        sampled = ObservabilityBus(clock=FakeClock(), sampler=TraceSampler(10**6))
        for app in ("Hulu", "Netflix", "Showtime"):
            with sampled.span("study.app", app=app):
                with sampled.span("http.request"):
                    pass
        stat = sampled.metrics.histograms()["span.http.request"]
        dropped = sampled.sampling_snapshot()["dropped_roots"]
        assert stat.count == 3
        assert len(stat.exemplars) <= 3 - dropped


class TestDerivedCounters:
    """Counters come from the table in repro.obs.counters, applied to
    the spans and points the bus records; the bus has no counting
    method of its own."""

    def test_the_bus_emits_through_spans_events_and_flows_only(self):
        for gone in ("count", "count_many", "observe"):
            assert not hasattr(ObservabilityBus, gone)
        for gone in ("count", "count_locked", "observe"):
            assert not hasattr(MetricsRegistry, gone)

    def test_a_span_counts_when_it_closes(self, bus):
        with bus.span("study.app", app="Hulu"):
            with bus.span("license.issue") as issue:
                issue.set(status=200)
                assert bus.metrics.counters() == {}
            assert bus.metrics.counters() == {"license.issued": 1}
            with bus.span("license.issue") as issue:
                issue.set(status=403)
        assert bus.metrics.counters() == {"license.denied": 1, "license.issued": 1}

    def test_a_span_unwound_before_its_fact_counts_nothing(self, bus):
        with pytest.raises(RuntimeError):
            with bus.span("cdm.load_keys", origin="o"):
                raise RuntimeError("bad license")
        with pytest.raises(RuntimeError):
            with bus.span("package.title", title="t"):
                raise RuntimeError("no crypto decision")
        assert bus.metrics.counters() == {}
        with bus.span("cdm.load_keys", origin="o") as load:
            load.set(keys=2)
        assert bus.metrics.counters() == {"cdm.licenses_loaded": 1}

    def test_points_count_where_they_are_recorded(self, bus):
        bus.event("oecc.dump", function="_oecc10_load_keys")
        with bus.span("study.app", app="Hulu"):
            bus.event("oecc.dump", function="_oecc10_load_keys")
            bus.event("frame")
            bus.flows(("a", "b", "c"), ("b", "a", "d"))
            assert bus.metrics.counters() == {"flow.arrows": 2, "oecc.dumps": 2}
        assert bus.metrics.counters() == {"flow.arrows": 2, "oecc.dumps": 2}

    def test_a_span_without_its_attributes_never_breaks_the_fold(self, bus):
        for name in SPAN_COUNTERS:
            with bus.span(name):
                pass
        assert bus.metrics.counters() == {"http.bytes_out": 0, "http.requests": 1}

    def test_clear_drops_pending_point_counts(self, bus):
        bus.event("oecc.dump")
        bus.clear()
        assert bus.metrics.counters() == {}


class TestHistogramPercentiles:
    def test_percentiles_are_ordered_and_bounded(self):
        from repro.obs.metrics import HistogramStat

        stat = HistogramStat()
        for value in (1, 2, 3, 5, 8, 13, 100, 1000):
            stat.observe(value)
        p50, p95, p99 = (
            stat.percentile(50),
            stat.percentile(95),
            stat.percentile(99),
        )
        assert stat.minimum <= p50 <= p95 <= p99 <= stat.maximum
        assert p50 < 100  # half the stream sits at or below 5

    def test_exemplar_tracks_the_bucket_maximum(self):
        from repro.obs.metrics import HistogramStat

        stat = HistogramStat()
        stat.observe(1000, exemplar=4)
        stat.observe(1500, exemplar=9)  # same bucket (1024, 2048]... no:
        # 1000 -> bucket (512, 1024], 1500 -> (1024, 2048]; the overall
        # max exemplar is the highest bucket's.
        assert stat.max_exemplar() == (1500, 9)
        stat.observe(1600, exemplar=2)
        assert stat.max_exemplar() == (1600, 2)

    def test_fixed_bucket_boundaries(self):
        from repro.obs.metrics import bucket_bounds, bucket_index

        assert bucket_index(0.5) == 0
        assert bucket_index(1) == 0
        assert bucket_index(2) == 1
        assert bucket_index(3) == 2
        assert bucket_index(1024) == 10
        assert bucket_index(1025) == 11
        assert bucket_bounds(10) == (512.0, 1024.0)


class TestFlowTraceLocking:
    def test_concurrent_records_are_all_kept(self):
        trace = FlowTrace()
        barrier = threading.Barrier(8)

        def hammer(worker: int) -> None:
            barrier.wait()
            for i in range(100):
                trace.record((f"w{worker}", "sink", f"msg{i}"))

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(trace.labels()) == 800
        trace.clear()
        assert trace.labels() == []

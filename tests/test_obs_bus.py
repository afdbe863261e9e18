"""The observability bus: span nesting, ordering determinism, flow
fan-out, histograms, and the zero-overhead disabled mode."""

from __future__ import annotations

import threading

import pytest

from repro.android.trace import FlowTrace
from repro.obs.bus import NULL_BUS, ObservabilityBus
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
        assert bus.current_span() is None
        with bus.span("outer") as outer:
            assert bus.current_span() is outer
            with bus.span("inner") as inner:
                assert bus.current_span() is inner
            assert bus.current_span() is outer
        assert bus.current_span() is None

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
        assert bus.current_span() is None
        assert all(s.end_ns is not None for s in bus.spans)

    def test_root_span_track_comes_from_app_attr(self, bus):
        with bus.span("study.app", app="Hulu"):
            with bus.span("http.request") as child:
                pass
        assert bus.spans[0].track == "Hulu"
        assert child.track == "Hulu"

    def test_span_events_attach_to_their_span(self, bus):
        with bus.span("playback") as span:
            span.event("frame", n=1)
            bus.event("on-current-span")
        assert [p.name for p in bus.spans[0].points] == [
            "frame",
            "on-current-span",
        ]

    def test_points_list_exists_only_once_a_point_arrives(self, bus):
        with bus.span("quiet"):
            pass
        with bus.span("busy") as busy:
            bus.flows(("app", "cdm", "a"), ("cdm", "app", "b"))
            busy.event("frame")
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
            with bus.span("manifest.fetch") as m:
                m.event("dash.select_video", rep="v1080")
            with bus.span("license.exchange"):
                bus.count("license.issued")
            bus.observe("frames", 24)

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
    def test_flow_fans_out_to_consumers(self, bus):
        seen: list[tuple[str, str, str]] = []
        bus.add_flow_consumer(lambda s, t, label: seen.append((s, t, label)))
        bus.flow("Application", "CDM", "Decrypt()")
        assert seen == [("Application", "CDM", "Decrypt()")]
        assert bus.metrics.counters()["flow.arrows"] == 1

    def test_flows_draw_in_order_and_count_each_arrow(self, bus):
        seen: list[tuple[str, str, str]] = []
        bus.add_flow_consumer(lambda s, t, label: seen.append((s, t, label)))
        arrows = [
            ("Application", "Media Crypto", "queueSecureInputBuffer()"),
            ("Media Crypto", "CDM", "Decrypt()"),
        ]
        with bus.span("playback.track") as track:
            bus.flows(*arrows)
            bus.flow("CDN", "Application", "Media")
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

    def test_disabled_bus_still_delivers_flows(self):
        """The pre-bus FlowTrace contract: Figure 1 regeneration works
        with observation off."""
        disabled = ObservabilityBus(enabled=False)
        trace = FlowTrace()
        disabled.add_flow_consumer(trace.record)
        disabled.flow("Application", "CDM", "Decrypt()")
        assert trace.labels() == [("Application", "CDM", "Decrypt()")]
        assert disabled.events == []
        assert disabled.metrics.counters() == {}


class TestDisabledBusIsFree:
    def test_span_returns_the_shared_null_span(self):
        disabled = ObservabilityBus(enabled=False)
        assert disabled.span("anything", app="x") is NULL_SPAN
        assert NULL_BUS.span("anything") is NULL_SPAN

    def test_null_span_handle_is_inert(self):
        with NULL_BUS.span("x") as span:
            span.set(a=1).event("e", b=2)
        assert NULL_BUS.spans == []

    def test_nothing_is_recorded(self):
        disabled = ObservabilityBus(enabled=False)
        with disabled.span("s"):
            disabled.event("e")
            disabled.count("c")
            disabled.observe("h", 1.0)
        assert disabled.spans == []
        assert disabled.events == []
        assert disabled.metrics.snapshot() == {
            "counters": {},
            "histograms": {},
        }


class TestLifecycle:
    def test_clear_drops_data_but_keeps_consumers(self, bus):
        seen: list[tuple[str, str, str]] = []
        bus.add_flow_consumer(lambda s, t, label: seen.append((s, t, label)))
        with bus.span("s"):
            bus.flow("a", "b", "c")
        bus.clear()
        assert bus.spans == []
        assert bus.events == []
        bus.flow("d", "e", "f")
        assert seen == [("a", "b", "c"), ("d", "e", "f")]


class TestMetricsShorthands:
    def test_count_many_adds_like_repeated_counts(self, bus):
        bus.count("http.requests")
        bus.count_many({"http.requests": 1, "http.bytes_out": 512})
        bus.count_many({})
        assert bus.metrics.counters() == {"http.bytes_out": 512, "http.requests": 2}

    def test_count_many_on_a_disabled_bus_records_nothing(self):
        disabled = ObservabilityBus(enabled=False)
        disabled.count_many({"http.requests": 1})
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
                trace.record(f"w{worker}", "sink", f"msg{i}")

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

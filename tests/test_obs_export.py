"""Exporters: JSON-lines archive, Chrome ``trace_event`` JSON and the
aggregate metrics table."""

from __future__ import annotations

import json

import pytest

from repro.obs.bus import ObservabilityBus
from repro.obs.export import (
    render_metrics_table,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 1_000_000  # 1ms per tick
        return self.now


@pytest.fixture
def recorded_bus() -> ObservabilityBus:
    bus = ObservabilityBus(clock=FakeClock())
    with bus.span("study.app", app="Netflix"):
        bus.event("oecc.dump", function="DecryptCENC", size=16)
        with bus.span(
            "http.request", host="cdn.netflix.example", bytes_out=0
        ) as req:
            req.set(status=200, bytes_in=16, digest=b"\x01\x02")
    with bus.span("study.app", app="Hulu"):
        pass
    bus.event("orphan")
    return bus


class TestJsonl:
    def test_every_line_is_json_and_typed(self, recorded_bus):
        lines = to_jsonl(recorded_bus).strip().split("\n")
        objs = [json.loads(line) for line in lines]
        assert [o["type"] for o in objs] == [
            "span",
            "span",
            "span",
            "event",
            "metrics",
            "sampling",
        ]

    def test_metrics_line_carries_the_snapshot(self, recorded_bus):
        metrics = json.loads(to_jsonl(recorded_bus).strip().split("\n")[-2])
        assert metrics["counters"]["http.requests"] == 1
        assert "span.http.request" in metrics["histograms"]
        stat = metrics["histograms"]["span.http.request"]
        # Fixed-bucket percentiles and the exemplar ride along.
        assert stat["p50"] <= stat["p95"] <= stat["p99"] <= stat["max"]
        assert stat["exemplar_span_id"] == 2

    def test_sampling_line_records_no_truncation(self, recorded_bus):
        sampling = json.loads(to_jsonl(recorded_bus).strip().split("\n")[-1])
        assert sampling["rate"] == "1/1"
        assert sampling["dropped_spans"] == 0
        assert sampling["recorded_spans"] == 3


class TestChromeTrace:
    def test_document_shape(self, recorded_bus):
        doc = to_chrome_trace(recorded_bus)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        # Round-trips through the JSON codec (chrome://tracing loads it).
        assert json.loads(json.dumps(doc)) == doc

    def test_metadata_names_process_and_tracks(self, recorded_bus):
        events = to_chrome_trace(recorded_bus)["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["name"] == "process_name"
        assert meta[0]["args"]["name"] == "wideleak-study"
        thread_names = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert thread_names == {"Netflix", "Hulu"}

    def test_complete_events_carry_timing_in_microseconds(self, recorded_bus):
        events = to_chrome_trace(recorded_bus)["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in complete] == [
            "study.app",
            "http.request",
            "study.app",
        ]
        for e in complete:
            assert {"cat", "pid", "tid", "ts", "dur", "args"} <= set(e)
            assert e["dur"] > 0
        # FakeClock ticks 1ms apart; ts is in microseconds.
        assert complete[0]["ts"] == 1000.0

    def test_spans_of_one_tree_share_a_tid(self, recorded_bus):
        events = to_chrome_trace(recorded_bus)["traceEvents"]
        by_name = {e["name"]: e for e in events if e["ph"] == "X"}
        netflix_root = next(
            e
            for e in events
            if e["ph"] == "X" and e["args"].get("app") == "Netflix"
        )
        assert by_name["http.request"]["tid"] == netflix_root["tid"]

    def test_points_become_instant_events(self, recorded_bus):
        events = to_chrome_trace(recorded_bus)["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["oecc.dump"]
        assert instants[0]["s"] == "t"

    def test_bytes_attrs_are_hexed_not_dropped(self, recorded_bus):
        doc = to_chrome_trace(recorded_bus)
        request = next(
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "http.request"
        )
        assert request["args"]["digest"] == "0102"

    def test_write_chrome_trace_produces_a_loadable_file(
        self, recorded_bus, tmp_path
    ):
        path = write_chrome_trace(recorded_bus, tmp_path / "trace.json")
        loaded = json.loads(path.read_text())
        assert loaded == to_chrome_trace(recorded_bus)


class TestMetricsTable:
    def test_lists_counters_and_histograms(self, recorded_bus):
        table = render_metrics_table(recorded_bus)
        assert "http.requests" in table
        assert "span.http.request" in table
        assert "ms" in table  # span durations rendered in milliseconds

    def test_percentile_columns_and_exemplars(self, recorded_bus):
        table = render_metrics_table(recorded_bus)
        for column in ("p50", "p95", "p99", "exemplar"):
            assert column in table
        # The http.request span (id 2) is the stream's only — and
        # therefore worst — observation; its id links into the trace.
        assert "span:2" in table

    def test_empty_bus_renders_placeholder(self):
        assert render_metrics_table(ObservabilityBus()) == "(no metrics recorded)"

    def test_chrome_trace_carries_the_sampling_record(self, recorded_bus):
        events = to_chrome_trace(recorded_bus)["traceEvents"]
        sampling = next(
            e for e in events if e["ph"] == "M" and e["name"] == "sampling"
        )
        assert sampling["args"]["dropped_spans"] == 0
        assert sampling["args"]["rate"] == "1/1"

"""Trace analytics: critical-path extraction, self-time aggregation,
and collapsed-stack flame graphs."""

from __future__ import annotations

import re

import pytest

from repro.obs.bus import ObservabilityBus
from repro.obs.profile import (
    critical_path,
    critical_paths,
    render_profile,
    self_time_profile,
    to_collapsed_stacks,
    write_flame_graph,
)


class SteppedClock:
    """A clock the test advances explicitly, for exact durations."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


@pytest.fixture
def clock() -> SteppedClock:
    return SteppedClock()


@pytest.fixture
def recorded(clock) -> ObservabilityBus:
    """One app tree with a known critical path:

    study.app (100) -> audit.content (60) -> http.request (45);
    license.exchange (30, with a 10ns http.request child) is the
    shorter branch.
    """
    bus = ObservabilityBus(clock=clock)
    with bus.span("study.app", app="Netflix"):
        with bus.span("license.exchange"):
            with bus.span("http.request"):
                clock.advance(10)
            clock.advance(20)
        with bus.span("audit.content"):
            with bus.span("http.request"):
                clock.advance(45)
            clock.advance(15)
        clock.advance(10)
    return bus


class TestCriticalPath:
    def test_follows_the_longest_child_chain(self, recorded):
        root = recorded.spans[0]
        path = critical_path(recorded.spans, root)
        assert [s.name for s in path] == [
            "study.app",
            "audit.content",
            "http.request",
        ]
        assert path[1].duration_ns == 60
        assert path[2].duration_ns == 45

    def test_one_path_per_study_root(self, clock):
        bus = ObservabilityBus(clock=clock)
        for app in ("Netflix", "Hulu"):
            with bus.span("study.app", app=app):
                with bus.span("license.exchange"):
                    clock.advance(5)
        paths = critical_paths(bus.spans)
        assert [p[0].attrs["app"] for p in paths] == ["Netflix", "Hulu"]
        assert all(p[-1].name == "license.exchange" for p in paths)

    def test_non_study_roots_are_used_when_no_study_roots_exist(self, clock):
        bus = ObservabilityBus(clock=clock)
        with bus.span("package.title", service="netflix"):
            clock.advance(5)
        assert [p[0].name for p in critical_paths(bus.spans)] == [
            "package.title"
        ]

    def test_duration_tie_breaks_on_earlier_start(self, clock):
        bus = ObservabilityBus(clock=clock)
        with bus.span("root"):
            with bus.span("first"):
                clock.advance(10)
            with bus.span("second"):
                clock.advance(10)
        path = critical_path(bus.spans, bus.spans[0])
        assert [s.name for s in path] == ["root", "first"]


class TestSelfTime:
    def test_self_is_duration_minus_children(self, recorded):
        stats = self_time_profile(recorded.spans)
        assert stats["study.app"].total_ns == 100
        assert stats["study.app"].self_ns == 10  # 100 - (30 + 60)
        assert stats["audit.content"].self_ns == 15
        assert stats["license.exchange"].self_ns == 20
        # Two http.request spans aggregate under one name.
        assert stats["http.request"].count == 2
        assert stats["http.request"].total_ns == 55
        assert stats["http.request"].self_ns == 55

    def test_self_times_sum_to_the_wall_clock(self, recorded):
        stats = self_time_profile(recorded.spans)
        assert sum(s.self_ns for s in stats.values()) == 100

    def test_render_profile_has_paths_and_table(self, recorded):
        text = render_profile(recorded, top=3)
        assert "critical path — Netflix" in text
        assert "audit.content" in text
        assert "self%" in text
        assert "(1 more span names below the top 3)" in text

    def test_render_profile_empty_bus(self):
        assert render_profile(ObservabilityBus()) == "(no spans recorded)"


class TestCollapsedStacks:
    def test_format_is_flamegraph_compatible(self, recorded):
        text = to_collapsed_stacks(recorded)
        lines = text.strip().split("\n")
        # Brendan Gregg collapsed format: frames joined by ';', one
        # integer weight, no other whitespace. speedscope imports this.
        assert all(re.fullmatch(r"[^ ]+ \d+", line) for line in lines)
        weights = {
            line.rsplit(" ", 1)[0]: int(line.rsplit(" ", 1)[1])
            for line in lines
        }
        assert weights["study.app"] == 10
        assert weights["study.app;audit.content"] == 15
        assert weights["study.app;audit.content;http.request"] == 45
        assert weights["study.app;license.exchange;http.request"] == 10

    def test_total_weight_equals_wall_time(self, recorded):
        lines = to_collapsed_stacks(recorded).strip().split("\n")
        assert sum(int(line.rsplit(" ", 1)[1]) for line in lines) == 100

    def test_write_flame_graph(self, recorded, tmp_path):
        path = write_flame_graph(recorded, tmp_path / "flame.txt")
        assert path.read_text() == to_collapsed_stacks(recorded)

"""Trace analytics over recorded observability buses.

The paper's methodology is trace analysis — WideLeak's findings come
from reading hooked ``_oecc*`` call sequences and timing the
CDM/license/CDN pipeline. This module applies the same discipline to
the reproduction's *own* traces: where does a study spend its time,
and which app's license path regressed?

Four tools, all pure functions of a span list:

- :func:`critical_path` — per app root span, the chain of child spans
  that bounds wall time (at every level, the longest child);
- :func:`self_time_profile` — total-time / self-time aggregation by
  span name (self = duration minus children), rendered as a top-N
  table by :func:`render_profile`;
- :func:`to_collapsed_stacks` — the Brendan Gregg collapsed-stack
  format (``root;child;leaf weight``, weight = self time in ns), which
  ``flamegraph.pl`` and `speedscope <https://speedscope.app>`_ load
  directly;
- :func:`diff_traces` — per-span-name count/duration deltas between
  two recorded traces (JSONL or Chrome ``trace_event`` files, or the
  ``BENCH_study.json`` trajectory), with a regression threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.bus import ObservabilityBus
from repro.obs.span import Span

__all__ = [
    "critical_path",
    "critical_paths",
    "self_time_profile",
    "SelfTimeStat",
    "render_profile",
    "to_collapsed_stacks",
    "write_flame_graph",
    "SpanAggregate",
    "load_trace_profile",
    "DiffRow",
    "TraceDiff",
    "diff_traces",
]

# Roots the study orchestrator opens; profile output leads with these.
_STUDY_ROOT_PREFIX = "study."


def _children_by_parent(spans: list[Span]) -> dict[int | None, list[Span]]:
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    return children


def critical_path(spans: list[Span], root: Span) -> list[Span]:
    """The chain of spans bounding *root*'s wall time: from the root,
    repeatedly descend into the longest child (ties: earliest start,
    then lowest id — deterministic for the fake-clock test buses)."""
    children = _children_by_parent(spans)
    path = [root]
    current = root
    while True:
        kids = children.get(current.span_id, [])
        if not kids:
            return path
        current = max(
            kids, key=lambda s: (s.duration_ns, -s.start_ns, -s.span_id)
        )
        path.append(current)


def critical_paths(spans: list[Span]) -> list[list[Span]]:
    """One critical path per root span, study roots (``study.*``)
    first, otherwise in recording order."""
    roots = [s for s in spans if s.parent_id is None]
    study_roots = [r for r in roots if r.name.startswith(_STUDY_ROOT_PREFIX)]
    chosen = study_roots if study_roots else roots
    return [critical_path(spans, root) for root in chosen]


@dataclass
class SelfTimeStat:
    """Per-span-name aggregate of a recorded trace."""

    name: str
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0


def self_time_profile(spans: list[Span]) -> dict[str, SelfTimeStat]:
    """Aggregate count / total time / self time by span name.

    Self time is a span's duration minus its children's durations,
    clamped at zero (clock skew between open and close can otherwise
    produce negative slivers)."""
    children = _children_by_parent(spans)
    stats: dict[str, SelfTimeStat] = {}
    for span in spans:
        child_ns = sum(c.duration_ns for c in children.get(span.span_id, []))
        stat = stats.get(span.name)
        if stat is None:
            stat = stats[span.name] = SelfTimeStat(name=span.name)
        stat.count += 1
        stat.total_ns += span.duration_ns
        stat.self_ns += max(span.duration_ns - child_ns, 0)
    return stats


def _ms(ns: float) -> str:
    return f"{ns / 1e6:.3f}ms"


def render_profile(bus: ObservabilityBus, *, top: int = 15) -> str:
    """Critical paths plus the top-N self-time table, as plain text."""
    spans = bus.spans
    if not spans:
        return "(no spans recorded)"
    lines: list[str] = []
    for path in critical_paths(spans):
        root = path[0]
        app = root.attrs.get("app", root.track)
        lines.append(f"critical path — {app} ({root.name} {_ms(root.duration_ns)})")
        for depth, span in enumerate(path):
            prefix = "  " * depth + ("└─ " if depth else "")
            lines.append(f"  {prefix}{span.name:<{max(38 - 2 * depth, 8)}s} {_ms(span.duration_ns):>12s}")
        lines.append("")

    stats = sorted(
        self_time_profile(spans).values(),
        key=lambda s: (-s.self_ns, s.name),
    )
    wall_ns = sum(s.self_ns for s in stats) or 1
    shown = stats[:top]
    width = max([len(s.name) for s in shown] + [len("span")])
    lines.append(
        f"{'span'.ljust(width)}  {'count':>7s}  {'total':>12s}  {'self':>12s}  {'self%':>6s}"
    )
    lines.append(f"{'-' * width}  {'-' * 7}  {'-' * 12}  {'-' * 12}  {'-' * 6}")
    for stat in shown:
        share = 100.0 * stat.self_ns / wall_ns
        lines.append(
            f"{stat.name.ljust(width)}  {stat.count:>7d}  {_ms(stat.total_ns):>12s}"
            f"  {_ms(stat.self_ns):>12s}  {share:>5.1f}%"
        )
    if len(stats) > top:
        lines.append(f"({len(stats) - top} more span names below the top {top})")
    return "\n".join(lines)


# -- flame-graph export ----------------------------------------------------


def to_collapsed_stacks(bus: ObservabilityBus) -> str:
    """The collapsed-stack flame-graph format: one ``a;b;c weight``
    line per distinct stack, weight = aggregate self time in
    nanoseconds. Loadable by ``flamegraph.pl`` and speedscope."""
    spans = bus.spans
    by_id = {s.span_id: s for s in spans}
    children = _children_by_parent(spans)
    weights: dict[str, int] = {}
    for span in spans:
        frames = [span.name]
        parent_id = span.parent_id
        while parent_id is not None:
            parent = by_id.get(parent_id)
            if parent is None:  # parent not recorded; root here
                break
            frames.append(parent.name)
            parent_id = parent.parent_id
        stack = ";".join(reversed(frames))
        child_ns = sum(c.duration_ns for c in children.get(span.span_id, []))
        self_ns = max(span.duration_ns - child_ns, 0)
        weights[stack] = weights.get(stack, 0) + self_ns
    lines = [
        f"{stack} {weight}"
        for stack, weight in sorted(weights.items())
        if weight > 0
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_flame_graph(bus: ObservabilityBus, path: str | Path) -> Path:
    """Serialize :func:`to_collapsed_stacks` to *path*; returns it."""
    path = Path(path)
    path.write_text(to_collapsed_stacks(bus))
    return path


# -- trace diff ------------------------------------------------------------


@dataclass
class SpanAggregate:
    """Per-span-name totals loaded from one trace file."""

    count: int = 0
    total_ns: float = 0.0

    def add(self, duration_ns: float) -> None:
        self.count += 1
        self.total_ns += duration_ns


def _profile_from_jsonl(text: str) -> dict[str, SpanAggregate]:
    profile: dict[str, SpanAggregate] = {}
    starts: list[float] = []
    ends: list[float] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("type") != "span":
            continue
        profile.setdefault(record["name"], SpanAggregate()).add(
            record.get("duration_ns") or 0
        )
        if record.get("start_ns") is not None:
            starts.append(record["start_ns"])
        if record.get("end_ns") is not None:
            ends.append(record["end_ns"])
    if starts and ends:
        wall = SpanAggregate()
        wall.add(max(ends) - min(starts))
        profile["study.total"] = wall
    return profile


def _profile_from_chrome(doc: dict[str, Any]) -> dict[str, SpanAggregate]:
    profile: dict[str, SpanAggregate] = {}
    starts: list[float] = []
    ends: list[float] = []
    for event in doc.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        duration_ns = float(event.get("dur", 0)) * 1000.0
        profile.setdefault(event["name"], SpanAggregate()).add(duration_ns)
        ts_ns = float(event.get("ts", 0)) * 1000.0
        starts.append(ts_ns)
        ends.append(ts_ns + duration_ns)
    if starts and ends:
        wall = SpanAggregate()
        wall.add(max(ends) - min(starts))
        profile["study.total"] = wall
    return profile


def _profile_from_bench(doc: dict[str, Any]) -> dict[str, SpanAggregate]:
    """``BENCH_study.json`` as a pseudo-trace: one row per trajectory
    phase, plus ``study.total`` from the traced full-study wall time so
    a real trace can be compared against the benchmarked baseline."""
    profile: dict[str, SpanAggregate] = {}
    for point in doc.get("trajectory", []):
        entry = SpanAggregate()
        entry.add(float(point["seconds"]) * 1e9)
        profile[point["phase"]] = entry
    observability = doc.get("observability", {})
    traced = observability.get("traced_seconds")
    if traced is not None:
        total = SpanAggregate()
        total.add(float(traced) * 1e9)
        profile["study.total"] = total
    return profile


def load_trace_profile(path: str | Path) -> dict[str, SpanAggregate]:
    """Load per-span-name aggregates from a trace file.

    Accepts all three artifact shapes this repo produces: the JSONL
    event log, the Chrome ``trace_event`` JSON, and the
    ``BENCH_study.json`` trajectory. Every loaded profile carries a
    synthetic ``study.total`` row (the trace's wall-clock extent) so
    traces and benchmarks share at least one comparable name."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict):
            if "traceEvents" in doc:
                return _profile_from_chrome(doc)
            if "trajectory" in doc:
                return _profile_from_bench(doc)
    return _profile_from_jsonl(text)


@dataclass
class DiffRow:
    """One span name's movement between two traces."""

    name: str
    old_count: int
    new_count: int
    old_ns: float
    new_ns: float

    @property
    def ratio(self) -> float | None:
        """new/old total duration; None when the old side is absent."""
        if self.old_ns <= 0:
            return None
        return self.new_ns / self.old_ns

    def regressed(self, threshold: float) -> bool:
        """Did the total duration grow past ``old * (1 + threshold)``?"""
        ratio = self.ratio
        return (
            self.old_count > 0
            and self.new_count > 0
            and ratio is not None
            and ratio > 1.0 + threshold
        )


@dataclass
class TraceDiff:
    """Per-span-name deltas between an old and a new trace."""

    rows: list[DiffRow] = field(default_factory=list)
    threshold: float = 0.25

    def regressions(self) -> list[DiffRow]:
        return [row for row in self.rows if row.regressed(self.threshold)]

    def render(self) -> str:
        if not self.rows:
            return "(no comparable spans)"
        width = max(len(row.name) for row in self.rows)
        lines = [
            f"{'span'.ljust(width)}  {'count':>11s}  {'total old':>12s}"
            f"  {'total new':>12s}  {'Δ':>8s}",
            f"{'-' * width}  {'-' * 11}  {'-' * 12}  {'-' * 12}  {'-' * 8}",
        ]
        ordered = sorted(
            self.rows,
            key=lambda r: (-abs(r.new_ns - r.old_ns), r.name),
        )
        for row in ordered:
            counts = f"{row.old_count}→{row.new_count}"
            ratio = row.ratio
            if ratio is None:
                delta = "new" if row.new_count else "-"
            else:
                delta = f"{(ratio - 1.0) * 100.0:+.1f}%"
            flag = "  REGRESSED" if row.regressed(self.threshold) else ""
            lines.append(
                f"{row.name.ljust(width)}  {counts:>11s}  {_ms(row.old_ns):>12s}"
                f"  {_ms(row.new_ns):>12s}  {delta:>8s}{flag}"
            )
        regressed = self.regressions()
        lines.append("")
        if regressed:
            lines.append(
                f"{len(regressed)} span(s) regressed past "
                f"+{self.threshold * 100.0:.0f}%: "
                + ", ".join(row.name for row in regressed)
            )
        else:
            lines.append(
                f"no span regressed past +{self.threshold * 100.0:.0f}%"
            )
        return "\n".join(lines)


def diff_traces(
    old: dict[str, SpanAggregate],
    new: dict[str, SpanAggregate],
    *,
    threshold: float = 0.25,
) -> TraceDiff:
    """Compare two loaded trace profiles name-by-name."""
    rows = [
        DiffRow(
            name=name,
            old_count=old[name].count if name in old else 0,
            new_count=new[name].count if name in new else 0,
            old_ns=old[name].total_ns if name in old else 0.0,
            new_ns=new[name].total_ns if name in new else 0.0,
        )
        for name in sorted(set(old) | set(new))
    ]
    return TraceDiff(rows=rows, threshold=threshold)

"""Span model of the observability bus.

A :class:`Span` is one timed, named unit of work — a license exchange,
an HTTP request, a playback — with attributes, point events (which the
bus adds) and a parent link. Spans form per-app trees rooted by the
study orchestrator; the tree shape is deterministic (a pure function of
the pipeline run), while the timestamps are real wall-clock nanoseconds,
which is what the exporters turn into Chrome ``trace_event`` timelines.

A span is the bus's whole record of its work: the metrics registry
derives counters from its attributes and a duration histogram entry
from its timestamps once it has closed, and a ``--rate`` sampler's view
keeps or drops it with the rest of its root's tree.

Code paths that may run without a bus use :data:`NULL_SPAN`, a shared
do-nothing span handle, so instrumentation is branch-free at the call
site and literally free when observation is off.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, NamedTuple

__all__ = ["Span", "SpanPoint", "NULL_SPAN", "make_point", "structural_tree"]


class SpanPoint(NamedTuple):
    """One instantaneous event attached to a span (or the bus root).

    A named tuple rather than a frozen dataclass: it stays immutable
    and is cheaper to build (every event is one).
    """

    name: str
    ts_ns: int
    attrs: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "ts_ns": self.ts_ns, "attrs": dict(self.attrs)}


make_point = functools.partial(tuple.__new__, SpanPoint)
"""``make_point((name, ts_ns, attrs))`` builds a :class:`SpanPoint` in C,
skipping the named tuple's generated Python ``__new__``."""


@dataclass(slots=True)
class Span:
    """One finished (or in-flight) unit of work."""

    name: str
    span_id: int
    parent_id: int | None
    track: str
    start_ns: int
    end_ns: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    # The shared empty tuple until the first point: only a span that
    # sees an event (``oecc.dump``, ``dash.select_video``) gets one, and
    # an empty list per span is a GC-tracked allocation.
    points: list[SpanPoint] | tuple[()] = ()

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    # -- handle protocol ---------------------------------------------------
    #
    # Spans double as the handle returned by ``bus.span(...)``, for
    # attributes only; the bus sets ``_bus`` on open. The context-manager
    # protocol lives on the bus (`ObservabilityBus._close`), as do point
    # events, so all list mutation stays behind the bus lock.

    _bus: Any = field(default=None, repr=False, compare=False)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if self._bus is not None:
            self._bus._close(self)

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to an open span."""
        self.attrs.update(attrs)
        return self

    def _add_point(self, point: SpanPoint) -> None:
        """Append *point*. Caller holds the bus lock."""
        if self.points:
            self.points.append(point)
        else:
            self.points = [point]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "track": self.track,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "attrs": dict(self.attrs),
            "points": [p.to_dict() for p in self.points],
        }


class _NullSpan:
    """The disabled-bus span handle: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


def structural_tree(spans: list[Span]) -> list[tuple]:
    """The timestamp-free projection of a span list: nested
    ``(name, sorted-attrs, children)`` tuples in start order.

    Two runs of the same pipeline must produce equal structural trees,
    and a sampler's view keeps some of them unchanged; the equivalence
    tests compare exactly this.
    """
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)

    def build(span: Span) -> tuple:
        kids = children.get(span.span_id, [])
        return (
            span.name,
            tuple(sorted((k, repr(v)) for k, v in span.attrs.items())),
            tuple(build(k) for k in kids),
        )

    return [build(root) for root in children.get(None, [])]

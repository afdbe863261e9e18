"""The observability bus: one hook point for a run's observations.

Spans, OEMCrypto hook buffer dumps and DRM API observations emit
through one :class:`ObservabilityBus`, which only records, each
observation once:

- ``bus.span(name, **attrs)`` opens a timed, hierarchical span;
- ``bus.event(name, **attrs)`` attaches a point event to the current
  span.

Figure 1 arrows are kept once, by the device that drew them
(``AndroidDevice.flows`` appends them to its ``FlowTrace``);
``bus.flows(*arrows)`` only adds their number to ``flow.arrows``.

Nothing is folded while the run goes on: ``bus.metrics`` derives every
counter (through :mod:`repro.obs.counters`) and every ``span.<name>``
duration histogram from the recording each time it is read. What a
``--rate`` sampler keeps is a view of the finished recording
(:meth:`~repro.obs.sampling.TraceSampler.view`), not a recording mode.

Context is propagated *explicitly*: a bus travels with the devices
that own it (the study's bus in process; one fresh bus per
``DeviceSession`` in a fleet cell), and crosses the client/server seam
as ``HttpRequest.obs``. There are no thread-locals, so nothing can leak
between sessions. A fleet cell persists its bus's counters, and fleet
assembly replays them onto a fresh bus, so the artifact stays
byte-identical to the in-process run.

A disabled bus (``ObservabilityBus(enabled=False)``) does nothing at
all: spans return the shared :data:`~repro.obs.span.NULL_SPAN`, and
events, arrow counts and metrics vanish (each device still traces its
own arrows).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.sampling import TraceSampler
from repro.obs.span import NULL_SPAN, Span, SpanPoint, make_point, structural_tree

__all__ = ["ObservabilityBus", "NULL_BUS"]


class ObservabilityBus:
    """Records the spans and events of one run."""

    def __init__(
        self,
        *,
        enabled: bool = True,
        clock: Callable[[], int] | None = None,
    ):
        self.enabled = enabled
        # Span timing is wall-clock by design: traces measure where real
        # time goes. Determinism holds structurally — tests compare span
        # trees and counters, never timestamps.
        self._clock = clock if clock is not None else time.perf_counter_ns  # lint: allow(CLK003) spans time real execution; determinism compares structure, not timestamps
        self._lock = threading.RLock()
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._events: list[SpanPoint] = []
        # The registry shares the bus lock and reads these very lists.
        self.metrics = MetricsRegistry(self._lock, self._spans, self._events)

    # -- spans -------------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span nested under the currently open one.

        Returns a context manager; the returned span doubles as a
        handle for attaching attributes.
        """
        if not self.enabled:
            return NULL_SPAN
        now = self._clock()
        with self._lock:
            spans, stack = self._spans, self._stack
            if stack:
                parent = stack[-1]
                parent_id, track = parent.span_id, parent.track
            else:
                parent_id, track = None, str(attrs.get("app", name))
            # Ids are dense, in open order. ``**attrs`` is a fresh dict
            # per call: the span can own it. Positional: keywords cost a
            # third of the constructor.
            span = Span(
                name, len(spans) + 1, parent_id, track, now, None, attrs, (), self
            )
            spans.append(span)
            stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        now = self._clock()
        with self._lock:
            if span.end_ns is None:
                span.end_ns = now
            stack = self._stack
            if stack and stack[-1] is span:
                stack.pop()
            else:
                self._unwind(span, now)

    def _unwind(self, span: Span, now: int) -> None:
        """Close everything opened after (and including) *span*: an
        exception may unwind several levels at once. Caller holds the
        lock."""
        stack = self._stack
        if any(entry is span for entry in stack):
            while stack:
                top = stack.pop()
                if top.end_ns is None:
                    top.end_ns = now
                if top is span:
                    break

    # -- point events ------------------------------------------------------

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous event on the current span (or the
        bus root when no span is open)."""
        if not self.enabled:
            return
        point = make_point((name, self._clock(), attrs))
        with self._lock:
            stack = self._stack
            if stack:
                stack[-1]._add_point(point)
            else:
                self._events.append(point)

    # -- flow arrows -------------------------------------------------------

    def flows(self, *arrows: tuple[str, str, str]) -> None:
        """Count consecutive Figure 1 arrows (``flow.arrows``). The
        arrows themselves live in the drawing device's ``FlowTrace``;
        the bus keeps no copy."""
        if self.enabled:
            self.metrics.count_many({"flow.arrows": len(arrows)})

    # -- reading -----------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Snapshot of recorded spans, in open order."""
        with self._lock:
            return list(self._spans)

    @property
    def events(self) -> list[SpanPoint]:
        """Snapshot of root-level (orphan) point events."""
        with self._lock:
            return list(self._events)

    def span_names(self) -> list[str]:
        return [s.name for s in self.spans]

    def trees(self) -> list[tuple]:
        """Timestamp-free structural projection (see
        :func:`~repro.obs.span.structural_tree`)."""
        return structural_tree(self.spans)

    def sampling_snapshot(self) -> dict[str, Any]:
        """The exporters' sampling record: a bus keeps every tree, so
        it reads as the view at rate 1/1."""
        return TraceSampler(1).view(self).sampling_snapshot()

    # -- lifecycle ---------------------------------------------------------

    def clear(self) -> None:
        """Drop all recorded data."""
        with self._lock:
            self._spans.clear()
            self._stack.clear()
            self._events.clear()
            self.metrics = MetricsRegistry(self._lock, self._spans, self._events)


NULL_BUS = ObservabilityBus(enabled=False)
"""Shared disabled bus for components constructed without one."""

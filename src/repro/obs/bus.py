"""The observability bus: one hook point for a run's observations.

Spans, OEMCrypto hook buffer dumps and DRM API observations emit
through one :class:`ObservabilityBus`, which records each once:

- ``bus.span(name, **attrs)`` opens a timed, hierarchical span;
- ``bus.event(name, **attrs)`` attaches a point event to the current
  span.

Figure 1 arrows are kept once, by the device that drew them
(``AndroidDevice.flows`` appends them to its ``FlowTrace``);
``bus.flows(*arrows)`` only counts them (``flow.arrows``).

Apart from that tally nothing is counted directly:
:mod:`repro.obs.counters` derives every other counter from the spans
and events, and every histogram is a span duration.

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

A **sampled** bus (``ObservabilityBus(sampler=TraceSampler(4))``) sits
between those extremes: when a root span opens, the sampler makes one
deterministic keep/drop decision and the whole tree inherits it —
dropped trees still time their spans and still fold into histograms
and counters (both stay exact), but their span records are never
stored. The kept/dropped tally is exported via :meth:`sampling_snapshot`
so a truncated trace is never silent about it.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable

from repro.obs.counters import POINT_COUNTERS, SPAN_COUNTERS
from repro.obs.metrics import HistogramStat, MetricsRegistry
from repro.obs.sampling import TraceSampler
from repro.obs.span import NULL_SPAN, Span, SpanPoint, make_point, structural_tree

__all__ = ["ObservabilityBus", "NULL_BUS"]


class ObservabilityBus:
    """Collects spans, events and metrics for one run."""

    def __init__(
        self,
        *,
        enabled: bool = True,
        clock: Callable[[], int] | None = None,
        sampler: TraceSampler | None = None,
    ):
        self.enabled = enabled
        # Head-based sampler, shared (not copied) by every session bus
        # so all buses compute identical per-root decisions. None =
        # record every tree.
        self.sampler = sampler
        # Span timing is wall-clock by design: traces measure where real
        # time goes. Determinism holds structurally — tests compare span
        # trees and counters, never timestamps.
        self._clock = clock if clock is not None else time.perf_counter_ns  # lint: allow(CLK003) spans time real execution; determinism compares structure, not timestamps
        self._lock = threading.RLock()
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._events: list[SpanPoint] = []
        self._next_id = 1
        self._sampled_roots = 0
        self._dropped_roots = 0
        self._dropped_spans = 0
        # The registry shares the bus lock and folds closed spans and
        # pending event and arrow counts in before any read (see
        # _observe_closed); each span name's histogram is looked up once.
        self.metrics = MetricsRegistry(self._lock, before_read=self._observe_closed)
        self._span_histograms: dict[str, HistogramStat] = {}
        self._closed: list[Span] = []
        self._pending: defaultdict[str, int] = defaultdict(int)

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
            stack = self._stack
            if stack:
                parent = stack[-1]
                parent_id, track, sampled = parent.span_id, parent.track, parent.sampled
            else:
                parent_id = None
                track = str(attrs.get("app", name))
                # The head-based decision: made exactly once, here, and
                # inherited by every descendant — a tree is recorded
                # whole or not at all.
                sampled = self.sampler is None or self.sampler.keep(name, attrs)
                if sampled:
                    self._sampled_roots += 1
                else:
                    self._dropped_roots += 1
            if sampled:
                # Dropped spans are never stored, so only kept spans
                # consume ids — exported ids stay dense at any rate.
                span_id = self._next_id
                self._next_id = span_id + 1
            else:
                span_id = 0
                self._dropped_spans += 1
            # ``**attrs`` is a fresh dict per call: the span can own it.
            # Positional: keywords cost a third of the constructor.
            span = Span(
                name, span_id, parent_id, track, now, None, attrs, (), sampled, self
            )
            if sampled:
                self._spans.append(span)
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
            self._closed.append(span)
            if not stack:
                self._observe_closed()

    def _observe_closed(self) -> None:
        """Fold the spans closed since the last fold, in close order:
        durations into their histograms, counters (``SPAN_COUNTERS``)
        and pending event and arrow counts into one registry update.
        Runs when a root span closes and before any metrics read, so no
        reader misses a closed span; one pass over a finished tree keeps
        the histograms warm in cache. Caller holds the lock.
        """
        histograms = self._span_histograms
        counts = self._pending
        for span in self._closed:
            stat = histograms.get(span.name)
            if stat is None:
                stat = self.metrics.histogram(f"span.{span.name}")
                histograms[span.name] = stat
            # Dropped spans still observe and count (sampling trades away
            # span *records*, never exactness), but only recorded spans
            # donate exemplars, so the metrics table's span-id links
            # can always be followed into the trace.
            stat.observe(
                span.end_ns - span.start_ns,
                exemplar=span.span_id if span.sampled else None,
            )
            rule = SPAN_COUNTERS.get(span.name)
            if rule is not None:
                for counter, value in rule(span.attrs).items():
                    counts[counter] += value
        self._closed.clear()
        if counts:
            self.metrics.count_many(counts)
            counts.clear()

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
        counter = POINT_COUNTERS.get(name)
        with self._lock:
            if counter is not None:
                self._pending[counter] += 1
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
            with self._lock:
                self._pending["flow.arrows"] += len(arrows)

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
        """What head-based sampling kept and dropped — embedded in both
        exporters so trace truncation is never silent."""
        with self._lock:
            return {
                "rate": "1/1" if self.sampler is None else self.sampler.rate,
                "seed": 0 if self.sampler is None else self.sampler.seed,
                "sampled_roots": self._sampled_roots,
                "dropped_roots": self._dropped_roots,
                "dropped_spans": self._dropped_spans,
                "recorded_spans": len(self._spans),
            }

    # -- lifecycle ---------------------------------------------------------

    def clear(self) -> None:
        """Drop all recorded data."""
        with self._lock:
            self._spans.clear()
            self._stack.clear()
            self._events.clear()
            self._next_id = 1
            self._sampled_roots = 0
            self._dropped_roots = 0
            self._dropped_spans = 0
            self.metrics = MetricsRegistry(self._lock, before_read=self._observe_closed)
            self._span_histograms = {}
            self._closed.clear()
            self._pending.clear()


NULL_BUS = ObservabilityBus(enabled=False)
"""Shared disabled bus for components constructed without one."""

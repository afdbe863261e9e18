"""Metrics of the observability bus, derived from its recording.

The registry stores nothing it could derive: every read folds the
bus's recording afresh, so recording stays cheap and a read is never
stale. Two instrument kinds cover what the study needs:

- **counters** — integers (requests issued, bytes moved, licenses
  granted, flow arrows drawn): the :mod:`repro.obs.counters` table
  applied to the closed spans, their points and the root events, plus
  what :meth:`MetricsRegistry.count_many` added (the ``flow.arrows``
  tally of ``bus.flows``, and the cell counters a fleet replays).
  They are a deterministic function of the pipeline, wired into
  ``StudyResult.summary()``, and must come out byte-identical across
  in-process, fleet, cold and warm runs.
- **histograms** — ``span.<name>`` durations in nanoseconds of every
  closed span: real time, so *excluded* from the study artifact; they
  feed the metrics table and the exporters.

Histograms bucket every observation against **fixed power-of-two
boundaries** (bucket *i* holds values in ``(2^(i-1), 2^i]``; bucket 0
holds values ``<= 1``). Fixed boundaries keep percentiles independent
of observation order — bucket counts simply add. Buckets carry an
**exemplar**: the span id of the largest observation that landed in
them, linking a latency outlier in the metrics table straight to its
span in the recording.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.obs.counters import POINT_COUNTERS, SPAN_COUNTERS
from repro.obs.span import Span, SpanPoint

__all__ = ["HistogramStat", "MetricsRegistry", "bucket_index", "bucket_bounds"]

# Bucket index of the catch-all overflow bucket: 2^64 ns is ~584 years,
# far above any duration this repo observes.
_OVERFLOW_BUCKET = 64


def bucket_index(value: float) -> int:
    """The fixed bucket a value falls into: smallest ``i`` with
    ``value <= 2^i`` (0 for values <= 1, capped at the overflow)."""
    if value <= 1:
        return 0
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2^exponent
    if mantissa == 0.5:  # exact power of two sits in its own bucket
        exponent -= 1
    return min(exponent, _OVERFLOW_BUCKET)


def bucket_bounds(index: int) -> tuple[float, float]:
    """``(lower, upper]`` boundaries of one fixed bucket."""
    if index <= 0:
        return (0.0, 1.0)
    return (float(2 ** (index - 1)), float(2**index))


@dataclass
class HistogramStat:
    """Aggregated distribution of one named value stream."""

    count: int = 0
    total: float = 0.0
    minimum: float | None = None
    maximum: float | None = None
    # bucket index -> observation count; sparse, fixed boundaries.
    buckets: dict[int, int] = field(default_factory=dict)
    # bucket index -> (value, span_id) of the largest exemplar-bearing
    # observation in that bucket (ties: the lower span id), whatever
    # the observation order.
    exemplars: dict[int, tuple[float, int]] = field(default_factory=dict)

    def observe(self, value: float, *, exemplar: int | None = None) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        if exemplar is not None:
            current = self.exemplars.get(index)
            if current is None or (value, -exemplar) > (current[0], -current[1]):
                self.exemplars[index] = (value, exemplar)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-estimated q-th percentile (0 < q <= 100).

        Walks the cumulative bucket counts to the target rank, then
        interpolates linearly inside the bucket; clamped to the exact
        observed [min, max]. Deterministic: the same bucket counts give
        the same answer regardless of observation order.
        """
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            in_bucket = self.buckets[index]
            if cumulative + in_bucket >= target:
                lower, upper = bucket_bounds(index)
                fraction = (target - cumulative) / in_bucket
                estimate = lower + fraction * (upper - lower)
                return min(max(estimate, self.minimum or 0.0), self.maximum or estimate)
            cumulative += in_bucket
        return self.maximum or 0.0

    def max_exemplar(self) -> tuple[float, int] | None:
        """The ``(value, span_id)`` exemplar of the highest populated
        bucket — the trace link for this stream's worst outlier."""
        for index in sorted(self.exemplars, reverse=True):
            return self.exemplars[index]
        return None

    def to_dict(self) -> dict[str, Any]:
        exemplar = self.max_exemplar()
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": [
                [bucket_bounds(index)[1], self.buckets[index]]
                for index in sorted(self.buckets)
            ],
            "exemplar_span_id": None if exemplar is None else exemplar[1],
        }


class MetricsRegistry:
    """Counters and histograms of one bus, folded from its recording
    on every read.

    *lock* is the owning bus's (re-entrant) lock, and *spans* and
    *events* are the bus's own record lists, read under it.
    """

    def __init__(
        self, lock: Any, spans: list[Span], events: list[SpanPoint]
    ) -> None:
        self._lock = lock
        self._spans = spans
        self._events = events
        self._added: dict[str, int] = {}

    def count_many(self, counts: dict[str, int]) -> None:
        """Add to counters that no record derives, under one lock
        acquisition."""
        with self._lock:
            added = self._added
            for name, value in counts.items():
                added[name] = added.get(name, 0) + value

    # -- reading -----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Every counter, sorted by name: the counter table applied to
        the recording, plus what :meth:`count_many` added."""
        span_rules, point_counters = SPAN_COUNTERS, POINT_COUNTERS
        with self._lock:
            counts = dict(self._added)
            points = list(self._events)
            for span in self._spans:
                if span.points:
                    points += span.points
                # An open span has not set its facts yet.
                if span.end_ns is None:
                    continue
                rule = span_rules.get(span.name)
                if rule is not None:
                    for name, value in rule(span.attrs).items():
                        counts[name] = counts.get(name, 0) + value
        for point in points:
            name = point_counters.get(point.name)
            if name is not None:
                counts[name] = counts.get(name, 0) + 1
        return dict(sorted(counts.items()))

    def counter(self, name: str) -> int:
        return self.counters().get(name, 0)

    def histograms(self) -> dict[str, HistogramStat]:
        """One ``span.<name>`` duration histogram per name of a closed
        span, each span its own exemplar."""
        stats: dict[str, HistogramStat] = {}
        with self._lock:
            for span in self._spans:
                if span.end_ns is None:
                    continue
                stat = stats.get(span.name)
                if stat is None:
                    stat = stats[span.name] = HistogramStat()
                stat.observe(span.end_ns - span.start_ns, exemplar=span.span_id)
        return {f"span.{name}": stats[name] for name in sorted(stats)}

    def snapshot(self) -> dict[str, Any]:
        return {
            "counters": self.counters(),
            "histograms": {
                name: stat.to_dict() for name, stat in self.histograms().items()
            },
        }

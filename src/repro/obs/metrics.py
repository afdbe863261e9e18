"""Metrics registry of the observability bus.

Two instrument kinds cover what the study needs:

- **counters** — monotonically increasing integers (requests issued,
  bytes moved, licenses granted, flow arrows drawn), each derived from
  the bus's spans and events by :mod:`repro.obs.counters` (or, for
  ``flow.arrows``, tallied by ``bus.flows``) or replayed by the fleet,
  and added through :meth:`MetricsRegistry.count_many`.
  They are a deterministic function of the pipeline, wired into
  ``StudyResult.summary()``, and must come out byte-identical across
  in-process, fleet, cold, warm — and sampled — runs.
- **histograms** — ``span.<name>`` durations in nanoseconds: real
  time, so *excluded* from the study artifact; they feed the metrics
  table and the exporters.

Histograms bucket every observation against **fixed power-of-two
boundaries** (bucket *i* holds values in ``(2^(i-1), 2^i]``; bucket 0
holds values ``<= 1``). Fixed boundaries keep percentiles independent
of observation order — bucket counts simply add. Buckets can carry an
**exemplar**: the span id of the largest observation that landed in
them, linking a latency outlier in the metrics table straight to its
span in the recorded trace (only sampled spans donate exemplars, so the
link never dangles).

Registries are lock-guarded, so counters and histograms stay exact
whichever thread emits into them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

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
    """Named counters and histograms, safe for concurrent emission.

    *lock* guards every counter and histogram: it is the owning bus's
    (re-entrant) lock, so its span records and metrics share one.
    *before_read*, called with the lock held before any counter or
    histogram is read, folds in the bus's closed spans.
    """

    def __init__(self, lock: Any, before_read: Callable[[], None]) -> None:
        self._lock = lock
        self._before_read = before_read
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, HistogramStat] = {}

    # -- emission ----------------------------------------------------------

    def count_many(self, counts: dict[str, int]) -> None:
        """Add to several counters under one lock acquisition."""
        with self._lock:
            counters = self._counters
            for name, value in counts.items():
                counters[name] = counters.get(name, 0) + value

    def histogram(self, name: str) -> HistogramStat:
        """The live stat behind *name*, created empty on first use.

        A caller that keeps it must hold the registry's lock while it
        calls :meth:`HistogramStat.observe`. Unlike :meth:`histograms`,
        this does not run the ``before_read`` hook (the hook itself
        calls it).
        """
        with self._lock:
            stat = self._histograms.get(name)
            if stat is None:
                stat = self._histograms[name] = HistogramStat()
            return stat

    # -- reading -----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Sorted copy of every counter."""
        with self._lock:
            self._before_read()
            return dict(sorted(self._counters.items()))

    def counter(self, name: str) -> int:
        with self._lock:
            self._before_read()
            return self._counters.get(name, 0)

    def histograms(self) -> dict[str, HistogramStat]:
        with self._lock:
            self._before_read()
            return dict(sorted(self._histograms.items()))

    def snapshot(self) -> dict[str, Any]:
        return {
            "counters": self.counters(),
            "histograms": {
                name: stat.to_dict() for name, stat in self.histograms().items()
            },
        }

"""Metrics registry of the observability bus.

Two instrument kinds cover what the study needs:

- **counters** — monotonically increasing integers (requests issued,
  bytes moved, licenses granted, flow arrows drawn). Counter values are
  a deterministic function of the pipeline, so a stable subset is wired
  into ``StudyResult.summary()`` and must come out byte-identical across
  sequential, parallel, cold, warm — and sampled — runs; the benchmarks
  assert it.
- **histograms** — value distributions (span durations in nanoseconds,
  payload sizes). Durations are real time and therefore *excluded* from
  the study artifact; they feed the metrics table and the exporters.

Histograms bucket every observation against **fixed power-of-two
boundaries** (bucket *i* holds values in ``(2^(i-1), 2^i]``; bucket 0
holds values ``<= 1``). Fixed boundaries make the merge exact and
order-independent — bucket counts simply add — so p50/p95/p99 computed
after a parallel merge equal the sequential run's, whatever order the
worker registries were folded in. Buckets can carry an **exemplar**: the
span id of the largest observation that landed in them, linking a
latency outlier in the metrics table straight to its span in the
recorded trace (only sampled spans donate exemplars, so the link never
dangles).

Registries are lock-guarded (the parallel runner's per-worker buses are
merged through :meth:`MetricsRegistry.merge`, and a server handler runs
on whatever worker thread carried the request in).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["HistogramStat", "MetricsRegistry", "bucket_index", "bucket_bounds"]

# Bucket index of the catch-all overflow bucket: 2^64 ns is ~584 years,
# far above any duration or payload size this repo observes.
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
    # observation in that bucket. Merge keeps the max value (ties: the
    # lower span id), which is commutative and associative.
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
            # Most observations lose to the bucket's exemplar; reject
            # those here, without the call.
            current = self.exemplars.get(index)
            if current is None or value >= current[0]:
                self._offer_exemplar(index, value, exemplar)

    def _offer_exemplar(self, index: int, value: float, span_id: int) -> None:
        current = self.exemplars.get(index)
        if (
            current is None
            or value > current[0]
            or (value == current[0] and span_id < current[1])
        ):
            self.exemplars[index] = (value, span_id)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-estimated q-th percentile (0 < q <= 100).

        Walks the cumulative bucket counts to the target rank, then
        interpolates linearly inside the bucket; clamped to the exact
        observed [min, max]. Deterministic and merge-exact: the same
        bucket counts give the same answer regardless of observation
        or merge order.
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

    def merge(self, other: "HistogramStat") -> None:
        self.count += other.count
        self.total += other.total
        for bound in (other.minimum, other.maximum):
            if bound is None:
                continue
            self.minimum = bound if self.minimum is None else min(self.minimum, bound)
            self.maximum = bound if self.maximum is None else max(self.maximum, bound)
        for index, in_bucket in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + in_bucket
        for index, (value, span_id) in other.exemplars.items():
            self._offer_exemplar(index, value, span_id)

    def copy(self) -> "HistogramStat":
        return HistogramStat(
            count=self.count,
            total=self.total,
            minimum=self.minimum,
            maximum=self.maximum,
            buckets=dict(self.buckets),
            exemplars=dict(self.exemplars),
        )

    def shift_exemplars(self, offset: int) -> None:
        """Remap exemplar span ids by *offset* (the bus merge remaps
        worker span ids the same way, so trace links stay valid)."""
        if offset:
            self.exemplars = {
                index: (value, span_id + offset)
                for index, (value, span_id) in self.exemplars.items()
            }

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

    *lock* guards every counter and histogram. A bus passes its own
    (re-entrant) lock, so its span records and metrics share one, and a
    *before_read* hook, called with the lock held before histograms are
    read or merged out, that folds in the durations of closed spans.
    """

    def __init__(
        self, lock: Any = None, before_read: Callable[[], None] | None = None
    ) -> None:
        self._lock = lock if lock is not None else threading.Lock()
        self._before_read = before_read
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, HistogramStat] = {}

    # -- emission ----------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def count_many(self, counts: dict[str, int]) -> None:
        """Add to several counters under one lock acquisition."""
        with self._lock:
            counters = self._counters
            for name, value in counts.items():
                counters[name] = counters.get(name, 0) + value

    def observe(self, name: str, value: float, *, exemplar: int | None = None) -> None:
        with self._lock:
            self._stat(name).observe(value, exemplar=exemplar)

    def histogram(self, name: str) -> HistogramStat:
        """The live stat behind *name*, created empty on first use.

        A caller that keeps it must hold the registry's lock while it
        calls :meth:`HistogramStat.observe`. Unlike :meth:`histograms`,
        this does not run the ``before_read`` hook (the hook itself
        calls it).
        """
        with self._lock:
            return self._stat(name)

    def _stat(self, name: str) -> HistogramStat:
        # Caller holds self._lock.
        stat = self._histograms.get(name)
        if stat is None:
            stat = self._histograms[name] = HistogramStat()
        return stat

    # -- reading -----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Sorted copy of every counter."""
        with self._lock:
            return dict(sorted(self._counters.items()))

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def histograms(self) -> dict[str, HistogramStat]:
        with self._lock:
            if self._before_read is not None:
                self._before_read()
            return dict(sorted(self._histograms.items()))

    def snapshot(self) -> dict[str, Any]:
        return {
            "counters": self.counters(),
            "histograms": {
                name: stat.to_dict() for name, stat in self.histograms().items()
            },
        }

    # -- merging -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry", *, exemplar_offset: int = 0) -> None:
        """Fold another registry (a finished worker's) into this one.

        ``exemplar_offset`` is the span-id offset the bus merge applied
        to the worker's spans; exemplars are shifted by the same amount
        so they keep pointing at the remapped span records.
        """
        with other._lock:
            if other._before_read is not None:
                other._before_read()
            counters = dict(other._counters)
            histograms = {
                name: stat.copy() for name, stat in other._histograms.items()
            }
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, incoming in histograms.items():
                incoming.shift_exemplars(exemplar_offset)
                stat = self._histograms.get(name)
                if stat is None:
                    self._histograms[name] = incoming
                else:
                    stat.merge(incoming)

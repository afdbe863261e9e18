"""Head-based trace sampling: a view of a finished recording.

At study scale (the ROADMAP's millions-of-users north star) exporting
every span is too much: a full ten-app run already produces hundreds of
spans. :class:`TraceSampler` implements the standard production answer
— **head-based sampling per root span** — as a view of what the bus
recorded: :meth:`TraceSampler.view` decides once per root span and
keeps or drops the whole tree under it. An app's trace is exported
whole or not at all; a tree is never split. The bus itself records
every span whatever the rate (it has no sampling state), so sampling
changes what ``repro trace``/``repro profile`` export, never what the
study does.

Three properties make the view safe inside this repo's byte-identity
contract:

- **Deterministic.** The decision is a pure function of
  ``(seed, rate, root identity)`` — a SHA-256 of the root span's name
  and sorted recorded attributes — never of arrival order or a shared
  counter. The same seed and rate keep the *same* app trees on every
  run.
- **Exact.** The view carries the bus's own metrics: counters and
  histograms cover every recorded span, kept or dropped, and
  ``StudyResult.to_json()`` never depends on a rate.
- **Never silent.** The view tallies kept/dropped roots and dropped
  spans; both exporters embed that record
  (:meth:`SampledTrace.sampling_snapshot`) so a truncated trace always
  says it is one.
"""

from __future__ import annotations

import hashlib
from typing import Any, NamedTuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Span, SpanPoint

__all__ = ["TraceSampler", "SampledTrace", "parse_rate"]


def parse_rate(text: str) -> int:
    """Parse a ``1/N`` (or bare ``N``) sampling-rate spec into the
    denominator N. ``1/1`` means keep everything."""
    spec = text.strip()
    if "/" in spec:
        numerator, _, denominator = spec.partition("/")
        if numerator.strip() != "1":
            raise ValueError(f"sampling rate must be 1/N, got {text!r}")
        spec = denominator
    try:
        value = int(spec)
    except ValueError:
        raise ValueError(f"sampling rate must be 1/N, got {text!r}") from None
    if value < 1:
        raise ValueError(f"sampling denominator must be >= 1, got {text!r}")
    return value


class SampledTrace(NamedTuple):
    """What a sampler exports of a bus: the kept trees' spans in open
    order, the bus's root events and metrics, and the sampling record.
    The exporters and profile functions read it as they read a bus."""

    spans: list[Span]
    events: list[SpanPoint]
    metrics: MetricsRegistry
    sampling: dict[str, Any]

    def sampling_snapshot(self) -> dict[str, Any]:
        return dict(self.sampling)


class TraceSampler:
    """Deterministic keep-1-in-N decision maker for root spans.

    Instances are immutable and shareable.
    """

    __slots__ = ("denominator", "seed")

    def __init__(self, denominator: int, *, seed: int = 0):
        if denominator < 1:
            raise ValueError(f"denominator must be >= 1, got {denominator}")
        self.denominator = denominator
        self.seed = seed

    @classmethod
    def from_rate(cls, rate: str, *, seed: int = 0) -> "TraceSampler":
        """Build a sampler from a ``1/N`` spec (see :func:`parse_rate`)."""
        return cls(parse_rate(rate), seed=seed)

    @property
    def rate(self) -> str:
        return f"1/{self.denominator}"

    def root_key(self, name: str, attrs: dict) -> str:
        """The identity a root span is sampled by: its name plus its
        sorted attributes (``study.app`` roots differ per app)."""
        rendered = ",".join(f"{k}={v!r}" for k, v in sorted(attrs.items()))
        return f"{name}|{rendered}"

    def keep(self, name: str, attrs: dict) -> bool:
        """Decide whether the tree under this root is kept."""
        if self.denominator == 1:
            return True
        key = f"{self.seed}:{self.root_key(name, attrs)}"
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.denominator == 0

    def view(self, bus: Any) -> SampledTrace:
        """The kept root trees of a finished *bus*, whole, with its
        metrics and the record of what was dropped. Each root is keyed
        on the attributes it was recorded with; spans open in order, so
        a parent's verdict is known before its children's."""
        spans = bus.spans
        kept: list[Span] = []
        kept_ids: set[int] = set()
        roots = kept_roots = 0
        for span in spans:
            if span.parent_id is None:
                roots += 1
                keep = self.keep(span.name, span.attrs)
                kept_roots += keep
            else:
                keep = span.parent_id in kept_ids
            if keep:
                kept_ids.add(span.span_id)
                kept.append(span)
        return SampledTrace(kept, bus.events, bus.metrics, {
            "rate": self.rate,
            "seed": self.seed,
            "sampled_roots": kept_roots,
            "dropped_roots": roots - kept_roots,
            "dropped_spans": len(spans) - len(kept),
            "recorded_spans": len(kept),
        })

    def __repr__(self) -> str:  # pragma: no cover
        return f"TraceSampler(rate={self.rate!r}, seed={self.seed})"

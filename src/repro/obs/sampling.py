"""Head-based trace sampling for the observability bus.

At study scale (the ROADMAP's millions-of-users north star) recording
every span is too much: a full ten-app run already produces hundreds of
spans, and the bus is on every request path. :class:`TraceSampler`
implements the standard production answer — **head-based sampling per
root span**: the keep/drop decision is made once, when a root span
opens, and the whole tree under that root inherits it. An app's trace
is either recorded whole or not at all; a tree is never split.

Three properties make the sampler safe inside this repo's
byte-identity contract:

- **Deterministic.** The decision is a pure function of
  ``(seed, rate, root identity)`` — a SHA-256 of the root span's name
  and sorted attributes — never of arrival order or a shared counter.
  Re-running the study with the same seed and rate keeps the *same*
  app trees; so does running its cells on fresh device sessions,
  because every session's bus computes the identical decision for the
  identical root.
- **Exactness-preserving.** Sampling drops *span records*, nothing
  else: counters still count, histograms still observe every closed
  span's duration (dropped or kept), flow arrows still reach their
  consumers. ``StudyResult.to_json()`` is byte-identical at any rate.
- **Never silent.** The bus tallies kept/dropped roots and dropped
  spans; both exporters embed that record
  (:meth:`~repro.obs.bus.ObservabilityBus.sampling_snapshot`) so a
  truncated trace always says it is one.
"""

from __future__ import annotations

import hashlib

__all__ = ["TraceSampler", "parse_rate"]


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


class TraceSampler:
    """Deterministic keep-1-in-N decision maker for root spans.

    Instances are immutable and shareable: the study's bus and every
    :class:`~repro.core.study.DeviceSession` bus hold the *same*
    sampler, so a cell keeps the trees the in-process run keeps.
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
        """Decide, once, whether the tree under this root is recorded."""
        if self.denominator == 1:
            return True
        key = f"{self.seed}:{self.root_key(name, attrs)}"
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.denominator == 0

    def to_dict(self) -> dict:
        return {"rate": self.rate, "seed": self.seed}

    def __repr__(self) -> str:  # pragma: no cover
        return f"TraceSampler(rate={self.rate!r}, seed={self.seed})"

"""Spans recorded from outside the program, at each layer boundary.

:class:`Tracer` replaces every boundary listed in
:data:`perfbench.layers.PROBES` with a timing wrapper while it is
installed, and puts the originals back on :meth:`Tracer.uninstall`.
Spans stay in memory, stacked, so a span's self time is its duration
minus the spans opened inside it; :meth:`Tracer.write` writes them out
once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.layers import LRU_CACHES, PROBES, SEGMENT_CACHE
from repro.dash.packager import segment_cache_stats


def _resolve(spec: str):
    """``module:attr`` or ``module:Class.method`` -> (owner, attr, raw)."""
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    raw = inspect.getattr_static(owner, attr)
    return owner, attr, raw


@dataclass
class ProbeStats:
    calls: int = 0
    incl_ns: int = 0  # outermost calls only, so nested calls never double-count
    self_ns: int = 0
    extra: dict[str, float] = field(default_factory=dict)


# Per-probe result hooks: what a call's arguments or result add to the
# probe's counters.
def _on_result(probe: str):
    if probe == "crypto.aes_ctr":
        return lambda stats, result: _add(stats, "bytes", len(result))
    if probe == "net.cdn":
        return lambda stats, result: _add(stats, "bytes", len(result.body))
    if probe == "license_server.issue":
        return lambda stats, result: _add(stats, "granted", int(result.ok))
    if probe == "bmff.read_samples":
        return lambda stats, result: _add(stats, "samples", len(result[0]))
    if probe == "fleet.submit":
        def fleet(stats, outcome):
            for key in ("computed", "cache_hits", "cells"):
                _add(stats, key, outcome.stats[key])
        return fleet
    return None


def _add(stats: ProbeStats, key: str, value: float) -> None:
    stats.extra[key] = stats.extra.get(key, 0) + value


class CacheCounters:
    """(hits, misses) of the program's caches, per hit-ratio metric."""

    def __init__(self) -> None:
        # The lru_cache objects themselves, taken before the tracer
        # replaces some of their module bindings.
        self.caches = {}
        for metric, spec in LRU_CACHES.items():
            module_name, _, attr = spec.partition(":")
            self.caches[metric] = getattr(importlib.import_module(module_name), attr)

    def read(self) -> dict[str, tuple[int, int]]:
        counts = {}
        for metric, cache in self.caches.items():
            info = cache.cache_info()
            counts[metric] = (info.hits, info.misses)
        stats = segment_cache_stats()
        counts[SEGMENT_CACHE] = (stats["hits"], stats["misses"])
        return counts

    def since(self, before: dict[str, tuple[int, int]]) -> dict[str, tuple[int, int]]:
        return {
            metric: (hits - before[metric][0], misses - before[metric][1])
            for metric, (hits, misses) in self.read().items()
        }


class Tracer:
    """Times calls into the program's layers while installed."""

    def __init__(self) -> None:
        self.stats: dict[str, ProbeStats] = {p: ProbeStats() for p in PROBES}
        # Closed spans: (id, parent id, probe, start ns, duration ns, self ns).
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._depth: dict[str, int] = {p: 0 for p in PROBES}
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, probe: str, fn):
        stats = self.stats[probe]
        on_result = _on_result(probe)
        stack = self._stack
        depth = self._depth
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]  # [span id, ns covered by child spans]
            stack.append(frame)
            depth[probe] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                depth[probe] -= 1
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, parent, probe, start, duration, own))
                stats.calls += 1
                stats.self_ns += own
                if depth[probe] == 0:
                    stats.incl_ns += duration
            if on_result is not None:
                on_result(stats, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every boundary. Originals are resolved first, so a
        subclass override never wraps an already-wrapped base method."""
        resolved = [
            (probe, _resolve(spec)) for probe, specs in PROBES.items() for spec in specs
        ]
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and name.partition(".")[0] in ("repro", "perfbench")
        ]
        for probe, (owner, attr, raw) in resolved:
            if inspect.isclass(owner):
                self._patch_method(probe, owner, attr, raw)
                continue
            wrapper = self._wrap(probe, raw)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._patches.append((module, name, raw, True))
                        setattr(module, name, wrapper)

    def _patch_method(self, probe: str, cls, attr: str, raw) -> None:
        own = attr in vars(cls)
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(probe, raw.__func__))
        else:
            patched = self._wrap(probe, raw)
        self._patches.append((cls, attr, raw, own))
        setattr(cls, attr, patched)

    def uninstall(self) -> None:
        for owner, name, raw, own in reversed(self._patches):
            if own:
                setattr(owner, name, raw)
            else:
                delattr(owner, name)
        self._patches.clear()

    # -- phases ------------------------------------------------------------

    def snapshot(self) -> dict[str, ProbeStats]:
        """Copy of the counters, to difference one phase from another."""
        return {
            probe: ProbeStats(s.calls, s.incl_ns, s.self_ns, dict(s.extra))
            for probe, s in self.stats.items()
        }

    def write(self, path: Path) -> None:
        """Write the recorded spans, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(
                "# [span id, parent id, probe, start ns, duration ns, self ns]\n"
            )
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def delta(after: dict[str, ProbeStats], before: dict[str, ProbeStats]):
    out = {}
    for probe, a in after.items():
        b = before[probe]
        out[probe] = ProbeStats(
            a.calls - b.calls,
            a.incl_ns - b.incl_ns,
            a.self_ns - b.self_ns,
            {k: v - b.extra.get(k, 0) for k, v in a.extra.items()},
        )
    return out


@dataclass
class LayerView:
    """What :data:`perfbench.layers.METRICS` read their values from."""

    window: dict[str, ProbeStats]  # the traced window
    setup: dict[str, ProbeStats]  # the traced run's set-up
    ops: int
    cache_delta: dict[str, tuple[int, int]]  # (hits, misses) per metric
    trace_overhead_pct: float
    program_spans: int  # spans on the program's own bus

    def ms(self, probe: str) -> float:
        return self.window[probe].incl_ns / 1e6 / self.ops

    def self_ms(self, probe: str) -> float:
        return self.window[probe].self_ns / 1e6 / self.ops

    def calls(self, probe: str) -> int:
        return self.window[probe].calls

    def extra(self, probe: str, key: str) -> float:
        return self.window[probe].extra.get(key, 0)

    def setup_ms(self, probe: str) -> float:
        return self.setup[probe].incl_ns / 1e6

    @staticmethod
    def ratio(hits: float, total: float) -> float:
        return hits / total if total else 0.0

    def cache_ratio(self, metric: str) -> float:
        hits, misses = self.cache_delta[metric]
        return self.ratio(hits, hits + misses)

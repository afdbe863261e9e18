#!/usr/bin/env python3
"""What the observability bus costs inside one real study, per method.

    python tools/bus_cost.py

Runs one warm-up default study (every cache warm), then one traced
default study with each public ``ObservabilityBus`` method wrapped in
a timer, plus the span close (``_close``) and the fold
(``_observe_closed``, which runs inside a root's close and before every
metrics read). It prints, per method, the calls, the in-place time
(wall time inside the method, callees included: the close row contains
the fold row) and the time per call, then the spans, points and
counters the traced study recorded.

A wrapper adds about 1 µs per call, so compare two bus versions by
running this on each in the same window and comparing methods called
about equally often; totals of rarely called methods are noise.

Exits 0 when the study matches the paper's Table I, 1 otherwise.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.core.study import WideLeakStudy  # noqa: E402
from repro.obs.bus import ObservabilityBus  # noqa: E402

# Private methods worth a row: a span's close and the fold it triggers.
_PRIVATE_ROWS = {"_close": "span close", "_observe_closed": "fold"}


def _timed_methods() -> dict[str, str]:
    """Attribute name -> row label for every method the tool wraps."""
    names = {
        name: name
        for name, value in vars(ObservabilityBus).items()
        if not name.startswith("_") and callable(value)
    }
    names.update(_PRIVATE_ROWS)
    return names


def _wrap(name: str, label: str, totals: dict[str, list[int]]):
    original = getattr(ObservabilityBus, name)
    clock = time.perf_counter_ns
    total = totals.setdefault(label, [0, 0])

    def timed(*args, **kwargs):
        start = clock()
        try:
            return original(*args, **kwargs)
        finally:
            total[0] += 1
            total[1] += clock() - start

    setattr(ObservabilityBus, name, timed)
    return original


def main() -> int:
    warm = WideLeakStudy.with_default_apps().run()
    if not warm.table.matches_paper:
        print("warm-up study does not match Table I", file=sys.stderr)
        return 1

    totals: dict[str, list[int]] = {}
    originals = {
        name: _wrap(name, label, totals)
        for name, label in _timed_methods().items()
    }
    start = time.perf_counter()
    try:
        study = WideLeakStudy.with_default_apps()
        result = study.run()
        wall_s = time.perf_counter() - start
    finally:
        for name, original in originals.items():
            setattr(ObservabilityBus, name, original)

    bus = study.obs
    spans = bus.spans
    points = sum(len(span.points) for span in spans) + len(bus.events)
    counters = bus.metrics.counters()

    print(f"traced default study: {wall_s * 1e3:.1f} ms wall (bus methods timed)")
    print(f"{'method':<16s} {'calls':>7s} {'in-place ms':>12s} {'us/call':>9s}")
    for label, (calls, ns) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        if calls:
            print(
                f"{label:<16s} {calls:>7d} {ns / 1e6:>12.2f}"
                f" {ns / 1e3 / calls:>9.2f}"
            )
    print(
        f"recorded: {len(spans)} spans, {points} points,"
        f" {len(counters)} counters ({sum(counters.values())} total)"
    )
    if not result.table.matches_paper:
        print("traced study does not match Table I", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

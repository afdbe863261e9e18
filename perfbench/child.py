"""One measured interpreter: set up a workload, then time it.

Started by ``perfbench/run.py`` with ``PYTHONPATH=src``::

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE ROLE CHUNKS

It prints ``READY`` once set-up is done (the parent times set-up from
process start to that line). A ``setup`` role exits there. The ``main``
role then runs its timed window in CHUNKS parts: it waits for a line on
stdin before each part and prints ``PAUSE`` after it, so the parent can
run set-up samples in between and the window spans the whole run. With
TRACE=1 it then runs a second, traced window over the next ops of the
same sequence. It ends with one line ``RESULT <json>``. Between ops it
asks for host-speed readings with a ``SPEED?`` line and reads each
answer from stdin.
"""

from __future__ import annotations

import gc
import importlib
import json
import pkgutil
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import repro  # noqa: E402
from perfbench.layers import METRICS  # noqa: E402
from perfbench.tracer import CacheCounters, LayerView, Tracer, delta  # noqa: E402
from perfbench.workloads import WORKLOADS, Outcome, Workload, quantile  # noqa: E402
from repro.obs.bus import ObservabilityBus  # noqa: E402

RUNS = ROOT / "perfbench" / ".runs"


def peak_rss_mb() -> float:
    """This interpreter's peak resident memory. getrusage() would also
    count the parent's, which a child inherits across fork and exec."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def host_speed() -> float:
    """One host-speed reading (:mod:`perfbench.speed`), taken by the
    parent while this process waits: the kernel then runs in a small
    process whose state no change to the program can touch."""
    print("SPEED?", flush=True)
    return float(sys.stdin.readline())


class Window:
    """The ops of one timed pass, possibly run in several parts.

    A part reads the host speed EDGE_SAMPLES times before its first op
    and after its last, and once after every stretch of about SLICE_S
    seconds of ops; its op times are scaled to the reference host by
    the median of those readings. One reading is noisy, and the drift
    it corrects is slow."""

    SLICE_S = 0.5
    EDGE_SAMPLES = 8

    def __init__(self) -> None:
        self.times: list[float] = []  # seconds per op at reference speed
        self.raw_times: list[float] = []  # seconds per op as measured
        self.speeds: list[float] = []  # one scale factor per part
        self.outcomes: list[Outcome] = []

    @property
    def busy_s(self) -> float:
        return sum(self.times)

    def run(self, workload: Workload, start: int, stop: int) -> "Window":
        """Time ops [start, stop); checks run untimed."""
        gc.collect()
        clock = time.perf_counter
        readings = [host_speed() for _ in range(self.EDGE_SAMPLES)]
        part: list[tuple[float, Outcome]] = []
        opened = clock()
        for index in range(start, stop):
            t0 = clock()
            payload = workload.run(index)
            elapsed = clock() - t0
            part.append((elapsed, workload.check(index, payload)))
            if clock() - opened >= self.SLICE_S and index < stop - 1:
                readings.append(host_speed())
                opened = clock()
        readings += [host_speed() for _ in range(self.EDGE_SAMPLES)]
        factor = statistics.median(readings)
        self.speeds.append(factor)
        for elapsed, outcome in part:
            self.raw_times.append(elapsed)
            self.times.append(elapsed * factor)
            outcome.parts = {k: v * factor for k, v in outcome.parts.items()}
            self.outcomes.append(outcome)
        return self

    def counts(self) -> dict[str, int]:
        totals: dict[str, int] = {"ops": len(self.outcomes)}
        for outcome in self.outcomes:
            for name, value in outcome.counts.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def errors(self) -> list[str]:
        return [o.error for o in self.outcomes if o.error is not None]


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, role, chunks = argv
    seed, seconds, trace, chunks = int(seed), int(seconds), trace == "1", int(chunks)
    RUNS.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, ObservabilityBus(enabled=False), RUNS)
    tracer = Tracer() if trace and role == "main" else None
    caches = CacheCounters()
    try:
        if tracer is not None:
            # Import every module first: one imported later, while the
            # tracer is installed, would keep the wrappers it bound.
            for module in pkgutil.walk_packages(repro.__path__, "repro."):
                if not module.name.endswith("__main__"):
                    importlib.import_module(module.name)
            tracer.install()
        workload.setup()
        if tracer is not None:
            tracer.uninstall()
        print("READY", flush=True)
        if role == "setup":
            return 0

        n = workload.op_count(seconds)
        before = caches.read()
        plain = Window()
        bounds = [n * k // chunks for k in range(chunks + 1)]
        for start, stop in zip(bounds, bounds[1:]):
            sys.stdin.readline()
            plain.run(workload, start, stop)
            print("PAUSE", flush=True)
        # Counts that depend on the seed alone, compared across runs.
        repeat = plain.counts()
        for metric, (hits, misses) in caches.since(before).items():
            repeat[f"{metric}.hits"], repeat[f"{metric}.misses"] = hits, misses

        result: dict = {
            "ops": n,
            "attempted": n,
            "failed": len(plain.errors()),
            "errors": plain.errors()[:5],
            "repeat": repeat,
        }
        if tracer is None:
            result["end_to_end"] = {
                **op_metrics(plain.times, ""),
                **workload.end_to_end(plain),
            }
            result["raw"] = {
                **op_metrics(plain.raw_times, "raw "),
                "host_speed": (quantile(plain.speeds, 0.5), "x", len(plain.speeds)),
            }
        else:
            traced, layers, checks = traced_window(workload, tracer, caches, plain, n)
            result["attempted"] += n
            result["failed"] += len(traced.errors())
            result["errors"] += traced.errors()[:5] + checks
            result["layers"] = layers
            tracer.write(RUNS / f"{name}.trace.jsonl")

        result["errors"] += workload.finish()
        result["peak_rss_mb"] = peak_rss_mb()
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()


def op_metrics(times: list[float], prefix: str) -> dict:
    times_ms = [t * 1000 for t in times]
    n = len(times)
    return {
        f"{prefix}op_p50_ms": (quantile(times_ms, 0.5), "ms", n),
        f"{prefix}op_p90_ms": (quantile(times_ms, 0.9), "ms", n),
        f"{prefix}ops_per_s": (n / sum(times), "1/s", n),
    }


def traced_window(workload, tracer, caches, plain, n):
    """Run ops [n, 2n) with the tracer installed and the program's bus
    on; read every per-layer metric and cross-check the tracer's counts
    against the program's own counters."""
    setup = tracer.snapshot()
    workload.set_program_trace(True)
    before = caches.read()
    tracer.install()
    try:
        traced = Window().run(workload, n, 2 * n)
    finally:
        tracer.uninstall()
        workload.set_program_trace(False)
    window = delta(tracer.snapshot(), setup)
    view = LayerView(
        window=window,
        setup=setup,
        ops=n,
        cache_delta=caches.since(before),
        trace_overhead_pct=(traced.busy_s / plain.busy_s - 1.0) * 100.0,
        program_spans=workload.program_spans(),
    )
    layers = {m.name: (float(m.read(view)), m.unit, n) for m in METRICS}

    checks = [
        f"{m.name} reads 0 on {workload.name}, where its layer does most work"
        for m in METRICS
        if workload.name in m.most_work and layers[m.name][0] == 0
    ]
    counters = workload.program_counters()
    pairs = {}
    if workload.name != "fleet_resubmit":
        # Fleet cells run on buses of the scheduler's own making.
        pairs["license_server.requests"] = (
            window["license_server.issue"].calls,
            counters.get("license.issued", 0) + counters.get("license.denied", 0),
        )
    if workload.name in ("viewers", "recovery_longtail"):
        pairs["net.http_requests"] = (
            window["net.http"].calls,
            counters.get("http.requests", 0),
        )
    if workload.name == "fleet_resubmit":
        pairs["fleet.store_put calls vs cells computed"] = (
            window["fleet.store_put"].calls,
            window["fleet.submit"].extra.get("computed", 0),
        )
    for label, (ours, theirs) in pairs.items():
        if ours != theirs:
            checks.append(f"{label}: tracer counted {ours}, program counted {theirs}")
    return traced, layers, checks


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Host speed, read from a fixed calibration kernel.

The benchmark shares a host whose speed drifts by tens of percent over
tens of seconds (other tenants on the same cores). ``perfbench/run.py``
reads the host speed with :func:`sample` around every set-up and, in
its own small process while the measured child waits, through every
part of the timed loop; the loop's times are scaled by those readings,
so the reported figures are the times the program would take on the
reference host. A change to the program moves them; a change in the
neighbours' load mostly does not.

The kernel never calls the program. It has three halves, each timed
and compared with its time on the reference host:

- ``table``: a tight interpreted loop over a byte table and a small
  dict, like the pure-Python AES-CTR and box parsing;
- ``bigint``: a 2048-bit modular power, like the program's RSA;
- ``chase``: a pointer chase through about 20 MB of Python
  objects, like its list, dict and LRU traffic and the caches other
  tenants share with it.

A neighbour's load does not slow every kind of code alike, so each
workload reads the halves that mirror its ops (:data:`KERNELS`). Its
speed is the mean of their ratios: 1.0 on the reference host, 0.5 on
a host that runs them at half their speed.
"""

from __future__ import annotations

import gc
import random
import time

# Kernel times on the reference host (2-vCPU x86-64 VM, CPython 3.11),
# in seconds. Fixed: changing them rescales every reported time.
REF_S = {"table": 0.0100, "bigint": 0.0100, "chase": 0.0100}

# The halves each workload reads, chosen from one set of runs per
# workload scaled every way at once (interquartile spread over the
# runs of op_p50_ms, op_p90_ms, ops_per_s). recovery_longtail (AES-CTR
# and parsing, no RSA) moves with the table loop: unscaled 0.24, 0.26,
# 0.31; table+chase 0.09, 0.08, 0.11; bigint+chase 0.18, 0.17, 0.17.
# The workloads that license and provision (RSA) move with the power
# and the chase: table1 unscaled 0.24, 0.15, 0.16, bigint+chase 0.10,
# 0.06, 0.08, table alone 0.28, 0.27, 0.18; viewers unscaled 0.19,
# 0.16, 0.14, bigint+chase 0.06, 0.04, 0.05.
KERNELS = {
    "recovery_longtail": ("table", "chase"),
}
DEFAULT_KERNELS = ("bigint", "chase")

_SBOX = bytes((i * 167 + 91) % 256 for i in range(256))
_MODULUS = (1 << 2048) - 1157
_EXPONENT = (1 << 680) + 12345
_CHASE_NODES = 1 << 18
_CHASE_STEPS = 15_000
_chain: list[int] = []
_labels: list[str] = []


def _table_kernel() -> int:
    state = list(range(16))
    table = _SBOX
    for rnd in range(2700):
        key = rnd & 0xFF
        state = [table[b ^ key] for b in state]
        state = state[5:] + state[:5]
        state[0] ^= (state[15] << 1) & 0xFF
    counts: dict[int, int] = {}
    for i in range(17000):
        counts[i & 1023] = counts.get(i & 1023, 0) ^ i
    return sum(state) + len(counts)


def _bigint_kernel() -> int:
    return pow(0x1234567 + 3, _EXPONENT, _MODULUS)


def _build_chain() -> None:
    """One cycle through every node, in a fixed random order."""
    order = list(range(_CHASE_NODES))
    random.Random(0).shuffle(order)
    _chain.extend([0] * _CHASE_NODES)
    for here, there in zip(order, order[1:] + order[:1]):
        _chain[here] = there
    _labels.extend(str(i) for i in range(_CHASE_NODES))


def _chase_kernel() -> int:
    node, total = 0, 0
    chain, labels = _chain, _labels
    for _ in range(_CHASE_STEPS):
        node = chain[node]
        total += len(labels[node])
    return total


_HALVES = {"table": _table_kernel, "bigint": _bigint_kernel, "chase": _chase_kernel}


def _timed(halves: tuple[str, ...]) -> dict[str, float]:
    if "chase" in halves and not _chain:
        _build_chain()
    clock = time.perf_counter
    collecting = gc.isenabled()
    gc.disable()  # a collection would time the heap, not the host
    times = {}
    try:
        for half in halves:
            t0 = clock()
            _HALVES[half]()
            times[half] = clock() - t0
    finally:
        if collecting:
            gc.enable()
    return times


def sample(workload: str) -> float:
    """One reading of the host speed for *workload* (reference host =
    1.0)."""
    times = _timed(KERNELS.get(workload, DEFAULT_KERNELS))
    return sum(REF_S[half] / t for half, t in times.items()) / len(times)


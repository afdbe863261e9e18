"""Full-study macro-benchmarks: cold vs. warm, in process vs. fleet.

Times the whole reproduction (world construction + Q1-Q4 over all ten
apps + the §IV-D sweep) along the optimisation trajectory this repo
ships:

- **cold** — every process-wide cache cleared first: expanded-AES
  ciphers, CTR keystream blocks, CMAC subkeys, KDF derivations and the
  packager's segment cache. This is what a fresh interpreter pays.
- **warm** — the same run again with caches populated, the steady state
  for repeated studies in one process (benchmarks, CI, notebooks).
- **fleet** — the same campaign through :mod:`repro.fleet`: cold
  (every cell computed into the content-addressed store), warm
  resubmit (zero cells computed, pure cache hits) and a
  single-profile invalidation (exactly the world cell plus that app's
  audit cell recomputed). Cache-hit ratio and warm-vs-cold wall times
  land in the artifact too.

``test_bench_study_trajectory`` writes the measurements to
``BENCH_study.json`` at the repo root so the trajectory is a diffable
artifact, and asserts the warm and fleet artifacts are byte-identical
to the cold one.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import statistics
import tempfile
import time
from pathlib import Path

from repro.core.study import WideLeakStudy
from repro.fleet import Campaign, FleetScheduler
from repro.ott.registry import ALL_PROFILES
from repro.crypto.aes import cipher_for
from repro.obs.bus import ObservabilityBus
from repro.crypto.cmac import _subkeys_for
from repro.crypto.kdf import _session_key_material, derive_key
from repro.crypto.modes import _keystream_blocks
from repro.dash.packager import clear_segment_cache, segment_cache_stats

_ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_study.json"


def _clear_substrate_caches() -> None:
    """Reset every process-wide cache the fast paths rely on."""
    cipher_for.cache_clear()
    _keystream_blocks.cache_clear()
    _subkeys_for.cache_clear()
    derive_key.cache_clear()
    _session_key_material.cache_clear()
    clear_segment_cache()


def _timed_study() -> tuple[float, str]:
    """Construct the world and run the full study; (seconds, artifact)."""
    start = time.perf_counter()
    result = WideLeakStudy.with_default_apps().run()
    elapsed = time.perf_counter() - start
    assert result.table.matches_paper
    return elapsed, result.to_json()


def _timed_study_bus(enabled: bool) -> float:
    """Full sequential study on an explicitly enabled/disabled bus."""
    gc.collect()  # prior runs' span graphs must not tax this one
    start = time.perf_counter()
    study = WideLeakStudy.with_default_apps(
        obs=ObservabilityBus(enabled=enabled)
    )
    result = study.run()
    elapsed = time.perf_counter() - start
    assert result.table.matches_paper
    return elapsed


# Interleaved pairs behind each wall-clock gate. One study run is
# ~0.2-0.3 s on a shared 2-vCPU host, where a neighbour's burst moves a
# single run by 10-20% and single pair ratios read 0.88-1.24 for the
# same code; the median of per-pair ratios over fifteen pairs is not
# moved by a few such runs, as a min-of-3 shot was, and spreads about
# a quarter less than over nine.
_GATE_PAIRS = 15


def _obs_overhead() -> dict[str, float]:
    """Traced vs. untraced wall time, warm caches: the median of the
    per-pair ratios over ``_GATE_PAIRS`` interleaved pairs.

    Both runs of a pair see the same host state, and which one goes
    first alternates from pair to pair, so neither mode always gets the
    warmer slot.
    """
    untraced_runs: list[float] = []
    traced_runs: list[float] = []
    ratios: list[float] = []
    for pair in range(_GATE_PAIRS):
        if pair % 2:
            traced = _timed_study_bus(True)
            untraced = _timed_study_bus(False)
        else:
            untraced = _timed_study_bus(False)
            traced = _timed_study_bus(True)
        untraced_runs.append(untraced)
        traced_runs.append(traced)
        ratios.append(traced / untraced)
    return {
        "untraced_seconds": round(statistics.median(untraced_runs), 3),
        "traced_seconds": round(statistics.median(traced_runs), 3),
        "pairs": _GATE_PAIRS,
        "overhead_pct": round((statistics.median(ratios) - 1.0) * 100.0, 2),
    }


def _fleet_trajectory(expected_json: str) -> dict[str, object]:
    """Cold campaign -> warm resubmit -> single-profile invalidation.

    Runs the full ten-app campaign through the fleet scheduler three
    times against one content-addressed store: cold (every cell
    computed), warm (the acceptance criterion — zero cells computed,
    byte-identical artifact) and with exactly one profile's benign
    metadata bumped (recomputes only the world cell plus that app's
    audit cell). Records the wall times and the warm cache-hit ratio.
    """
    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as root:
        scheduler = FleetScheduler(root)
        campaign = Campaign(profiles=ALL_PROFILES)

        start = time.perf_counter()
        cold = scheduler.submit(campaign)
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        warm = scheduler.submit(campaign)
        warm_s = time.perf_counter() - start

        bumped = list(ALL_PROFILES)
        bumped[0] = dataclasses.replace(
            bumped[0], installs_millions=bumped[0].installs_millions + 1
        )
        start = time.perf_counter()
        invalidated = scheduler.submit(Campaign(profiles=tuple(bumped)))
        invalidated_s = time.perf_counter() - start

        # The whole point of the store: cold fleet assembly is
        # byte-identical to the in-process run, and the warm resubmit
        # recomputes nothing yet assembles the identical artifact.
        assert cold.result.to_json() == expected_json
        assert warm.result.to_json() == expected_json
        assert warm.stats["computed"] == 0
        assert warm.stats["cache_hits"] == warm.stats["cells"]
        # world + the bumped app's audit cell; everything else is a hit
        assert invalidated.stats["computed"] == 2

        return {
            "cold_seconds": round(cold_s, 3),
            "warm_seconds": round(warm_s, 3),
            "invalidated_seconds": round(invalidated_s, 3),
            "warm_pct_of_cold": round(warm_s / cold_s * 100.0, 1),
            "cells": cold.stats["cells"],
            "cold_computed": cold.stats["computed"],
            "warm_computed": warm.stats["computed"],
            "warm_cache_hits": warm.stats["cache_hits"],
            "warm_cache_hit_ratio": round(
                warm.stats["cache_hits"] / warm.stats["cells"], 3
            ),
            "invalidated_computed": invalidated.stats["computed"],
            "store": scheduler.store.stats(),
            "byte_identical_to_sequential": True,
            "note": (
                "full ten-app campaign through repro.fleet against one "
                "content-addressed store; warm resubmit is pure cache "
                "hits and assembles the byte-identical StudyResult"
            ),
        }


def _timed_attacks() -> float:
    start = time.perf_counter()
    outcomes = WideLeakStudy.with_default_apps().run_all_attacks()
    elapsed = time.perf_counter() - start
    assert any(
        o.recovered is not None and o.recovered.succeeded
        for o in outcomes.values()
    )
    return elapsed


def test_bench_study_trajectory(capsys):
    """Cold -> warm -> fleet, emitted as ``BENCH_study.json``."""
    _clear_substrate_caches()
    cold_s, cold_json = _timed_study()
    cold_cache = segment_cache_stats()

    warm_s, warm_json = _timed_study()
    warm_cache = segment_cache_stats()

    attacks_s = _timed_attacks()
    observability = _obs_overhead()
    fleet = _fleet_trajectory(cold_json)

    assert warm_json == cold_json
    assert observability["overhead_pct"] < 10.0, observability

    payload = {
        "artifact": "WideLeak full-study wall time (construction + Q1-Q4)",
        "trajectory": [
            {
                "phase": "sequential-cold",
                "seconds": round(cold_s, 3),
                "note": "all substrate caches cleared first",
            },
            {
                "phase": "sequential-warm",
                "seconds": round(warm_s, 3),
                "note": "cipher/keystream/KDF/segment caches populated",
            },
        ],
        "attacks": {
            "sequential_seconds": round(attacks_s, 3),
        },
        "observability": {
            **observability,
            "budget_pct": 10.0,
            "note": (
                "full sequential study on an enabled vs. disabled "
                "ObservabilityBus, warm caches, median per-pair ratio "
                f"over {_GATE_PAIRS} interleaved pairs (order alternating)"
            ),
        },
        "fleet": fleet,
        "packager_segment_cache": {
            "cold": cold_cache,
            "after_warm_run": warm_cache,
        },
        "speedup_warm_over_cold": round(cold_s / warm_s, 2),
    }
    _ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print(f"\n=== full-study trajectory (-> {_ARTIFACT.name}) ===")
        for point in payload["trajectory"]:
            print(f"{point['phase']:22s} {point['seconds']:>8.3f}s")
        print(f"{'attacks':22s} {attacks_s:>8.3f}s")
        print(f"warm-over-cold speedup: {payload['speedup_warm_over_cold']}x")
        print(
            f"observability overhead: {observability['overhead_pct']}% "
            f"(traced {observability['traced_seconds']}s / "
            f"untraced {observability['untraced_seconds']}s)"
        )
        print(
            "fleet: "
            f"cold {fleet['cold_seconds']}s / "
            f"warm {fleet['warm_seconds']}s "
            f"({fleet['warm_pct_of_cold']}% of cold, "
            f"hit ratio {fleet['warm_cache_hit_ratio']}) / "
            f"invalidated {fleet['invalidated_seconds']}s "
            f"({fleet['invalidated_computed']} cells recomputed)"
        )


def test_bench_obs_overhead_smoke():
    """CI smoke: the observability bus must cost < 10% of an untraced
    run. Standalone so the CI bench-smoke job can run just this."""
    _timed_study_bus(True)  # warm the substrate caches first
    observability = _obs_overhead()
    assert observability["overhead_pct"] < 10.0, observability


def test_bench_sequential_study_warm(benchmark):
    """Steady-state sequential run (caches warm from prior iterations)."""
    _timed_study()

    def run():
        return WideLeakStudy.with_default_apps().run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.table.matches_paper


def test_bench_packager_cold_vs_warm(benchmark):
    """World construction alone, segment cache cleared each round.

    Construction is dominated by packaging (CENC-encrypting every
    segment of every representation for ten services), so this isolates
    the segment cache's contribution.
    """

    def build_cold():
        clear_segment_cache()
        return WideLeakStudy.with_default_apps()

    study = benchmark.pedantic(build_cold, rounds=3, iterations=1)
    assert len(study.backends) == 10
    stats = segment_cache_stats()
    assert stats["misses"] > 0


def test_bench_packager_warm(benchmark):
    """World construction with the segment cache left warm."""
    WideLeakStudy.with_default_apps()

    def build_warm():
        return WideLeakStudy.with_default_apps()

    study = benchmark.pedantic(build_warm, rounds=3, iterations=1)
    assert len(study.backends) == 10

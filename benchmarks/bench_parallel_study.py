"""Full-study macro-benchmarks: sequential vs. parallel, cold vs. warm.

Times the whole reproduction (world construction + Q1-Q4 over all ten
apps + the §IV-D sweep) along the optimisation trajectory this repo
ships:

- **cold** — every process-wide cache cleared first: expanded-AES
  ciphers, CTR keystream blocks, CMAC subkeys, KDF derivations and the
  packager's segment cache. This is what a fresh interpreter pays.
- **warm** — the same run again with caches populated, the steady state
  for repeated studies in one process (benchmarks, CI, notebooks).
- **parallel** — the warm run fanned out over ``jobs=4`` worker
  threads via :class:`~repro.core.parallel.ParallelStudyRunner`.
- **fleet** — the same campaign through :mod:`repro.fleet`: cold
  (every cell computed into the content-addressed store), warm
  resubmit (zero cells computed, pure cache hits) and a
  single-profile invalidation (exactly the world cell plus that app's
  audit cell recomputed). Cache-hit ratio and warm-vs-cold wall times
  land in the artifact too.

``test_bench_study_trajectory`` writes the measurements to
``BENCH_study.json`` at the repo root so the trajectory is a diffable
artifact, and asserts the parallel artifact is byte-identical to the
sequential one.

Honest caveat, recorded in the artifact too: the pipeline is CPU-bound
pure Python, so under the GIL thread fan-out mostly overlaps cache
misses rather than adding cores — the wall-clock win comes from the
cached crypto fast paths; ``jobs`` buys isolation-checked concurrency
at roughly neutral cost.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import statistics
import tempfile
import time
from pathlib import Path

from repro.core.parallel import ParallelStudyRunner
from repro.core.study import WideLeakStudy
from repro.fleet import Campaign, FleetScheduler
from repro.ott.registry import ALL_PROFILES
from repro.crypto.aes import cipher_for
from repro.obs.bus import ObservabilityBus
from repro.obs.sampling import TraceSampler
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


def _timed_study(jobs: int = 1) -> tuple[float, str]:
    """Construct the world and run the full study; (seconds, artifact)."""
    start = time.perf_counter()
    runner = ParallelStudyRunner(WideLeakStudy.with_default_apps(), jobs=jobs)
    result = runner.run()
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


def _timed_study_sampled(denominator: int) -> tuple[float, str, int]:
    """Full sequential study at a 1/N sampling rate; returns
    (seconds, artifact JSON, spans dropped)."""
    gc.collect()
    start = time.perf_counter()
    study = WideLeakStudy.with_default_apps(
        sampler=TraceSampler(denominator)
    )
    result = study.run()
    elapsed = time.perf_counter() - start
    assert result.table.matches_paper
    return elapsed, result.to_json(), study.obs.sampling_snapshot()["dropped_spans"]


def _sampling_sweep() -> dict[str, object]:
    """Wall time across sampling rates (full, 1/4, 1/16, disabled) over
    ``_GATE_PAIRS`` interleaved rounds, warm caches; the gate reads the
    median per-round ratio of 1/4 to full tracing.

    Also asserts the exactness contract: the study artifact is
    byte-identical at every rate."""
    full_runs: list[float] = []
    one_in_4_runs: list[float] = []
    one_in_16_runs: list[float] = []
    disabled_runs: list[float] = []
    ratios: list[float] = []
    full_json = sampled_json_4 = sampled_json_16 = ""
    dropped_4 = dropped_16 = 0
    for round_index in range(_GATE_PAIRS):
        if round_index % 2:
            one_in_4, sampled_json_4, dropped_4 = _timed_study_sampled(4)
            full, full_json, _zero = _timed_study_sampled(1)
        else:
            full, full_json, _zero = _timed_study_sampled(1)
            one_in_4, sampled_json_4, dropped_4 = _timed_study_sampled(4)
        full_runs.append(full)
        one_in_4_runs.append(one_in_4)
        ratios.append(one_in_4 / full)
        seconds, sampled_json_16, dropped_16 = _timed_study_sampled(16)
        one_in_16_runs.append(seconds)
        disabled_runs.append(_timed_study_bus(False))
    assert sampled_json_4 == full_json
    assert sampled_json_16 == full_json
    assert dropped_16 >= dropped_4 > 0
    return {
        "full_seconds": round(statistics.median(full_runs), 3),
        "one_in_4_seconds": round(statistics.median(one_in_4_runs), 3),
        "one_in_16_seconds": round(statistics.median(one_in_16_runs), 3),
        "disabled_seconds": round(statistics.median(disabled_runs), 3),
        "one_in_4_over_full": round(statistics.median(ratios), 4),
        "one_in_4_dropped_spans": dropped_4,
        "one_in_16_dropped_spans": dropped_16,
        "artifact_byte_identical_at_all_rates": True,
        "gate_tolerance_pct": 10.0,
        "note": (
            "full sequential study per head-sampling rate, warm caches, "
            f"medians of {_GATE_PAIRS} interleaved rounds; the gate reads "
            "the median per-round 1/4-over-full ratio; counters and "
            "StudyResult.to_json() byte-identical at every rate"
        ),
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


def _timed_attacks(jobs: int = 1) -> float:
    start = time.perf_counter()
    runner = ParallelStudyRunner(WideLeakStudy.with_default_apps(), jobs=jobs)
    outcomes = runner.run_all_attacks()
    elapsed = time.perf_counter() - start
    assert any(
        o.recovered is not None and o.recovered.succeeded
        for o in outcomes.values()
    )
    return elapsed


def test_bench_study_trajectory(capsys):
    """Cold -> warm -> parallel, emitted as ``BENCH_study.json``."""
    _clear_substrate_caches()
    cold_s, cold_json = _timed_study(jobs=1)
    cold_cache = segment_cache_stats()

    warm_s, warm_json = _timed_study(jobs=1)
    warm_cache = segment_cache_stats()

    parallel_s, parallel_json = _timed_study(jobs=4)
    attacks_seq_s = _timed_attacks(jobs=1)
    attacks_par_s = _timed_attacks(jobs=4)
    observability = _obs_overhead()
    sampling_sweep = _sampling_sweep()
    fleet = _fleet_trajectory(cold_json)

    assert warm_json == cold_json
    assert parallel_json == cold_json
    assert observability["overhead_pct"] < 10.0, observability
    # Recording fewer spans must not cost more than recording them all.
    # Sampled runs still observe every duration (the exactness
    # contract), so the true delta is near zero; the 10% tolerance —
    # the same budget the obs-overhead gate uses — absorbs the ±7-10%
    # round-to-round scheduler noise measured in this container.
    assert sampling_sweep["one_in_4_over_full"] <= 1.10, sampling_sweep

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
            {
                "phase": "parallel-jobs4-warm",
                "seconds": round(parallel_s, 3),
                "note": "ThreadPoolExecutor fan-out, byte-identical output",
            },
        ],
        "attacks": {
            "sequential_seconds": round(attacks_seq_s, 3),
            "parallel_jobs4_seconds": round(attacks_par_s, 3),
        },
        "observability": {
            **observability,
            "budget_pct": 10.0,
            "note": (
                "full sequential study on an enabled vs. disabled "
                "ObservabilityBus, warm caches, median per-pair ratio "
                f"over {_GATE_PAIRS} interleaved pairs (order alternating)"
            ),
            "sampling_sweep": sampling_sweep,
        },
        "fleet": fleet,
        "packager_segment_cache": {
            "cold": cold_cache,
            "after_warm_run": warm_cache,
        },
        "speedup_warm_over_cold": round(cold_s / warm_s, 2),
        "parallel_matches_sequential": True,
        "caveat": (
            "CPU-bound pure Python under the GIL: the speedup comes from "
            "the cached crypto fast paths; jobs>1 provides overlap and an "
            "isolation check, not core scaling"
        ),
    }
    _ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print(f"\n=== full-study trajectory (-> {_ARTIFACT.name}) ===")
        for point in payload["trajectory"]:
            print(f"{point['phase']:22s} {point['seconds']:>8.3f}s")
        print(
            f"{'attacks seq/par':22s} {attacks_seq_s:>8.3f}s /"
            f" {attacks_par_s:.3f}s"
        )
        print(f"warm-over-cold speedup: {payload['speedup_warm_over_cold']}x")
        print(
            f"observability overhead: {observability['overhead_pct']}% "
            f"(traced {observability['traced_seconds']}s / "
            f"untraced {observability['untraced_seconds']}s)"
        )
        print(
            "sampling sweep: "
            f"full {sampling_sweep['full_seconds']}s / "
            f"1-in-4 {sampling_sweep['one_in_4_seconds']}s / "
            f"1-in-16 {sampling_sweep['one_in_16_seconds']}s / "
            f"disabled {sampling_sweep['disabled_seconds']}s"
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


def test_bench_sampling_overhead_smoke():
    """CI smoke: sampling at 1/4 must not be slower than full tracing
    (median per-round ratio over interleaved rounds; 10% tolerance for
    scheduler noise), and the study artifact must stay byte-identical
    at every rate — asserted inside the sweep. Standalone so the CI
    profile-smoke job can run just this gate."""
    _timed_study_bus(True)  # warm the substrate caches first
    sweep = _sampling_sweep()
    assert sweep["one_in_4_over_full"] <= 1.10, sweep


def test_bench_sequential_study_warm(benchmark):
    """Steady-state sequential run (caches warm from prior iterations)."""
    elapsed, _ = _timed_study(jobs=1)
    del elapsed

    def run():
        return ParallelStudyRunner(
            WideLeakStudy.with_default_apps(), jobs=1
        ).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.table.matches_paper


def test_bench_parallel_study_jobs4(benchmark):
    """Steady-state jobs=4 run; asserts Table I still matches."""

    def run():
        return ParallelStudyRunner(
            WideLeakStudy.with_default_apps(), jobs=4
        ).run()

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

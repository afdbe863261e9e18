"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every measurement happens in a fresh
interpreter (``perfbench/child.py``, with ``PYTHONPATH=src``). With
``--trace 0`` the run sets the workload up ``SETUP_SAMPLES`` times,
times one closed loop in as many parts, one after each set-up, and
reports the end-to-end metrics of ``BENCHMARK.json``. With
``--trace 1`` it reports the per-layer metrics, read from a traced
window that follows the untraced one. Times are scaled to the
reference host by the host speed that ``perfbench/speed.py`` reads
around each set-up and each stretch of the loop.

Every metric is printed by name with its unit and sample count, then
the last line is the JSON result. Any failed correctness check makes
the exit code nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import speed  # noqa: E402

RUNS = ROOT / "perfbench" / ".runs"
CHILD = ROOT / "perfbench" / "child.py"
# Set-ups per untraced run; setup_s is their median.
SETUP_SAMPLES = 3
# The whole run must end within 180 s.
DEADLINE_S = 170.0
# Kernel runs per host-speed reading around a set-up.
SPEED_SAMPLES = 3


class ChildFailed(RuntimeError):
    pass


class Child:
    """One child interpreter, driven over its stdin and stdout."""

    def __init__(self, args: list[str], deadline: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.args = args
        self.ready_s: float | None = None
        self.result: dict | None = None
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()

    def read_until(self, token: str) -> None:
        for line in self.proc.stdout:
            if line.startswith("SPEED?"):
                self.proc.stdin.write(f"{speed.sample(self.args[0])!r}\n")
                self.proc.stdin.flush()
            elif line.startswith("READY"):
                self.ready_s = time.perf_counter() - self.started
            elif line.startswith("RESULT "):
                self.result = json.loads(line[len("RESULT "):])
            elif not line.startswith("PAUSE"):
                sys.stdout.write(line)
            if line.startswith(token):
                return
        raise ChildFailed(
            f"child {' '.join(self.args)} exited with code {self.proc.wait()}"
        )

    def resume(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()

    def close(self, finished: bool) -> int:
        """Reap the child: give a *finished* one a moment to exit, kill
        any other."""
        self.timer.cancel()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10 if finished else 0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        shutil.rmtree(RUNS / f"fleet-{self.proc.pid}", ignore_errors=True)
        return self.proc.returncode


def host_speed(workload: str) -> float:
    return statistics.median(speed.sample(workload) for _ in range(SPEED_SAMPLES))


def setup_sample(args: list[str], deadline: float) -> float:
    """Set-up time of a fresh child, at reference host speed: scaled
    by the host speed read just before it starts and just after it
    ends."""
    before = host_speed(args[0])
    child = Child(args + ["setup", "1"], deadline)
    finished = False
    try:
        child.read_until("READY")
        finished = True
    finally:
        code = child.close(finished)
    if code != 0:
        raise ChildFailed(f"set-up child exited with code {code}")
    return child.ready_s * 0.5 * (before + host_speed(args[0]))


def measure(args: list[str], trace: int, deadline: float) -> tuple[list[float], dict]:
    """Run the measuring child; return (set-up samples, its result).

    Untraced, the timed window is cut into SETUP_SAMPLES parts with a
    set-up sample between each two, so the window is spread over the
    whole run and one slow spell of the machine lands in only a part
    of it."""
    chunks = 1 if trace else SETUP_SAMPLES
    before = host_speed(args[0])
    child = Child(args + ["main", str(chunks)], deadline)
    finished = False
    try:
        child.read_until("READY")
        # The child now waits for its first go: the host is quiet.
        setups = [child.ready_s * 0.5 * (before + host_speed(args[0]))]
        for chunk in range(chunks):
            if chunk:
                setups.append(setup_sample(args, deadline))
            child.resume()
            child.read_until("PAUSE")
        child.read_until("RESULT")
        finished = True
    finally:
        code = child.close(finished)
    if code != 0:
        raise ChildFailed(f"measuring child exited with code {code}")
    return setups, child.result


def code_digest() -> str:
    """Digest of the program and benchmark sources: repeat counts are
    compared only between runs of identical code."""
    digest = hashlib.sha256()
    for pattern in ("src/**/*.py", "perfbench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check_repeat(workload: str, seed: int, seconds: int, counts: dict) -> str | None:
    """Counts that are functions of the seed alone (hit ratios, grants,
    frames, cells, bytes) must repeat exactly across runs of one seed."""
    path = RUNS / f"repeat-{workload}-seed{seed}-{seconds}s.json"
    record = {"code": code_digest(), "counts": counts}
    if path.exists():
        previous = json.loads(path.read_text())
        if previous["code"] == record["code"] and previous["counts"] != counts:
            changed = sorted(
                k for k in counts if counts[k] != previous["counts"].get(k)
            )
            return f"counts differ from an earlier run of seed {seed}: {changed}"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # Unwind on SIGTERM too, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # One CPU for this process and every child: the host-speed kernel
    # then reads the CPU the measured ops run on.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    RUNS.mkdir(parents=True, exist_ok=True)

    child_args = [args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    try:
        setups, result = measure(child_args, args.trace, deadline)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    errors = list(result["errors"])
    repeat_error = check_repeat(args.workload, args.seed, args.seconds, result["repeat"])
    if repeat_error is not None:
        errors.append(repeat_error)

    if args.trace:
        declared = spec["per_layer"]
        measured = result["layers"]
    else:
        declared = spec["end_to_end"]
        measured = dict(result["end_to_end"])
        measured["setup_s"] = (statistics.median(setups), "s", len(setups))
        measured["peak_rss_mb"] = (result["peak_rss_mb"], "MB", 1)

    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} ops={result['ops']} "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    for name, (value, unit, samples) in {**measured, **result.get("raw", {})}.items():
        print(f"  {name:34s} {value:14.4f} {unit:8s} n={samples}")
    for name, value in sorted(result["repeat"].items()):
        print(f"  repeat {name:27s} {value}")
    for error in errors:
        print(f"  FAILED {error}")

    metrics = {}
    for metric in declared:
        value, unit, _ = measured[metric["name"]]
        if unit != metric["unit"]:
            errors.append(f"{metric['name']}: unit {unit} != {metric['unit']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = not errors and result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

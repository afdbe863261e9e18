"""The fleet scheduler: persistent queue, worker processes, resume.

Everything the scheduler knows lives on the filesystem, under
``<root>/campaigns/<campaign_id>/``::

    campaign.json          the campaign manifest (rebuildable Campaign)
    queue/<cell>.json      pending tickets, one shared queue
    claimed/w<i>/<cell>.json   tickets a worker is executing
    done/<cell>.json       completion markers (the checkpoint log)
    result.json            the assembled StudyResult artifact

State transitions are single atomic ``os.rename``/``os.replace`` calls,
so a ``kill -9`` at any instant leaves the campaign in a state
:meth:`FleetScheduler.resume` can reconcile: *done* cells stay done,
*claimed* tickets of dead workers are re-queued with one more attempt
and an exponential backoff, *queued* tickets are untouched. Temp files
never carry a ``.json`` suffix, so the ``*.json`` scans (claims, done
counts, status) cannot observe a half-written ticket; any debris a
crash left behind is swept on the next submit/resume.

Workers are **processes** (``--jobs N``), the repo's one parallel
engine: each one builds its own :class:`~repro.core.study.WideLeakStudy`
world and boots a fresh :class:`~repro.core.study.DeviceSession` per
cell, so no cell sees device state another cell left behind. Every
worker claims the first due ticket of the sorted shared queue by
renaming it into its own ``claimed/`` directory; the rename is the
lock, so two workers can never hold the same ticket, and an idle
worker simply takes the next one.

Byte-identity contract
----------------------

The assembled :class:`~repro.core.study.StudyResult` must equal —
byte-for-byte — what ``WideLeakStudy(profiles).run().to_json()``
produces, whether every cell was computed cold, served from the store,
or recovered across a crash. Two rules make this hold:

- the **world cell** persists the deterministic counters world
  construction emits (packaging, provisioning); every audit cell
  persists its own :class:`~repro.core.study.DeviceSession` bus
  counters. Their sum is exactly the sequential run's counter totals
  (counters add, and each cell's are a function of its inputs alone);
- assembly replays those counters onto a **fresh** bus and builds the
  result from the persisted artifacts. Fleet telemetry (spans, retry /
  cache-hit counters) lives on a *separate* bus exposed via
  :attr:`FleetOutcome.obs`, so ``repro profile`` and ``repro trace``
  work on fleet runs without ever contaminating the artifact.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.report import TableOne
from repro.core.study import (
    AppCellArtifact,
    AttackCellArtifact,
    DeviceSession,
    StudyResult,
    WideLeakStudy,
)
from repro.fleet.job import (
    QUESTION_ATTACK,
    QUESTION_AUDIT,
    QUESTION_WORLD,
    Campaign,
    CellSpec,
)
from repro.fleet.store import ResultStore
from repro.obs.bus import ObservabilityBus
from repro.ott.registry import profile_by_name

__all__ = ["FleetError", "FleetOutcome", "FleetScheduler"]

# A cell may be attempted this many times (first try + retries) before
# the campaign is declared failed.
MAX_ATTEMPTS = 4

# A worker with nothing claimable for this long assumes the campaign is
# wedged elsewhere and exits; the monitor (or a resume) recovers.
_IDLE_TIMEOUT_S = 60.0

_FAULT_EXIT_CODE = 23


class FleetError(RuntimeError):
    """A campaign cannot make progress (cell out of retries, lost data)."""


class _InjectedCrash(Exception):
    """In-process stand-in for a worker death (inline ``jobs=1`` mode)."""


def _backoff(attempt: int) -> float:
    """Exponential backoff before re-running a cell whose worker died."""
    return min(1.0, 0.05 * 2 ** max(0, attempt - 1))


# Disambiguates several writes to the same target from one process
# (controller + inline worker share a pid).
_TMP_SEQ = itertools.count()


def _write_text_atomic(path: Path, text: str) -> None:
    # The temp name must NOT end in ".json": every queue/claimed/done
    # scan globs "*.json", and a kill -9 between write and replace must
    # leave only debris those scans (claims, requeues, done counts)
    # never see. _sweep_tmp clears it on resume.
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.tmp-{os.getpid()}-{next(_TMP_SEQ)}"
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_json_atomic(path: Path, payload: dict) -> None:
    _write_text_atomic(path, json.dumps(payload, sort_keys=True))


def _sweep_tmp(campaign_dir: Path) -> None:
    """Delete temp-file debris a kill -9 mid-write left behind.

    Runs while the controller is the only process touching the
    campaign (before workers spawn). Both the current naming scheme
    (``<name>.tmp-<pid>-<n>``) and the dot-prefixed one of earlier
    revisions (``.tmp-<pid>-<name>``) are swept.
    """
    for pattern in ("*.tmp-*", ".tmp-*"):
        for stale in campaign_dir.rglob(pattern):
            stale.unlink(missing_ok=True)


def _read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def _enqueue(
    campaign_dir: Path, cell: CellSpec, *, attempt: int, not_before: float = 0.0
) -> None:
    _write_json_atomic(
        campaign_dir / "queue" / f"{cell.cell_id}.json",
        {"cell_id": cell.cell_id, "attempt": attempt, "not_before": not_before},
    )


def _requeue_claims(campaign: Campaign, campaign_dir: Path, worker_id: str) -> None:
    """Put the tickets a dead worker held back on the queue.

    *worker_id* names one worker's ``claimed/`` directory, or ``"*"`` for
    every worker's. A claim whose cell already has a done marker is
    dropped; any other is re-queued with one more attempt and a backoff
    window, and a cell past :data:`MAX_ATTEMPTS` fails the campaign.
    """
    done_dir = campaign_dir / "done"
    for claimed in sorted((campaign_dir / "claimed").glob(f"{worker_id}/*.json")):
        ticket = _read_json(claimed) or {}
        claimed.unlink(missing_ok=True)
        if (done_dir / claimed.name).exists():
            continue
        attempt = int(ticket.get("attempt", 1)) + 1
        if attempt > MAX_ATTEMPTS:
            raise FleetError(
                f"cell {claimed.stem!r} failed {MAX_ATTEMPTS} attempts; "
                "giving up on the campaign"
            )
        _enqueue(
            campaign_dir,
            campaign.cell_by_id(claimed.stem),
            attempt=attempt,
            # lint: allow(CLK003) retry backoff deadline is scheduling state, never artifact data
            not_before=time.time() + _backoff(attempt),
        )


# ---------------------------------------------------------------------------
# Cell execution (runs inside a worker, inline or in a child process)
# ---------------------------------------------------------------------------


class _CellExecutor:
    """Builds the study world lazily, runs one cell at a time.

    The world — network, authority, ten backends, shared devices — is
    built once per worker and reused across its cells; each audit or
    attack cell still gets a fresh :class:`DeviceSession`, so its result
    does not depend on which cells ran before it. The deterministic
    counters world construction emits are captured immediately, before
    any cell runs, so the ``world`` cell's payload is identical no
    matter which worker happens to execute it.
    """

    def __init__(self, campaign: Campaign):
        self.campaign = campaign
        self._study: WideLeakStudy | None = None
        self._world_counters: dict[str, int] | None = None

    def _ensure_world(self) -> WideLeakStudy:
        if self._study is None:
            study = WideLeakStudy(profiles=self.campaign.profiles)
            self._world_counters = dict(study.obs.metrics.counters())
            self._study = study
        return self._study

    def compute(self, cell: CellSpec) -> dict:
        study = self._ensure_world()
        if cell.question == QUESTION_WORLD:
            return {"question": QUESTION_WORLD, "counters": self._world_counters}
        profile = self.campaign.profile_for(cell)
        session = DeviceSession(study)
        if cell.question == QUESTION_AUDIT:
            result = study.study_app(
                profile,
                l1_device=session.l1_device,
                legacy_device=session.legacy_device,
            )
            return {
                "question": QUESTION_AUDIT,
                "artifact": AppCellArtifact.from_result(result).to_dict(),
                "counters": dict(session.obs.metrics.counters()),
            }
        if cell.question == QUESTION_ATTACK:
            outcome = study.run_attack(
                profile, legacy_device=session.legacy_device
            )
            return {
                "question": QUESTION_ATTACK,
                "artifact": AttackCellArtifact.from_result(outcome).to_dict(),
            }
        raise FleetError(f"unknown cell question {cell.question!r}")


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------


class _Worker:
    """One queue consumer: claim → execute → checkpoint."""

    def __init__(
        self,
        campaign: Campaign,
        store: ResultStore,
        campaign_dir: Path,
        worker_id: str,
        *,
        inline: bool = False,
    ):
        self.campaign = campaign
        self.store = store
        self.dir = campaign_dir
        self.worker_id = worker_id
        self.inline = inline
        self.total = len(campaign.cells())
        self.executor = _CellExecutor(campaign)
        self.claimed_dir = campaign_dir / "claimed" / worker_id
        self.claimed_dir.mkdir(parents=True, exist_ok=True)

    def _done_count(self) -> int:
        return len(list((self.dir / "done").glob("*.json")))

    def _claim(self) -> tuple[Path, dict] | None:
        """Rename the first due ticket of the shared queue into ours."""
        # lint: allow(CLK003) backoff deadline is scheduling state, never artifact data
        now = time.time()
        for ticket_path in sorted((self.dir / "queue").glob("*.json")):
            ticket = _read_json(ticket_path)
            if ticket is None or ticket.get("not_before", 0.0) > now:
                continue
            target = self.claimed_dir / ticket_path.name
            try:
                os.rename(ticket_path, target)
            except FileNotFoundError:
                continue  # another worker won the rename race
            # Re-read: the ticket may have been re-queued under the same
            # name between our read and the rename.
            return target, _read_json(target) or ticket
        return None

    # -- execution ---------------------------------------------------------

    def _execute(self, claimed_path: Path, ticket: dict) -> None:
        cell = self.campaign.cell_by_id(ticket["cell_id"])
        done_path = self.dir / "done" / f"{cell.cell_id}.json"
        if done_path.exists():  # raced with a spurious requeue
            os.unlink(claimed_path)
            return
        attempt = int(ticket.get("attempt", 1))
        if attempt <= self.campaign.faults.get(cell.cell_id, 0):
            # Test hook: die exactly like a kill -9 mid-cell.
            if self.inline:
                raise _InjectedCrash(cell.cell_id)
            os._exit(_FAULT_EXIT_CODE)
        # lint: allow(CLK003) per-cell wall time is fleet telemetry, never artifact data
        started = time.perf_counter()
        payload = self.store.get(cell.key)
        computed = payload is None
        if computed:
            payload = self.executor.compute(cell)
            self.store.put(cell.key, payload)
        _write_json_atomic(
            done_path,
            {
                "cell_id": cell.cell_id,
                "key": cell.key,
                "computed": computed,
                "cache_hit": not computed,
                "attempt": attempt,
                "worker": self.worker_id,
                # lint: allow(CLK003) same telemetry stopwatch as above
                "seconds": time.perf_counter() - started,
            },
        )
        os.unlink(claimed_path)

    def run(self) -> int:
        """Consume until every cell is done; 3 on idle timeout."""
        # lint: allow(CLK003) idle-timeout watchdog for wedged campaigns
        last_progress = time.monotonic()
        while True:
            if self._done_count() >= self.total:
                return 0
            claim = self._claim()
            if claim is None:
                # lint: allow(CLK003) idle-timeout watchdog read
                if time.monotonic() - last_progress > _IDLE_TIMEOUT_S:
                    return 3
                time.sleep(0.02)
                continue
            self._execute(*claim)
            # lint: allow(CLK003) idle-timeout watchdog reset
            last_progress = time.monotonic()


def _worker_entry(
    root: str, campaign_id: str, worker_id: str, max_store_bytes: int | None
) -> None:
    """Child-process entry point: rebuild state from disk and consume."""
    scheduler = FleetScheduler(root, max_store_bytes=max_store_bytes)
    campaign = scheduler.load_campaign(campaign_id)
    worker = _Worker(
        campaign,
        scheduler.store,
        scheduler.campaign_dir(campaign),
        worker_id,
    )
    sys.exit(worker.run())


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------


@dataclass
class FleetOutcome:
    """What one submit/resume produced."""

    result: StudyResult
    attacks: dict[str, AttackCellArtifact]
    stats: dict[str, int]
    campaign_dir: Path
    # Fleet telemetry bus (spans + retry/cache counters) — kept
    # separate from result.obs so the artifact stays byte-identical.
    obs: ObservabilityBus = field(repr=False)


class FleetScheduler:
    """Persistent campaign scheduler over a content-addressed store."""

    def __init__(self, root: str | Path, *, max_store_bytes: int | None = None):
        self.root = Path(root)
        self.store = ResultStore(self.root / "store", max_bytes=max_store_bytes)
        (self.root / "campaigns").mkdir(parents=True, exist_ok=True)

    # -- layout ------------------------------------------------------------

    def campaign_dir(self, campaign: Campaign | str) -> Path:
        campaign_id = (
            campaign if isinstance(campaign, str) else campaign.campaign_id
        )
        return self.root / "campaigns" / campaign_id

    def load_campaign(self, campaign_id: str) -> Campaign:
        manifest = _read_json(self.campaign_dir(campaign_id) / "campaign.json")
        if manifest is None:
            raise FleetError(f"no campaign {campaign_id!r} under {self.root}")
        return Campaign.from_manifest(manifest)

    # -- submit ------------------------------------------------------------

    def submit(
        self,
        campaign: Campaign,
        *,
        jobs: int = 1,
        obs: ObservabilityBus | None = None,
    ) -> FleetOutcome:
        """Run (or re-run) a campaign and assemble its artifact.

        Warm resubmits reconcile every cell against the store and the
        done log first, so an unchanged campaign computes nothing and
        assembly is pure store reads.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if jobs > 1:
            self._require_registry_profiles(campaign)
        telemetry = obs if obs is not None else ObservabilityBus()
        campaign_dir = self.campaign_dir(campaign)
        for sub in ("queue", "claimed", "done"):
            (campaign_dir / sub).mkdir(parents=True, exist_ok=True)
        _sweep_tmp(campaign_dir)
        _write_json_atomic(
            campaign_dir / "campaign.json", campaign.to_manifest()
        )
        with telemetry.span(
            "fleet.campaign", campaign=campaign.campaign_id, jobs=jobs
        ):
            # An eviction racing between a cell's done marker and
            # assembly re-opens exactly that cell; one extra round
            # recomputes it.
            for round_ in range(2):
                with telemetry.span("fleet.reconcile"):
                    pending = self._reconcile(
                        campaign, campaign_dir, refresh_markers=round_ == 0
                    )
                if pending:
                    with telemetry.span("fleet.execute", pending=pending):
                        self._execute(campaign, campaign_dir, jobs)
                missing = self._missing_keys(campaign)
                if not missing:
                    break
                for cell in missing:
                    (campaign_dir / "done" / f"{cell.cell_id}.json").unlink(
                        missing_ok=True
                    )
            else:
                raise FleetError(
                    "store keeps evicting campaign cells before assembly; "
                    "raise the store bound (repro fleet gc --max-bytes)"
                )
            stats = self._stats(campaign, campaign_dir, jobs)
            for name in ("computed", "cache_hits", "retries"):
                telemetry.count(f"fleet.{name}", stats[name])
            telemetry.count("fleet.cells.total", stats["cells"])
            with telemetry.span("fleet.assemble"):
                outcome = self._assemble(
                    campaign, campaign_dir, stats, telemetry
                )
        return outcome

    def resume(
        self,
        campaign_id: str | None = None,
        *,
        jobs: int = 1,
        obs: ObservabilityBus | None = None,
    ) -> FleetOutcome:
        """Pick an interrupted campaign back up from its checkpoint."""
        if campaign_id is None:
            open_ids = [
                entry["campaign_id"]
                for entry in self.status()
                if entry["state"] != "complete"
            ]
            if not open_ids:
                raise FleetError("no interrupted campaign to resume")
            if len(open_ids) > 1:
                raise FleetError(
                    "multiple interrupted campaigns: "
                    + ", ".join(open_ids)
                    + " — pass --campaign"
                )
            campaign_id = open_ids[0]
        return self.submit(self.load_campaign(campaign_id), jobs=jobs, obs=obs)

    # -- status / gc -------------------------------------------------------

    def status(self) -> list[dict[str, object]]:
        """One row per known campaign, from the on-disk checkpoint."""
        rows: list[dict[str, object]] = []
        for campaign_dir in sorted((self.root / "campaigns").iterdir()):
            manifest = _read_json(campaign_dir / "campaign.json")
            if manifest is None:
                continue
            total = len(manifest.get("cells", []))
            done = len(list((campaign_dir / "done").glob("*.json")))
            queued = len(list((campaign_dir / "queue").glob("*.json")))
            claimed = len(list((campaign_dir / "claimed").glob("w*/*.json")))
            rows.append(
                {
                    "campaign_id": manifest.get(
                        "campaign_id", campaign_dir.name
                    ),
                    "apps": manifest.get("profiles", []),
                    "cells": total,
                    "done": done,
                    "queued": queued,
                    "claimed": claimed,
                    "state": "complete" if done >= total else "interrupted",
                    "has_result": (campaign_dir / "result.json").is_file(),
                }
            )
        return rows

    def gc(self, max_bytes: int | None = None) -> dict[str, int]:
        """Evict LRU store objects down to the bound; report store stats."""
        evicted = self.store.gc(max_bytes)
        return {"evicted": evicted, **self.store.stats()}

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _require_registry_profiles(campaign: Campaign) -> None:
        # Child processes rebuild the campaign from its manifest, which
        # names profiles; ad-hoc profile objects can't cross that
        # boundary, so multiprocess mode insists on registry profiles.
        for profile in campaign.profiles:
            try:
                profile_by_name(profile.name)
            except KeyError:
                raise FleetError(
                    f"profile {profile.name!r} is not in the registry; "
                    "multiprocess campaigns (--jobs > 1) need registry "
                    "profiles — use jobs=1 for ad-hoc profiles"
                ) from None

    def _reconcile(
        self,
        campaign: Campaign,
        campaign_dir: Path,
        *,
        refresh_markers: bool = False,
    ) -> int:
        """Bring queue/claimed/done into agreement with the store.

        Returns how many cells still need a worker. No worker runs
        while this does, so every claim belongs to a dead one and goes
        back on the queue. With ``refresh_markers`` (the first round of
        a submission), done markers inherited from earlier runs are
        rewritten as cache hits, so stats report what *this* invocation
        computed.
        """
        _requeue_claims(campaign, campaign_dir, "*")
        done_dir = campaign_dir / "done"
        queued_ids = {p.stem for p in (campaign_dir / "queue").glob("*.json")}
        pending = 0
        for cell in campaign.cells():
            done_path = done_dir / f"{cell.cell_id}.json"
            marker = _read_json(done_path)
            if marker is not None and self.store.contains(marker["key"]):
                if refresh_markers:
                    _write_json_atomic(
                        done_path, _cache_hit_marker(cell)
                    )
                continue
            if marker is not None:
                done_path.unlink(missing_ok=True)  # store evicted it
            if cell.cell_id in queued_ids:
                pending += 1
                continue
            if self.store.contains(cell.key):
                # Warm cell: checkpoint it directly, no worker round-trip.
                _write_json_atomic(done_path, _cache_hit_marker(cell))
                continue
            _enqueue(campaign_dir, cell, attempt=1)
            pending += 1
        return pending

    def _execute(
        self, campaign: Campaign, campaign_dir: Path, jobs: int
    ) -> None:
        if jobs == 1:
            self._execute_inline(campaign, campaign_dir)
        else:
            self._execute_processes(campaign, campaign_dir, jobs)

    def _execute_inline(self, campaign: Campaign, campaign_dir: Path) -> None:
        worker = _Worker(
            campaign, self.store, campaign_dir, "w0", inline=True
        )
        while True:
            try:
                code = worker.run()
            except _InjectedCrash:
                _requeue_claims(campaign, campaign_dir, "w0")
                continue
            if code != 0:
                raise FleetError(
                    f"inline worker gave up (exit {code}) with cells pending"
                )
            return

    def _execute_processes(
        self, campaign: Campaign, campaign_dir: Path, jobs: int
    ) -> None:
        ctx = multiprocessing.get_context()
        total = len(campaign.cells())
        done_dir = campaign_dir / "done"

        def spawn(worker_id: str):
            proc = ctx.Process(
                target=_worker_entry,
                args=(
                    str(self.root),
                    campaign.campaign_id,
                    worker_id,
                    self.store.max_bytes,
                ),
                name=f"fleet-{worker_id}",
            )
            proc.start()
            return proc

        procs = {f"w{i}": spawn(f"w{i}") for i in range(jobs)}
        try:
            while len(list(done_dir.glob("*.json"))) < total:
                for worker_id, proc in list(procs.items()):
                    if proc.is_alive():
                        continue
                    # Dead worker: put its claimed cells back on the
                    # queue with a retry, then give it a fresh process.
                    _requeue_claims(campaign, campaign_dir, worker_id)
                    if len(list(done_dir.glob("*.json"))) < total:
                        procs[worker_id] = spawn(worker_id)
                time.sleep(0.02)
        except BaseException:
            # A cell out of retries, or an interrupt: the survivors would
            # only leave on their idle watchdog, so stop them now.
            for proc in procs.values():
                proc.terminate()
            raise
        finally:
            for proc in procs.values():
                proc.join(timeout=_IDLE_TIMEOUT_S)
                if proc.is_alive():
                    proc.terminate()
                    proc.join()

    def _missing_keys(self, campaign: Campaign) -> list[CellSpec]:
        return [
            cell
            for cell in campaign.cells()
            if not self.store.contains(cell.key)
        ]

    def _stats(
        self, campaign: Campaign, campaign_dir: Path, jobs: int
    ) -> dict[str, int]:
        markers = [
            _read_json(path)
            for path in sorted((campaign_dir / "done").glob("*.json"))
        ]
        markers = [m for m in markers if m is not None]
        return {
            "cells": len(campaign.cells()),
            "computed": sum(1 for m in markers if m["computed"]),
            "cache_hits": sum(1 for m in markers if m["cache_hit"]),
            "retries": sum(max(0, m.get("attempt", 1) - 1) for m in markers),
            "workers": jobs,
        }

    def _assemble(
        self,
        campaign: Campaign,
        campaign_dir: Path,
        stats: dict[str, int],
        telemetry: ObservabilityBus,
    ) -> FleetOutcome:
        """Rebuild the StudyResult from stored cells, byte-identically.

        A fresh bus receives exactly the counters the sequential run's
        bus would hold (world construction + every app's session, in
        profile order); the table and per-app sections come from the
        persisted artifact projections — the same code path a live
        ``StudyResult`` serializes through.
        """
        cells = {cell.cell_id: cell for cell in campaign.cells()}
        bus = ObservabilityBus()

        def fetch(cell: CellSpec) -> dict:
            payload = self.store.get(cell.key)
            if payload is None:
                raise FleetError(
                    f"cell {cell.cell_id!r} vanished from the store "
                    "during assembly"
                )
            return payload

        for name, value in fetch(cells["world"])["counters"].items():
            bus.count(name, value)
        table = TableOne()
        artifacts: dict[str, AppCellArtifact] = {}
        for profile in campaign.profiles:
            payload = fetch(cells[f"audit-{profile.service}"])
            artifact = AppCellArtifact.from_dict(payload["artifact"])
            for name, value in payload["counters"].items():
                bus.count(name, value)
            artifacts[profile.name] = artifact
            table.add(artifact.table_row())
        result = StudyResult(table=table, obs=bus, cells=artifacts)

        attacks: dict[str, AttackCellArtifact] = {}
        if campaign.include_attacks:
            for profile in campaign.profiles:
                payload = fetch(cells[f"attack-{profile.service}"])
                attacks[profile.name] = AttackCellArtifact.from_dict(
                    payload["artifact"]
                )

        _write_text_atomic(campaign_dir / "result.json", result.to_json())
        if attacks:
            _write_json_atomic(
                campaign_dir / "attacks.json",
                {name: a.to_dict() for name, a in attacks.items()},
            )
        return FleetOutcome(
            result=result,
            attacks=attacks,
            stats=stats,
            campaign_dir=campaign_dir,
            obs=telemetry,
        )


def _cache_hit_marker(cell: CellSpec) -> dict:
    return {
        "cell_id": cell.cell_id,
        "key": cell.key,
        "computed": False,
        "cache_hit": True,
        "attempt": 1,
        "worker": "reconcile",
        "seconds": 0.0,
    }

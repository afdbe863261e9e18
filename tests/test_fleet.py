"""The fleet layer: job model, result store, scheduler, incremental re-runs.

The headline contract (the ISSUE's acceptance criteria): a warm
resubmit of an unchanged campaign computes zero cells, and every
assembly path — cold, warm, multiprocess, killed-and-resumed — produces
a ``StudyResult.to_json()`` byte-identical to the cold sequential run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.study import AttackCellArtifact, DeviceSession, WideLeakStudy
from repro.fleet import Campaign, FleetError, FleetScheduler, ResultStore
from repro.fleet.job import profile_fingerprint
from repro.ott.registry import ALL_PROFILES

REPO = Path(__file__).resolve().parent.parent

SMALL = ALL_PROFILES[:3]


def sequential_json(profiles) -> str:
    return WideLeakStudy(profiles=profiles).run().to_json()


# ---------------------------------------------------------------------------
# Job model
# ---------------------------------------------------------------------------


class TestJobModel:
    def test_cells_world_first_then_audits_in_profile_order(self):
        campaign = Campaign(profiles=SMALL)
        cells = campaign.cells()
        assert cells[0].cell_id == "world"
        assert [c.app for c in cells[1:]] == [p.name for p in SMALL]

    def test_attack_cells_included_on_request(self):
        ids = [c.cell_id for c in Campaign(profiles=SMALL, include_attacks=True).cells()]
        assert "attack-netflix" in ids

    def test_cache_keys_are_deterministic(self):
        a = {c.cell_id: c.key for c in Campaign(profiles=SMALL).cells()}
        b = {c.cell_id: c.key for c in Campaign(profiles=SMALL).cells()}
        assert a == b

    def test_profile_change_invalidates_exactly_that_apps_cells(self):
        base = {c.cell_id: c.key for c in Campaign(profiles=SMALL).cells()}
        bumped = (
            dataclasses.replace(
                SMALL[0], installs_millions=SMALL[0].installs_millions + 1
            ),
        ) + tuple(SMALL[1:])
        changed = {c.cell_id: c.key for c in Campaign(profiles=bumped).cells()}
        # The world key covers every fingerprint; the touched app's
        # audit key changes; the other audits stay warm.
        assert changed["world"] != base["world"]
        assert changed["audit-netflix"] != base["audit-netflix"]
        assert changed["audit-disneyplus"] == base["audit-disneyplus"]

    def test_seed_change_invalidates_everything(self):
        base = {c.cell_id: c.key for c in Campaign(profiles=SMALL).cells()}
        other = {c.cell_id: c.key for c in Campaign(profiles=SMALL, seed=1).cells()}
        assert all(base[cid] != other[cid] for cid in base)

    def test_fingerprint_sees_profile_internals(self):
        bumped = dataclasses.replace(
            SMALL[0], installs_millions=SMALL[0].installs_millions + 1
        )
        assert profile_fingerprint(SMALL[0]) != profile_fingerprint(bumped)

    def test_manifest_round_trip(self):
        campaign = Campaign(profiles=SMALL, seed=7, include_attacks=True)
        rebuilt = Campaign.from_manifest(campaign.to_manifest())
        assert rebuilt.campaign_id == campaign.campaign_id
        assert [c.key for c in rebuilt.cells()] == [c.key for c in campaign.cells()]


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 32, {"x": 1})
        assert store.get("ab" * 32) == {"x": 1}
        assert store.contains("ab" * 32)
        assert store.get("cd" * 32) is None

    def test_delete_and_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("aa" * 32, {"x": 1})
        store.put("bb" * 32, {"y": 2})
        assert store.delete("aa" * 32)
        assert not store.delete("aa" * 32)
        assert store.keys() == ("bb" * 32,)

    def test_objects_survive_a_new_store_instance(self, tmp_path):
        ResultStore(tmp_path).put("aa" * 32, {"x": 1})
        assert ResultStore(tmp_path).get("aa" * 32) == {"x": 1}

    def test_manifest_rebuilt_from_objects_after_corruption(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("aa" * 32, {"x": 1})
        (tmp_path / "manifest.json").write_text("{not json")
        fresh = ResultStore(tmp_path)
        assert fresh.get("aa" * 32) == {"x": 1}
        assert fresh.stats()["objects"] == 1

    def test_lru_eviction_drops_least_recently_used(self, tmp_path):
        payload = {"blob": "x" * 100}
        size = len(json.dumps(payload, indent=2, sort_keys=True).encode())
        store = ResultStore(tmp_path, max_bytes=3 * size)
        for index in range(3):
            store.put(f"{index:02d}" * 32, payload)
        store.get("00" * 32)  # refresh: 01 becomes the LRU entry
        store.put("03" * 32, payload)
        assert store.contains("00" * 32)
        assert not store.contains("01" * 32)
        assert store.stats()["evictions"] == 1

    def test_gc_honours_explicit_bound(self, tmp_path):
        store = ResultStore(tmp_path)
        for index in range(4):
            store.put(f"{index:02d}" * 32, {"blob": "x" * 100})
        evicted = store.gc(max_bytes=0)
        assert evicted == 4
        assert store.keys() == ()

    def test_concurrent_writers_never_tear_an_object(self, tmp_path):
        """Hammer one key from many threads over two store instances —
        every read must see one writer's complete payload."""
        stores = [ResultStore(tmp_path), ResultStore(tmp_path)]
        key = "ee" * 32
        errors: list[Exception] = []

        def writer(worker: int) -> None:
            try:
                for i in range(20):
                    stores[worker % 2].put(
                        key, {"worker": worker, "i": i, "pad": "y" * 50}
                    )
                    seen = stores[(worker + 1) % 2].get(key)
                    assert seen is not None and set(seen) == {"worker", "i", "pad"}
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert set(ResultStore(tmp_path).get(key)) == {"worker", "i", "pad"}

    def test_concurrent_manifest_updates_lose_no_entries(self, tmp_path):
        """Distinct keys written through two store instances (the
        worker-process shape: each holds its own manifest lock fd) must
        all land in manifest.json without waiting for a reconcile —
        last-replace-wins on the index would silently drop some."""
        stores = [ResultStore(tmp_path), ResultStore(tmp_path)]

        def writer(worker: int) -> None:
            for i in range(20):
                key = f"{worker:02d}{i:02d}".ljust(64, "0")
                stores[worker].put(key, {"worker": worker, "i": i})

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["entries"]) == 40


# ---------------------------------------------------------------------------
# Scheduler: cold / warm / invalidation
# ---------------------------------------------------------------------------


class TestDeviceSession:
    def test_device_session_mirrors_shared_serials(self):
        """A cell's session boots the same device identities as the
        study's shared pair, so the keybox authority resolves
        identically."""
        study = WideLeakStudy.with_default_apps()
        session = DeviceSession(study)
        assert session.l1_device.serial == study.l1_device.serial
        assert session.legacy_device.serial == study.legacy_device.serial
        assert session.l1_device.rooted and session.legacy_device.rooted


class TestIncrementalRuns:
    def test_cold_fleet_run_matches_sequential_byte_for_byte(self, tmp_path):
        outcome = FleetScheduler(tmp_path).submit(Campaign(profiles=SMALL))
        assert outcome.result.to_json() == sequential_json(SMALL)
        assert outcome.stats["computed"] == len(SMALL) + 1
        assert (outcome.campaign_dir / "result.json").is_file()

    def test_warm_resubmit_of_unchanged_campaign_computes_zero_cells(self, tmp_path):
        """The acceptance criterion, on the paper's full ten-app set."""
        scheduler = FleetScheduler(tmp_path)
        campaign = Campaign(profiles=ALL_PROFILES)
        cold = scheduler.submit(campaign)
        warm = scheduler.submit(Campaign(profiles=ALL_PROFILES))
        assert warm.stats["computed"] == 0
        assert warm.stats["cache_hits"] == len(ALL_PROFILES) + 1
        expected = sequential_json(ALL_PROFILES)
        assert cold.result.to_json() == expected
        assert warm.result.to_json() == expected

    def test_single_profile_invalidation_recomputes_only_its_cells(self, tmp_path):
        scheduler = FleetScheduler(tmp_path)
        scheduler.submit(Campaign(profiles=SMALL))
        bumped = (
            dataclasses.replace(
                SMALL[0], installs_millions=SMALL[0].installs_millions + 1
            ),
        ) + tuple(SMALL[1:])
        outcome = scheduler.submit(Campaign(profiles=bumped))
        # Exactly the world cell (covers all fingerprints) and the
        # touched app's audit recompute; the other audits stay warm.
        assert outcome.stats["computed"] == 2
        assert outcome.stats["cache_hits"] == len(SMALL) - 1
        assert outcome.result.to_json() == sequential_json(bumped)

    def test_multiprocess_run_is_byte_identical_and_drains_the_queue(
        self, tmp_path
    ):
        campaign = Campaign(profiles=SMALL)
        outcome = FleetScheduler(tmp_path).submit(campaign, jobs=2)
        assert outcome.result.to_json() == sequential_json(SMALL)
        assert outcome.stats["workers"] == 2
        campaign_dir = outcome.campaign_dir
        markers = sorted((campaign_dir / "done").glob("*.json"))
        assert [p.stem for p in markers] == sorted(
            c.cell_id for c in campaign.cells()
        )
        for path in markers:
            assert json.loads(path.read_text())["worker"] in {"w0", "w1"}
        assert not list((campaign_dir / "queue").iterdir())
        assert not list((campaign_dir / "claimed").glob("*/*"))

    def test_attack_cells_ride_along_without_touching_the_artifact(self, tmp_path):
        outcome = FleetScheduler(tmp_path).submit(
            Campaign(profiles=SMALL, include_attacks=True)
        )
        assert outcome.result.to_json() == sequential_json(SMALL)
        assert set(outcome.attacks) == {p.name for p in SMALL}
        assert outcome.attacks["Netflix"].device_model

    @pytest.fixture(scope="class")
    def sequential_attacks(self):
        return {
            name: AttackCellArtifact.from_result(result)
            for name, result in WideLeakStudy(profiles=SMALL)
            .run_all_attacks()
            .items()
        }

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_attack_cells_match_the_sequential_sweep(
        self, tmp_path, sequential_attacks, jobs
    ):
        """Attack cells run on fresh DeviceSessions, inline or in worker
        processes, yet recover exactly what the in-process sweep on the
        study's shared devices recovers: keys, notes, media."""
        outcome = FleetScheduler(tmp_path).submit(
            Campaign(profiles=SMALL, include_attacks=True), jobs=jobs
        )
        assert set(outcome.attacks) == set(sequential_attacks)
        for name, expected in sequential_attacks.items():
            assert outcome.attacks[name] == expected, name

    def test_fleet_telemetry_rides_a_separate_bus(self, tmp_path):
        outcome = FleetScheduler(tmp_path).submit(Campaign(profiles=SMALL))
        names = set(outcome.obs.span_names())
        assert {"fleet.campaign", "fleet.reconcile", "fleet.execute",
                "fleet.assemble"} <= names
        counters = outcome.obs.metrics.counters()
        assert counters["fleet.cells.total"] == len(SMALL) + 1
        # The artifact bus never carries fleet counters.
        artifact_counters = outcome.result.obs.metrics.counters()
        assert not any(name.startswith("fleet.") for name in artifact_counters)


# ---------------------------------------------------------------------------
# Scheduler: crash, retry, resume
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_injected_worker_death_retries_with_backoff_inline(self, tmp_path):
        campaign = Campaign(profiles=SMALL, faults={"audit-disneyplus": 1})
        outcome = FleetScheduler(tmp_path).submit(campaign)
        assert outcome.stats["retries"] == 1
        assert outcome.result.to_json() == sequential_json(SMALL)

    def test_injected_worker_death_retries_across_processes(self, tmp_path):
        campaign = Campaign(profiles=SMALL, faults={"audit-netflix": 1})
        outcome = FleetScheduler(tmp_path).submit(campaign, jobs=2)
        assert outcome.stats["retries"] >= 1
        assert outcome.result.to_json() == sequential_json(SMALL)

    def test_requeue_claims_drops_done_and_retries_the_rest(self, tmp_path):
        from repro.fleet.scheduler import MAX_ATTEMPTS, _requeue_claims

        campaign = Campaign(profiles=SMALL)
        campaign_dir = tmp_path / "campaign"
        claimed = campaign_dir / "claimed" / "w3"
        claimed.mkdir(parents=True)
        (campaign_dir / "done").mkdir()
        (campaign_dir / "done" / "world.json").write_text("{}")
        for cell_id in ("world", "audit-netflix"):
            (claimed / f"{cell_id}.json").write_text(
                json.dumps({"cell_id": cell_id, "attempt": 2})
            )
        before = time.time()
        _requeue_claims(campaign, campaign_dir, "*")
        assert not list(claimed.iterdir())
        queued = sorted((campaign_dir / "queue").glob("*.json"))
        assert [p.name for p in queued] == ["audit-netflix.json"]
        ticket = json.loads(queued[0].read_text())
        assert ticket["attempt"] == 3
        assert ticket["not_before"] > before

        (claimed / "audit-disneyplus.json").write_text(
            json.dumps({"cell_id": "audit-disneyplus", "attempt": MAX_ATTEMPTS})
        )
        with pytest.raises(FleetError, match="attempts"):
            _requeue_claims(campaign, campaign_dir, "w3")

    def test_racing_workers_claim_each_shared_ticket_exactly_once(
        self, tmp_path
    ):
        """More claimers than cores, switching often: the rename is the
        only lock, so no ticket may be lost or claimed twice."""
        from repro.fleet.scheduler import _Worker

        campaign_dir = tmp_path / "campaign"
        queue = campaign_dir / "queue"
        queue.mkdir(parents=True)
        tickets = {f"cell-{i:03d}" for i in range(200)}
        for cell_id in tickets:
            (queue / f"{cell_id}.json").write_text(
                json.dumps({"cell_id": cell_id, "attempt": 1, "not_before": 0.0})
            )
        workers = [
            _Worker(Campaign(profiles=SMALL), ResultStore(tmp_path / "store"),
                    campaign_dir, f"w{i}")
            for i in range(6)
        ]
        claims: dict[str, list[str]] = {w.worker_id: [] for w in workers}

        def drain(worker):
            while (claim := worker._claim()) is not None:
                claims[worker.worker_id].append(claim[1]["cell_id"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=drain, args=(w,)) for w in workers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        claimed = [cell_id for ids in claims.values() for cell_id in ids]
        assert sorted(claimed) == sorted(tickets)
        assert not list(queue.glob("*.json"))
        for worker_id, ids in claims.items():
            held = campaign_dir / "claimed" / worker_id
            assert sorted(p.stem for p in held.glob("*.json")) == sorted(ids)

    def test_cell_out_of_retries_fails_the_campaign(self, tmp_path):
        campaign = Campaign(profiles=SMALL, faults={"audit-netflix": 99})
        with pytest.raises(FleetError, match="attempts"):
            FleetScheduler(tmp_path).submit(campaign)

    def test_cell_out_of_retries_stops_the_worker_processes_at_once(self, tmp_path):
        # The surviving worker idles on an empty queue: without being
        # stopped it would hold the campaign until its 60 s watchdog.
        campaign = Campaign(profiles=SMALL, faults={"audit-netflix": 99})
        started = time.monotonic()
        with pytest.raises(FleetError, match="attempts"):
            FleetScheduler(tmp_path).submit(campaign, jobs=2)
        assert time.monotonic() - started < 10

    def test_kill_dash_nine_mid_campaign_then_resume_reaches_same_artifact(
        self, tmp_path
    ):
        """Hard-kill `repro fleet submit` mid-campaign from outside, then
        resume: the checkpoint log + store must carry it to an artifact
        byte-identical to the uninterrupted sequential run."""
        profiles = ALL_PROFILES[:5]
        root = tmp_path / "fleet"
        apps = [p.name for p in profiles]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "submit",
             "--root", str(root), "--apps", *apps],
            cwd=REPO,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            campaign_id = Campaign(profiles=profiles).campaign_id
            done_dir = root / "campaigns" / campaign_id / "done"
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if len(list(done_dir.glob("*.json"))) >= 1:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.005)
            else:
                pytest.fail("fleet submit never produced a done marker")
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL, (
            "campaign finished before the kill; widen the window"
        )
        scheduler = FleetScheduler(root)
        status = {row["campaign_id"]: row for row in scheduler.status()}
        assert status[campaign_id]["state"] == "interrupted"
        resumed = scheduler.resume(campaign_id)
        assert resumed.result.to_json() == sequential_json(profiles)
        # And the checkpoint now reads complete.
        status = {row["campaign_id"]: row for row in scheduler.status()}
        assert status[campaign_id]["state"] == "complete"

    def test_temp_file_debris_never_reaches_json_scans(self, tmp_path):
        """A kill -9 between temp write and os.replace leaves a temp
        file behind. It must not end in ``.json`` (every queue/claimed/
        done scan globs that — pathlib's glob matches dot-prefixed
        names too), and resume must sweep it rather than crash parsing
        its name as a ticket or cell id."""
        scheduler = FleetScheduler(tmp_path)
        campaign = Campaign(profiles=SMALL)
        scheduler.submit(campaign)
        campaign_dir = scheduler.campaign_dir(campaign)
        debris = [
            # Current naming: "<name>.tmp-<pid>-<n>" — no .json suffix.
            campaign_dir / "queue" / "audit-x.json.tmp-99-0",
            # Dot-prefixed naming of earlier revisions DID match
            # glob("*.json"); planted in every scanned directory, the
            # old reconcile died on int("tmp") / cell_by_id("tmp...").
            campaign_dir / "queue" / ".tmp-99-audit-x.json",
            campaign_dir / "claimed" / "w0" / ".tmp-99-audit-x.json",
            campaign_dir / "done" / ".tmp-99-world.json",
        ]
        for path in debris:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{half-written")
        outcome = scheduler.resume(campaign.campaign_id)
        assert outcome.result.to_json() == sequential_json(SMALL)
        assert outcome.stats["computed"] == 0  # debris is not work
        for path in debris:
            assert not path.exists(), f"{path.name} survived the sweep"

    def test_ticket_lanes_of_the_earlier_layout_are_ignored(self, tmp_path):
        """A campaign interrupted under per-worker lanes (queue/w<i>/)
        needs no migration: its cells are simply queued again."""
        scheduler = FleetScheduler(tmp_path)
        campaign = Campaign(profiles=SMALL)
        lane = scheduler.campaign_dir(campaign) / "queue" / "w0"
        lane.mkdir(parents=True)
        (lane / "0001-audit-netflix.json").write_text(
            json.dumps({"cell_id": "audit-netflix", "attempt": 1,
                        "not_before": 0.0, "stolen": False})
        )
        outcome = scheduler.submit(campaign)
        assert outcome.result.to_json() == sequential_json(SMALL)
        assert outcome.stats["computed"] == len(SMALL) + 1
        assert scheduler.status()[0]["queued"] == 0

    def test_atomic_write_temp_names_are_invisible_to_json_globs(
        self, tmp_path
    ):
        from repro.fleet.scheduler import _write_json_atomic

        target = tmp_path / "lane" / "0001-cell.json"
        _write_json_atomic(target, {"ok": True})
        # The replace happened; had it been interrupted, the temp name
        # must not have matched the ticket scans.
        assert [p.name for p in target.parent.glob("*.json")] == [target.name]
        tmp_name = f"{target.name}.tmp-1234-0"
        (target.parent / tmp_name).write_text("{half")
        assert [p.name for p in target.parent.glob("*.json")] == [target.name]

    def test_resume_without_id_requires_an_interrupted_campaign(self, tmp_path):
        scheduler = FleetScheduler(tmp_path)
        with pytest.raises(FleetError, match="no interrupted campaign"):
            scheduler.resume()

    def test_store_too_small_to_hold_the_campaign_fails_loudly(self, tmp_path):
        scheduler = FleetScheduler(tmp_path, max_store_bytes=64)
        with pytest.raises(FleetError, match="evict"):
            scheduler.submit(Campaign(profiles=SMALL))

    def test_evicted_cell_is_recomputed_on_resubmit(self, tmp_path):
        scheduler = FleetScheduler(tmp_path)
        campaign = Campaign(profiles=SMALL)
        scheduler.submit(campaign)
        evicted_key = campaign.cells()[1].key  # audit-netflix
        assert scheduler.store.delete(evicted_key)
        outcome = scheduler.submit(Campaign(profiles=SMALL))
        assert outcome.stats["computed"] == 1
        assert outcome.result.to_json() == sequential_json(SMALL)


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------


class TestFleetCli:
    def test_submit_status_gc_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "fleet")
        apps = [p.name for p in SMALL]
        assert main(["fleet", "submit", "--root", root, "--apps", *apps]) == 0
        out = capsys.readouterr().out
        assert "4 cells" in out and "4 computed" in out
        assert "fleet.cells.total" in out

        assert main(["fleet", "submit", "--root", root, "--apps", *apps]) == 0
        out = capsys.readouterr().out
        assert "0 computed" in out and "4 cache hits" in out

        assert main(["fleet", "status", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "Netflix" in out

        assert main(["fleet", "gc", "--root", root, "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted 4 object(s)" in out

    def test_resume_of_complete_campaign_reassembles(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "fleet")
        apps = [p.name for p in SMALL]
        assert main(["fleet", "submit", "--root", root, "--apps", *apps]) == 0
        campaign_id = Campaign(profiles=SMALL).campaign_id
        capsys.readouterr()
        assert main(
            ["fleet", "resume", "--root", root, "--campaign", campaign_id]
        ) == 0
        assert "0 computed" in capsys.readouterr().out

    def test_resume_unknown_campaign_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["fleet", "resume", "--root", str(tmp_path), "--campaign", "nope"]
        )
        assert code == 2
        assert "fleet:" in capsys.readouterr().err

"""The benchmark's workloads.

Each workload builds its inputs from the seed in :meth:`setup` (which
also plays one warm-up pass and records the reference outputs), then
serves a closed loop of one client: :meth:`run` performs op *i* of an
endless sequence that is a pure function of the seed, and :meth:`check`
compares what it returned with the reference. Only :meth:`run` is
timed.

All program objects share one :class:`ObservabilityBus`, created
disabled; the traced run switches it on around its traced window.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.android.device import nexus_5, pixel_6
from repro.core.media_recovery import MediaRecoveryPipeline
from repro.core.study import WideLeakStudy
from repro.fleet import Campaign, FleetScheduler
from repro.license_server.provisioning import KeyboxAuthority
from repro.net.network import Network
from repro.obs.bus import ObservabilityBus
from repro.ott.app import OttApp
from repro.ott.backend import OttBackend
from repro.ott.registry import ALL_PROFILES, profile_by_name


class SetupError(RuntimeError):
    """The set-up pass disagreed with the paper or with itself."""


@dataclass
class Outcome:
    """What one checked op contributes to the run's tallies."""

    kind: str
    error: str | None = None
    counts: dict[str, int] = field(default_factory=dict)
    # Sub-phase timings of the op, in seconds (table1: study, sweep).
    parts: dict[str, float] = field(default_factory=dict)


def _permutation(tag: str, block: int, size: int) -> list[int]:
    """Seeded permutation number *block* of ``range(size)``: ops drawn
    blockwise from these visit every choice equally often."""
    return random.Random(f"{tag}/{block}").sample(range(size), size)


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (0 <= q <= 1)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Workload:
    name = ""
    # Ops per second of --seconds, sized so that the median and p90 of
    # a run are steady. A run makes round(seconds * RATE) ops, rounded
    # up to a multiple of BLOCK, so its length never depends on the
    # clock.
    RATE = 1.0
    BLOCK = 1

    def __init__(self, seed: int, bus: ObservabilityBus, scratch: Path):
        self.seed = seed
        self.bus = bus
        self.scratch = scratch

    def op_count(self, seconds: int) -> int:
        ops = max(1, round(seconds * self.RATE))
        return -(-ops // self.BLOCK) * self.BLOCK

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, index: int):
        raise NotImplementedError

    def check(self, index: int, payload) -> Outcome:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """End-of-run checks, made once, untimed."""
        return []

    def close(self) -> None:
        pass

    def set_program_trace(self, enabled: bool) -> None:
        self.bus.enabled = enabled

    def program_spans(self) -> int:
        return len(self.bus.spans)

    def program_counters(self) -> dict[str, int]:
        return dict(self.bus.metrics.counters())

    def end_to_end(self, window) -> dict[str, tuple[float, str, int]]:
        """The workload's own end-to-end metrics: name -> (value, unit,
        samples)."""
        return {}


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

# §IV-D: DRM-free 540p recovery succeeds for exactly these six services.
BROKEN_APPS = frozenset({"Netflix", "Hulu", "myCanal", "Showtime", "OCS", "Salto"})
RECOVERED_HEIGHT = 540


def _without_bus_counters(artifact: str) -> dict:
    payload = json.loads(artifact)
    payload["summary"].pop("observability")
    return payload


class Table1(Workload):
    """A fresh ten-app world, Q1-Q4 (``run()``), then the §IV-D sweep.
    The paper's fixed inputs: the seed is not used."""

    name = "table1"
    RATE = 0.5

    def setup(self) -> None:
        self.buses: list[ObservabilityBus] = []
        self.reference: str | None = None
        # The cold op is what `wideleak table1` pays per invocation; its
        # artifact is the reference every timed op must reproduce.
        outcome = self.check(-1, self.run(-1))
        if outcome.error is not None:
            raise SetupError(outcome.error)
        self.buses.clear()

    def run(self, index: int):
        bus = ObservabilityBus(enabled=self.bus.enabled)
        self.buses.append(bus)
        start = time.perf_counter()
        study = WideLeakStudy.with_default_apps(obs=bus)
        result = study.run()
        studied = time.perf_counter()
        attacks = study.run_all_attacks()
        swept = time.perf_counter()
        return result, attacks, studied - start, swept - studied

    def check(self, index: int, payload) -> Outcome:
        result, attacks, study_s, sweep_s = payload
        artifact = result.to_json()
        broken = {
            name
            for name, attack in attacks.items()
            if attack.recovered is not None
            and attack.recovered.succeeded
            and attack.recovered.best_video_height == RECOVERED_HEIGHT
        }
        outcome = Outcome(
            "op",
            counts={"table_rows": len(result.table.rows), "apps_broken": len(broken)},
            parts={"study": study_s, "sweep": sweep_s},
        )
        if self.reference is None:
            self.reference = artifact
        if not result.table.matches_paper:
            outcome.error = "Table I does not match the paper"
        elif broken != BROKEN_APPS:
            outcome.error = f"§IV-D recovered {sorted(broken)}"
        elif self.bus.enabled:
            # The traced run's artifact also carries the bus counters.
            if _without_bus_counters(artifact) != _without_bus_counters(self.reference):
                outcome.error = "study artifact differs from the warm-up's"
        elif artifact != self.reference:
            outcome.error = "study artifact is not byte-identical to the warm-up's"
        return outcome

    def set_program_trace(self, enabled: bool) -> None:
        # Each op gets a bus of its own; count only the traced window's.
        self.bus.enabled = enabled
        if enabled:
            self.buses.clear()

    def program_spans(self) -> int:
        return sum(len(bus.spans) for bus in self.buses)

    def program_counters(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for bus in self.buses:
            for name, value in bus.metrics.counters().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def end_to_end(self, window):
        study = [o.parts["study"] for o in window.outcomes]
        sweep = [o.parts["sweep"] for o in window.outcomes]
        return {
            "study_s": (quantile(study, 0.5), "s", len(study)),
            "attack_sweep_s": (quantile(sweep, 0.5), "s", len(sweep)),
        }


# ---------------------------------------------------------------------------
# viewers
# ---------------------------------------------------------------------------

L1_DEVICES = 2


def _serial(prefix: str, seed: int, index: int) -> str:
    digest = hashlib.sha256(f"viewers/{seed}/{prefix}/{index}".encode()).hexdigest()
    return f"{prefix}-{digest[:10]}"


def popularity(profile) -> int:
    """Sessions an app gets per block on each device: 1 + the order of
    magnitude of its installs (Netflix 4, Disney+ 3, ..., OCS 1)."""
    return 1 + round(math.log10(profile.installs_millions))


class Viewers(Workload):
    """Playback sessions (`OttApp.play`) on seed-drawn (device, app)
    pairs: two L1 Pixel 6 and one L3 Nexus 5 across all ten apps.

    Each block of ops is a seeded permutation of every pair repeated by
    the app's popularity, and a run is whole blocks: every seed plays
    the same mix of session kinds, so p50 lands in the bulk of L1/L3
    sessions and p90 among the Netflix sessions (two licenses each, 17%
    of the mix) rather than on the edge between them."""

    name = "viewers"
    RATE = 13.4
    BLOCK = (L1_DEVICES + 1) * sum(popularity(p) for p in ALL_PROFILES)

    def setup(self) -> None:
        network = Network()
        authority = KeyboxAuthority()
        backends = {
            profile.service: OttBackend(profile, network, authority, obs=self.bus)
            for profile in ALL_PROFILES
        }
        devices = [
            pixel_6(network, authority, serial=_serial("P6", self.seed, i), obs=self.bus)
            for i in range(L1_DEVICES)
        ]
        devices.append(
            nexus_5(network, authority, serial=_serial("N5", self.seed, 0), obs=self.bus)
        )
        self.apps = [
            OttApp(profile, device, backends[profile.service])
            for device in devices
            for profile in ALL_PROFILES
        ]
        self.slots = [
            index
            for index, app in enumerate(self.apps)
            for _ in range(popularity(app.profile))
        ]
        # Warm-up: every pair plays once (login, per-origin provisioning,
        # device RSA key), and the first device of each security level
        # sets the reference outcome for (level, app).
        self.reference: dict[tuple[str, str], tuple] = {}
        for app in self.apps:
            key = self._key(app)
            result = self._signature(app.play())
            expected = self.reference.setdefault(key, result)
            if result != expected:
                raise SetupError(f"{key}: warm-up {result} != {expected}")
        self._blocks: dict[int, list[int]] = {}

    @staticmethod
    def _key(app: OttApp) -> tuple[str, str]:
        return app.device.widevine_security_level, app.profile.name

    @staticmethod
    def _signature(result) -> tuple:
        return (
            result.ok,
            result.video_height,
            result.provisioning_failed,
            result.used_custom_drm,
        )

    def _app_at(self, index: int) -> OttApp:
        size = len(self.slots)
        block = index // size
        if block not in self._blocks:
            self._blocks[block] = _permutation(f"viewers/{self.seed}", block, size)
        return self.apps[self.slots[self._blocks[block][index % size]]]

    def run(self, index: int):
        app = self._app_at(index)
        return app, app.play()

    def check(self, index: int, payload) -> Outcome:
        app, result = payload
        frames = sum(track.frames_total for track in result.tracks)
        outcome = Outcome(
            "granted" if result.ok else "denied",
            counts={
                "sessions_ok": int(result.ok),
                "sessions_denied": int(not result.ok),
                "frames": frames,
            },
        )
        expected = self.reference[self._key(app)]
        if self._signature(result) != expected:
            outcome.error = (
                f"{self._key(app)}: {self._signature(result)} != {expected}"
            )
        return outcome

    def end_to_end(self, window):
        times = [t * 1000 for t in window.times]
        return {
            "session_p50_ms": (quantile(times, 0.5), "ms", len(times)),
            "session_p90_ms": (quantile(times, 0.9), "ms", len(times)),
            "sessions_per_s": (len(times) / window.busy_s, "1/s", len(times)),
        }


# ---------------------------------------------------------------------------
# recovery_longtail
# ---------------------------------------------------------------------------

# Five titles per service: 50 titles of about 106 keystream runs each,
# against the 4096-entry keystream LRU. One title per service is hot
# and takes three ops in four; the other 40 form the tail, visited in a
# seeded cycle whose reuse distance (about 4,100 runs) exceeds what the
# hot titles leave of the LRU, so every tail op misses and every hot op
# hits: the keystream hit ratio sits near 0.75, far from 0.5, and p50
# stays inside the hit mode while p90 sits inside the miss mode.
TITLES_PER_SERVICE = 5
TAIL_EVERY = 4


@dataclass(frozen=True)
class _Title:
    service: str
    title_id: str
    mpd_url: str
    keys: dict


def _media_digest(recovered) -> tuple[str, int]:
    digest = hashlib.sha256()
    clear_bytes = 0
    for track in recovered.tracks:
        digest.update(track.rep_id.encode())
        digest.update(track.clear_init)
        for segment in track.clear_segments:
            digest.update(segment)
            if track.kind != "text":
                clear_bytes += len(segment)
    return digest.hexdigest(), clear_bytes


class RecoveryLongtail(Workload):
    """DRM-free reconstruction (`MediaRecoveryPipeline.recover`) of
    seed-drawn titles from an enlarged catalog: pure media traffic."""

    name = "recovery_longtail"
    RATE = 40.0
    BLOCK = TAIL_EVERY * (TITLES_PER_SERVICE - 1) * len(ALL_PROFILES)

    def setup(self) -> None:
        network = Network()
        authority = KeyboxAuthority()
        by_service: list[list[_Title]] = []
        for base in ALL_PROFILES:
            profile = dataclasses.replace(base, title_count=TITLES_PER_SERVICE)
            backend = OttBackend(profile, network, authority, obs=self.bus)
            by_service.append(
                [
                    _Title(
                        profile.service,
                        title_id,
                        f"https://{profile.cdn_host}{packaged.mpd_path}",
                        dict(packaged.content_keys),
                    )
                    for title_id, packaged in backend.packaged.items()
                ]
            )
        rng = random.Random(f"recovery_longtail/{self.seed}")
        self.hot = [titles[rng.randrange(len(titles))] for titles in by_service]
        self.tail = [t for titles in by_service for t in titles if t not in self.hot]
        rng.shuffle(self.tail)
        self.pipeline = MediaRecoveryPipeline(network)
        # Reference pass, in the order the timed loop starts from: the
        # whole tail cycle, then the hot titles.
        self.reference: dict[str, str] = {}
        for title in self.tail + self.hot:
            recovered = self._recover(title)
            error = self._verify(recovered)
            if error is not None:
                raise SetupError(f"{title.title_id}: {error}")
            self.reference[title.title_id] = _media_digest(recovered)[0]
        self._blocks: dict[int, list[int]] = {}

    def _recover(self, title: _Title):
        return self.pipeline.recover(title.service, title.mpd_url, title.keys)

    @staticmethod
    def _verify(recovered) -> str | None:
        if not recovered.succeeded:
            return "recovery failed: " + "; ".join(recovered.notes)
        unplayable = [
            t.rep_id for t in recovered.tracks if t.kind != "text" and not t.playable
        ]
        if unplayable:
            return f"unplayable tracks {unplayable}"
        return None

    def _title_at(self, index: int) -> tuple[str, _Title]:
        cycle, slot = divmod(index, TAIL_EVERY)
        if slot == 0:
            return "tail", self.tail[cycle % len(self.tail)]
        hot_index = cycle * (TAIL_EVERY - 1) + slot - 1
        size = len(self.hot)
        block = hot_index // size
        if block not in self._blocks:
            self._blocks[block] = _permutation(
                f"recovery_longtail/{self.seed}/hot", block, size
            )
        return "hot", self.hot[self._blocks[block][hot_index % size]]

    def run(self, index: int):
        kind, title = self._title_at(index)
        return kind, title, self._recover(title)

    def check(self, index: int, payload) -> Outcome:
        kind, title, recovered = payload
        digest, clear_bytes = _media_digest(recovered)
        outcome = Outcome(kind, counts={"clear_bytes": clear_bytes})
        error = self._verify(recovered)
        if error is None and digest != self.reference[title.title_id]:
            error = "clear media differs from the set-up reference"
        if error is not None:
            outcome.error = f"{title.title_id}: {error}"
        return outcome

    def set_program_trace(self, enabled: bool) -> None:
        super().set_program_trace(enabled)
        # The pipeline's account-less client defaults to the null bus.
        self.pipeline.client.obs = self.bus

    def end_to_end(self, window):
        times = [t * 1000 for t in window.times]
        clear = sum(o.counts["clear_bytes"] for o in window.outcomes)
        return {
            "recover_p50_ms": (quantile(times, 0.5), "ms", len(times)),
            "recover_p90_ms": (quantile(times, 0.9), "ms", len(times)),
            "media_mb_per_s": (clear / 1e6 / window.busy_s, "MB/s", len(times)),
        }


# ---------------------------------------------------------------------------
# fleet_resubmit
# ---------------------------------------------------------------------------

FLEET_APPS = ("Netflix", "Disney+", "Amazon Prime Video", "Hulu")
# One op in four is a warm resubmit, at a seeded position in each block
# of four; the rest are incremental. Warm resubmits are file-system
# bound: on a shared VM their p50 spread 0.58 of the median over ten
# runs, so they stay out of op_p50_ms (which lands among the Disney+ /
# Amazon incrementals, p90 among Netflix's) and are reported as
# warm_resubmit_p50_ms.
FLEET_BLOCK = 4


class FleetResubmit(Workload):
    """`FleetScheduler.submit` (jobs=1) of a four-app campaign: warm
    resubmits of the unchanged campaign, and incremental resubmits that
    give one seed-chosen app a fresh `installs_millions`."""

    name = "fleet_resubmit"
    RATE = 8.0
    BLOCK = FLEET_BLOCK * len(FLEET_APPS)

    def setup(self) -> None:
        self.root = self.scratch / f"fleet-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.scheduler = FleetScheduler(self.root)
        self.base = tuple(profile_by_name(name) for name in FLEET_APPS)
        self.cells = len(Campaign(profiles=self.base).cells())
        self.last_incremental = None
        self._blocks: dict[int, int] = {}
        self._apps: dict[int, list[int]] = {}
        cold = self.scheduler.submit(Campaign(profiles=self.base), obs=self.bus)
        if cold.stats["computed"] != self.cells:
            raise SetupError(f"cold submit computed {cold.stats}")
        for index in (-2, -1):  # one warm and one incremental resubmit
            payload = self._submit("warm" if index == -2 else "incremental", index, 0)
            outcome = self.check(index, payload)
            if outcome.error is not None:
                raise SetupError(outcome.error)

    def _op_at(self, index: int) -> tuple[str, int, int]:
        block, slot = divmod(index, FLEET_BLOCK)
        if block not in self._blocks:
            self._blocks[block] = random.Random(
                f"fleet_resubmit/{self.seed}/{block}"
            ).randrange(FLEET_BLOCK)
        warm_slot = self._blocks[block]
        if slot == warm_slot:
            return "warm", index, 0
        # Incremental resubmit number k: apps cycle in seeded
        # permutations, so each gets the same share.
        k = block * (FLEET_BLOCK - 1) + slot - (slot > warm_slot)
        size = len(self.base)
        perm = k // size
        if perm not in self._apps:
            self._apps[perm] = _permutation(f"fleet_resubmit/{self.seed}/apps", perm, size)
        return "incremental", index, self._apps[perm][k % size]

    def _submit(self, kind: str, index: int, app: int):
        profiles = self.base
        if kind == "incremental":
            bumped = dataclasses.replace(
                profiles[app], installs_millions=1_000_000 + index
            )
            profiles = profiles[:app] + (bumped,) + profiles[app + 1:]
        outcome = self.scheduler.submit(Campaign(profiles=profiles), obs=self.bus)
        return kind, profiles, outcome

    def run(self, index: int):
        return self._submit(*self._op_at(index))

    def check(self, index: int, payload) -> Outcome:
        kind, profiles, fleet = payload
        stats = fleet.stats
        outcome = Outcome(
            kind,
            counts={"cells_computed": stats["computed"], "cache_hits": stats["cache_hits"]},
        )
        if kind == "warm":
            if stats["computed"] != 0 or stats["cache_hits"] != stats["cells"]:
                outcome.error = f"warm resubmit: {stats}"
        else:
            if stats["computed"] != 2:
                outcome.error = f"incremental resubmit: {stats}"
            self.last_incremental = (profiles, fleet.result.to_json())
        return outcome

    def finish(self) -> list[str]:
        profiles, artifact = self.last_incremental
        if WideLeakStudy(profiles).run().to_json() != artifact:
            return ["last incremental artifact differs from an in-process study"]
        return []

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def end_to_end(self, window):
        metrics = {}
        for kind in ("warm", "incremental"):
            times = [
                t * 1000 for t, o in zip(window.times, window.outcomes) if o.kind == kind
            ]
            metrics[f"{kind}_resubmit_p50_ms"] = (quantile(times, 0.5), "ms", len(times))
        return metrics


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Table1, Viewers, RecoveryLongtail, FleetResubmit)
}

"""The WideLeak study orchestrator (§IV).

Builds the whole world — network, keybox authority, the ten service
backends, a current L1 device and a discontinued Nexus 5 — and runs the
four research questions per app:

- **Q1** from the DRM API monitor during an audited playback;
- **Q2** from the content-protection audit (URI recovery + account-less
  downloads + player probes);
- **Q3** from key-id attribution over the captured manifest and the
  service metadata endpoint;
- **Q4** from the legacy-device probe.

Table I is assembled from these *measurements*; nothing is copied from
profile configuration. :meth:`WideLeakStudy.run_attack` additionally
executes the §IV-D key-ladder PoC per app.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.crosscheck import CrossCheckResult, cross_check
from repro.analysis.engine import ApkAnalysisReport
from repro.analysis.engine import analyze as analyze_dataflow
from repro.android.device import AndroidDevice, nexus_5, pixel_6
from repro.core.content_audit import ContentAuditor, ContentAuditResult
from repro.core.key_usage import KeyUsageAnalyzer, KeyUsageReport
from repro.core.keyladder_attack import KeyLadderAttack, KeyLadderAttackResult
from repro.core.legacy_probe import (
    LegacyDeviceProbe,
    LegacyOutcome,
    LegacyProbeResult,
)
from repro.core.media_recovery import MediaRecoveryPipeline, RecoveredMedia
from repro.core.report import (
    DAGGER,
    FAIL,
    FULL,
    HALF,
    CrossCheckRow,
    CrossCheckTable,
    TableOne,
    TableOneRow,
)
from repro.core.static_analysis import StaticAnalysisReport, analyze_apk
from repro.license_server.provisioning import KeyboxAuthority
from repro.media.player import AssetStatus
from repro.net.network import Network
from repro.obs.bus import ObservabilityBus
from repro.obs.sampling import TraceSampler
from repro.ott.app import OttApp
from repro.ott.backend import OttBackend
from repro.ott.profile import OttProfile
from repro.ott.registry import ALL_PROFILES

__all__ = [
    "AppCellArtifact",
    "AppStudyResult",
    "AttackCellArtifact",
    "AttackStudyResult",
    "DeviceSession",
    "StudyResult",
    "WideLeakStudy",
]


@dataclass
class AppStudyResult:
    """All four research-question results for one app."""

    profile: OttProfile
    static: StaticAnalysisReport
    audit: ContentAuditResult
    key_usage: KeyUsageReport
    legacy: LegacyProbeResult
    # Deep static analysis (repro.analysis): reachability-classified DRM
    # call sites + taint findings, and the reconciliation of those call
    # sites against the Q1 monitor's observations.
    analysis: ApkAnalysisReport
    crosscheck: CrossCheckResult

    def crosscheck_row(self) -> CrossCheckRow:
        counts = self.crosscheck.counts()
        return CrossCheckRow(
            app=self.profile.name,
            confirmed=counts["confirmed"],
            dead_code=counts["dead_code"],
            static_unobserved=counts["static_only"] - counts["dead_code"],
            dynamic_only=counts["dynamic_only"],
        )


@dataclass(frozen=True)
class AppCellArtifact:
    """JSON-serializable projection of one app's Q1–Q4 results.

    Exactly the facts the study artifact consumes — the Table I row,
    the per-app section of :meth:`StudyResult.to_json` and every
    scalar :meth:`StudyResult.summary` reads. ``StudyResult`` routes
    its own serialization through these projections, so a result
    assembled from persisted artifacts (the fleet's incremental
    re-runs) is byte-identical to one assembled from live pipeline
    objects.
    """

    app: str
    row: tuple[str, ...]  # Table I cells, in TableOneRow.cells() order
    # (confirmed, dead_code, static_unobserved, dynamic_only)
    crosscheck_row: tuple[int, int, int, int]
    widevine_used: bool
    video_status: str | None  # AssetStatus.value, None = not obtainable
    audio_status: str | None
    text_status: str | None
    key_usage: str | None  # KeyUsagePolicy.value, None = inconclusive
    legacy_outcome: str  # LegacyOutcome.value
    legacy_content_delivered: bool
    legacy_video_height: int | None
    security_level: str | None
    oecc_calls: int
    secure_channel: bool
    reachable_key_leak: bool
    dead_drm_code: bool
    analysis: dict  # ApkAnalysisReport.to_dict()
    crosscheck: dict  # counts + dynamic-only functions

    @classmethod
    def from_result(cls, result: "AppStudyResult") -> "AppCellArtifact":
        audit = result.audit

        def status(kind: str) -> str | None:
            value = audit.status_for(kind)
            return None if value is None else value.value

        key_usage = result.key_usage.classification
        check_row = result.crosscheck_row()
        return cls(
            app=result.profile.name,
            row=WideLeakStudy._to_row(result).cells(),
            crosscheck_row=(
                check_row.confirmed,
                check_row.dead_code,
                check_row.static_unobserved,
                check_row.dynamic_only,
            ),
            widevine_used=audit.observation.widevine_used,
            video_status=status("video"),
            audio_status=status("audio"),
            text_status=status("text"),
            key_usage=None if key_usage is None else key_usage.value,
            legacy_outcome=result.legacy.outcome.value,
            legacy_content_delivered=result.legacy.content_delivered,
            legacy_video_height=result.legacy.video_height,
            security_level=audit.observation.security_level,
            oecc_calls=audit.observation.oecc_call_count,
            secure_channel=audit.secure_channel_manifest_recovered,
            reachable_key_leak=any(
                f.reachable for f in result.analysis.taint_findings
            ),
            dead_drm_code=bool(result.analysis.dead_sites),
            analysis=result.analysis.to_dict(),
            crosscheck={
                **result.crosscheck.counts(),
                "dynamic_only_functions": list(result.crosscheck.dynamic_only),
            },
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "AppCellArtifact":
        data = dict(payload)
        data["row"] = tuple(data["row"])
        data["crosscheck_row"] = tuple(data["crosscheck_row"])
        return cls(**data)

    def table_row(self) -> TableOneRow:
        return TableOneRow(*self.row)

    def app_json(self) -> dict[str, object]:
        """The per-app section of :meth:`StudyResult.to_json`."""
        return {
            "security_level": self.security_level,
            "oecc_calls": self.oecc_calls,
            "secure_channel": self.secure_channel,
            "legacy_outcome": self.legacy_outcome,
            "legacy_video_height": self.legacy_video_height,
            "analysis": self.analysis,
            "crosscheck": self.crosscheck,
        }


@dataclass
class AttackStudyResult:
    """§IV-D outcome for one app."""

    profile: OttProfile
    attack: KeyLadderAttackResult
    recovered: RecoveredMedia | None


@dataclass(frozen=True)
class AttackCellArtifact:
    """JSON-serializable projection of one §IV-D attack outcome."""

    app: str
    device_model: str
    keybox_recovered: bool
    rsa_recovered: bool
    licenses_observed: int
    content_keys: tuple[tuple[str, str], ...]  # (kid hex, key hex)
    notes: tuple[str, ...]
    recovery_attempted: bool
    recovery_succeeded: bool
    best_video_height: int | None

    @classmethod
    def from_result(cls, result: AttackStudyResult) -> "AttackCellArtifact":
        attack = result.attack
        recovered = result.recovered
        return cls(
            app=result.profile.name,
            device_model=attack.device_model,
            keybox_recovered=attack.keybox_recovered,
            rsa_recovered=attack.rsa_recovered,
            licenses_observed=attack.licenses_observed,
            content_keys=tuple(
                (kid.hex(), key.hex())
                for kid, key in attack.content_keys.items()
            ),
            notes=tuple(attack.notes),
            recovery_attempted=recovered is not None,
            recovery_succeeded=recovered is not None and recovered.succeeded,
            best_video_height=(
                None if recovered is None else recovered.best_video_height
            ),
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "AttackCellArtifact":
        data = dict(payload)
        data["content_keys"] = tuple(
            tuple(pair) for pair in data["content_keys"]
        )
        data["notes"] = tuple(data["notes"])
        return cls(**data)


@dataclass
class StudyResult:
    """Everything one full study run produced."""

    table: TableOne
    apps: dict[str, AppStudyResult] = field(default_factory=dict)
    # The bus the run observed through; carries the aggregate metrics
    # for summary()/report and the span tree for the trace exporters.
    obs: ObservabilityBus | None = field(default=None, repr=False, compare=False)
    # Per-app artifact projections. Live runs fill this lazily from
    # ``apps``; the fleet assembler pre-populates it from the result
    # store (in which case ``apps`` stays empty). Everything the
    # artifact emits — summary(), to_json(), the cross-check table —
    # reads from here, so both construction paths share one code path.
    cells: dict[str, AppCellArtifact] = field(
        default_factory=dict, repr=False, compare=False
    )

    def cell_artifacts(self) -> dict[str, AppCellArtifact]:
        """The per-app artifact projections, in profile order."""
        for name, app in self.apps.items():
            if name not in self.cells:
                self.cells[name] = AppCellArtifact.from_result(app)
        return self.cells

    def crosscheck_table(self) -> CrossCheckTable:
        """Static-vs-dynamic reconciliation, one row per app."""
        table = CrossCheckTable()
        for name, cell in self.cell_artifacts().items():
            table.add(CrossCheckRow(name, *cell.crosscheck_row))
        return table

    def metrics_table(self) -> str:
        """The run's aggregate observability metrics, rendered."""
        from repro.obs.export import render_metrics_table

        if self.obs is None:
            return "(no observability bus attached)"
        return render_metrics_table(self.obs)

    def summary(self) -> dict[str, object]:
        """The paper's headline counts, computed from measurements."""
        cells = self.cell_artifacts()
        # Deterministic bus counters only — request/byte/flow/license
        # totals are functions of the study inputs, so they survive the
        # byte-identity contract (in process == fleet, cold == warm).
        # Span *durations* are wall-clock and stay out of the artifact.
        observability: dict[str, object] = {}
        if self.obs is not None and self.obs.enabled:
            observability = {"counters": dict(self.obs.metrics.counters())}
        clear = AssetStatus.CLEAR.value
        encrypted = AssetStatus.ENCRYPTED.value
        return {
            "observability": observability,
            "apps_with_reachable_key_leaks": sorted(
                name for name, cell in cells.items() if cell.reachable_key_leak
            ),
            "apps_with_dead_drm_code": sorted(
                name for name, cell in cells.items() if cell.dead_drm_code
            ),
            "apps_evaluated": len(cells),
            "apps_using_widevine": sum(
                1 for cell in cells.values() if cell.widevine_used
            ),
            "apps_with_clear_audio": sorted(
                name
                for name, cell in cells.items()
                if cell.audio_status == clear
            ),
            "apps_with_encrypted_video": sum(
                1 for cell in cells.values() if cell.video_status == encrypted
            ),
            "apps_with_clear_subtitles": sum(
                1 for cell in cells.values() if cell.text_status == clear
            ),
            "apps_following_recommended_keys": sorted(
                name
                for name, cell in cells.items()
                if cell.key_usage == "Recommended"
            ),
            "apps_revoking_legacy_devices": sorted(
                name
                for name, cell in cells.items()
                if cell.legacy_outcome == LegacyOutcome.PROVISIONING_FAILED.value
            ),
            "apps_serving_legacy_devices": sum(
                1 for cell in cells.values() if cell.legacy_content_delivered
            ),
        }

    def to_json(self) -> str:
        """Machine-readable artifact of the whole run."""
        import json

        payload = {
            "summary": self.summary(),
            "table1": [
                {
                    "app": row.app,
                    "widevine": row.widevine_used,
                    "video": row.video,
                    "audio": row.audio,
                    "subtitles": row.subtitles,
                    "key_usage": row.key_usage,
                    "legacy_playback": row.legacy_playback,
                }
                for row in self.table.rows
            ],
            "matches_paper": self.table.matches_paper,
            "apps": {
                name: cell.app_json()
                for name, cell in self.cell_artifacts().items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


class DeviceSession:
    """A researcher-device pair booted against a study's world.

    A current L1 Pixel 6 and the discontinued L3 Nexus 5, both rooted,
    per the DRM threat model. The study boots its own pair on its own
    bus; a fleet cell boots a fresh pair on a fresh bus (the default),
    which shares the study's sampler, so keep/drop decisions match.
    Serials match the study's pair, so the keybox authority sees the
    same factory keyboxes (re-registration writes identical values) and
    every derived key matches.
    """

    def __init__(
        self, study: "WideLeakStudy", *, obs: ObservabilityBus | None = None
    ):
        self.obs = obs if obs is not None else ObservabilityBus(
            enabled=study.obs.enabled, sampler=study.obs.sampler
        )
        self.l1_device: AndroidDevice = pixel_6(
            study.network, study.authority, obs=self.obs
        )
        self.l1_device.rooted = True
        self.legacy_device: AndroidDevice = nexus_5(
            study.network, study.authority, obs=self.obs
        )
        self.legacy_device.rooted = True


class WideLeakStudy:
    """One self-contained instance of the WideLeak experiment."""

    def __init__(
        self,
        profiles: tuple[OttProfile, ...] | None = None,
        *,
        obs: ObservabilityBus | None = None,
        sampler: TraceSampler | None = None,
    ):
        self.profiles = profiles if profiles is not None else ALL_PROFILES
        # One bus for the whole study: world construction, packaging,
        # every per-app pipeline. Fleet cells run on DeviceSessions with
        # their own buses (sharing this bus's sampler); the fleet adds
        # up their counters at assembly.
        if obs is not None and sampler is not None:
            raise ValueError(
                "pass either a bus (which carries its own sampler) or a "
                "sampler, not both"
            )
        self.obs = obs if obs is not None else ObservabilityBus(sampler=sampler)
        self.network = Network()
        self.authority = KeyboxAuthority()
        self.backends: dict[str, OttBackend] = {
            profile.service: OttBackend(
                profile, self.network, self.authority, obs=self.obs
            )
            for profile in self.profiles
        }
        devices = DeviceSession(self, obs=self.obs)
        self.l1_device: AndroidDevice = devices.l1_device
        self.legacy_device: AndroidDevice = devices.legacy_device

    @classmethod
    def with_default_apps(
        cls,
        *,
        obs: ObservabilityBus | None = None,
        sampler: TraceSampler | None = None,
    ) -> "WideLeakStudy":
        """The paper's setup: all ten premium OTT apps."""
        return cls(obs=obs, sampler=sampler)

    # -- single-app pipeline ---------------------------------------------------

    def study_app(
        self,
        profile: OttProfile,
        *,
        l1_device: AndroidDevice | None = None,
        legacy_device: AndroidDevice | None = None,
    ) -> AppStudyResult:
        """Run Q1–Q4 for one app.

        The device pair defaults to the study's shared devices; a fleet
        cell injects a fresh :class:`DeviceSession` instead. Either way
        the per-app results are identical: each pipeline stage is a
        deterministic function of the app's backend and a booted device,
        never of what other apps did to the device before (asserted by
        the fleet's byte-identity tests).
        """
        l1_device = l1_device or self.l1_device
        legacy_device = legacy_device or self.legacy_device
        backend = self.backends[profile.service]

        # One root span per app, on the bus that travels with the
        # executing devices — the study's own bus when running in
        # process, the session's bus in a fleet cell.
        with l1_device.obs.span("study.app", app=profile.name):
            app_l1 = OttApp(profile, l1_device, backend)
            static = analyze_apk(app_l1.apk)
            analysis = analyze_dataflow(app_l1.apk)
            audit = ContentAuditor(l1_device, self.network).audit(app_l1)
            key_usage = KeyUsageAnalyzer().analyze(app_l1, audit.mpd_bytes)

            app_legacy = OttApp(profile, legacy_device, backend)
            legacy = LegacyDeviceProbe(legacy_device).probe(app_legacy)

            return AppStudyResult(
                profile=profile,
                static=static,
                audit=audit,
                key_usage=key_usage,
                legacy=legacy,
                analysis=analysis,
                crosscheck=cross_check(
                    profile.package, analysis.call_sites, audit.observation
                ),
            )

    # -- the full study -----------------------------------------------------------

    def run(self) -> StudyResult:
        result = StudyResult(table=TableOne(), obs=self.obs)
        for profile in self.profiles:
            app_result = self.study_app(profile)
            result.apps[profile.name] = app_result
            result.table.add(self._to_row(app_result))
        return result

    @staticmethod
    def _to_row(app_result: AppStudyResult) -> TableOneRow:
        audit = app_result.audit
        legacy = app_result.legacy

        custom_on_l3 = legacy.outcome is LegacyOutcome.PLAYS_CUSTOM_DRM
        if audit.observation.widevine_used:
            widevine_cell = FULL + (DAGGER if custom_on_l3 else "")
        else:
            widevine_cell = FAIL

        def q2_cell(kind: str) -> str:
            status = audit.status_for(kind)
            if status is None:
                return "-"
            return {
                AssetStatus.CLEAR: "Clear",
                AssetStatus.ENCRYPTED: "Encrypted",
                AssetStatus.CORRUPT: "Corrupt",
            }[status]

        key_usage = app_result.key_usage.classification
        key_cell = key_usage.value if key_usage is not None else "-"

        legacy_cell = {
            LegacyOutcome.PLAYS: FULL,
            LegacyOutcome.PLAYS_CUSTOM_DRM: FULL + DAGGER,
            LegacyOutcome.PROVISIONING_FAILED: HALF,
            LegacyOutcome.LICENSE_DENIED: HALF,
            LegacyOutcome.OTHER_FAILURE: FAIL,
        }[legacy.outcome]

        return TableOneRow(
            app=app_result.profile.name,
            widevine_used=widevine_cell,
            video=q2_cell("video"),
            audio=q2_cell("audio"),
            subtitles=q2_cell("text"),
            key_usage=key_cell,
            legacy_playback=legacy_cell,
        )

    # -- §IV-D practical impact ----------------------------------------------------

    def run_attack(
        self,
        profile: OttProfile,
        *,
        legacy_device: AndroidDevice | None = None,
    ) -> AttackStudyResult:
        """Key-ladder attack + media reconstruction for one app on the
        discontinued device.

        ``legacy_device`` follows the same injection convention as
        :meth:`study_app`.
        """
        legacy_device = legacy_device or self.legacy_device
        backend = self.backends[profile.service]
        with legacy_device.obs.span("study.attack", app=profile.name):
            app = OttApp(profile, legacy_device, backend)
            attack = KeyLadderAttack(legacy_device).run(app)

            recovered: RecoveredMedia | None = None
            if attack.content_keys:
                title_id = next(iter(backend.catalog)).title_id
                packaged = backend.packaged[title_id]
                mpd_url = f"https://{profile.cdn_host}{packaged.mpd_path}"
                recovered = MediaRecoveryPipeline(self.network).recover(
                    profile.service, mpd_url, attack.content_keys
                )
            return AttackStudyResult(
                profile=profile, attack=attack, recovered=recovered
            )

    def run_all_attacks(self) -> dict[str, AttackStudyResult]:
        """§IV-D across every evaluated app."""
        return {
            profile.name: self.run_attack(profile) for profile in self.profiles
        }

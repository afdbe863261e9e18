"""Per-layer boundaries and the metrics read from them.

Every boundary is a public function or method of the program, timed
from outside by :mod:`perfbench.tracer`. A module-level function is
patched at *every* module binding that holds it (``pss_sign`` is called
through ``repro.widevine.oemcrypto.pss_sign``, never through
``repro.crypto.rsa``); a method is patched on its class.

Each metric records which end-to-end metric it should move, the
workloads where its layer does most of its work (the traced run asserts
it reads nonzero there) and the workload that bypasses it (where a
change to the layer should move nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# probe name -> boundaries ("module:function" or "module:Class.method").
PROBES: dict[str, tuple[str, ...]] = {
    "crypto.rsa_private": (
        "repro.crypto.rsa:pss_sign",
        "repro.crypto.rsa:oaep_decrypt",
    ),
    "crypto.rsa_public": (
        "repro.crypto.rsa:pss_verify",
        "repro.crypto.rsa:oaep_encrypt",
    ),
    "crypto.rsa_keygen": ("repro.crypto.rsa:generate_keypair",),
    "crypto.aes_ctr": ("repro.crypto.modes:ctr_keystream",),
    "crypto.cbc": (
        "repro.crypto.modes:cbc_encrypt",
        "repro.crypto.modes:cbc_decrypt",
    ),
    "crypto.cmac_kdf": (
        "repro.crypto.kdf:derive_key",
        "repro.crypto.kdf:derive_session_keys",
    ),
    "widevine.key_request": ("repro.widevine.cdm:WidevineCdm.get_key_request",),
    "widevine.load_keys": ("repro.widevine.cdm:WidevineCdm.provide_key_response",),
    "widevine.provision": (
        "repro.widevine.cdm:WidevineCdm.get_provision_request",
        "repro.widevine.cdm:WidevineCdm.provide_provision_response",
    ),
    "widevine.decrypt": ("repro.widevine.cdm:WidevineCdm.decrypt",),
    "android.codec": (
        "repro.android.mediacodec:MediaCodec.queue_secure_input_buffer",
        "repro.android.mediacodec:MediaCodec.queue_input_buffer",
    ),
    "android.device_boot": (
        "repro.android.device:pixel_6",
        "repro.android.device:nexus_5",
    ),
    "license_server.issue": ("repro.license_server.server:LicenseServer.handle",),
    "license_server.provision": (
        "repro.license_server.provisioning:ProvisioningServer.handle",
    ),
    "net.http": ("repro.net.network:HttpClient.request",),
    "net.cdn": ("repro.net.cdn:CdnServer.handle",),
    "net.proxy": ("repro.net.proxy:InterceptingProxy.forward",),
    # Every other origin (the service APIs). Not reported: it only keeps
    # API handler time out of the HTTP client's self time.
    "net.origin": ("repro.net.server:VirtualServer.handle",),
    "dash.mpd_parse": ("repro.dash.mpd:Mpd.from_xml",),
    "dash.package": ("repro.dash.packager:Packager.package",),
    "bmff.read_samples": ("repro.bmff.builder:read_samples",),
    "bmff.build_segment": ("repro.bmff.builder:build_media_segment",),
    "bmff.cenc_decrypt": (
        "repro.bmff.cenc:decrypt_sample",
        "repro.bmff.cenc:decrypt_sample_cbcs",
    ),
    "media.probe": (
        "repro.media.player:probe_track",
        "repro.media.player:probe_subtitle",
    ),
    "ott.session": ("repro.ott.app:OttApp.play",),
    "ott.backend_build": ("repro.ott.backend:OttBackend.__init__",),
    "core.world_build": ("repro.core.study:WideLeakStudy.__init__",),
    "core.audit": ("repro.core.content_audit:ContentAuditor.audit",),
    "core.key_usage": ("repro.core.key_usage:KeyUsageAnalyzer.analyze",),
    "core.legacy_probe": ("repro.core.legacy_probe:LegacyDeviceProbe.probe",),
    "core.keyladder": ("repro.core.keyladder_attack:KeyLadderAttack.run",),
    "core.recover": ("repro.core.media_recovery:MediaRecoveryPipeline.recover",),
    "analysis.static": ("repro.core.static_analysis:analyze_apk",),
    "analysis.dataflow": ("repro.analysis.engine:analyze",),
    "analysis.crosscheck": ("repro.analysis.crosscheck:cross_check",),
    "instrumentation.memscan": (
        "repro.instrumentation.memscan:scan_for_keybox",
        "repro.instrumentation.memscan:scan_for_pattern",
        "repro.instrumentation.memscan:find_whitebox_mask",
    ),
    "instrumentation.attach": ("repro.instrumentation.frida:FridaSession.attach",),
    "fleet.store_get": ("repro.fleet.store:ResultStore.get",),
    "fleet.store_put": ("repro.fleet.store:ResultStore.put",),
    "fleet.submit": ("repro.fleet.scheduler:FleetScheduler.submit",),
}

# Caches whose hit ratio is a (hits, misses) delta over the traced
# window: the packager's segment cache (segment_cache_stats()) and these
# lru_caches, metric name -> "module:attribute" (read via cache_info()).
SEGMENT_CACHE = "dash.segment_cache_hit_ratio"
LRU_CACHES: dict[str, str] = {
    "crypto.keystream_hit_ratio": "repro.crypto.modes:_keystream_blocks",
    "crypto.cipher_hit_ratio": "repro.crypto.aes:cipher_for",
    "crypto.kdf_hit_ratio": "repro.crypto.kdf:derive_key",
    "crypto.cmac_subkey_hit_ratio": "repro.crypto.cmac:_subkeys_for",
}


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the prediction it carries."""

    name: str
    unit: str
    better: str
    read: Callable[["object"], float]  # perfbench.tracer.LayerView -> value
    moves: str  # end-to-end metric(s) it should move
    most_work: tuple[str, ...]  # asserted nonzero on these workloads
    bypass: str  # workload(s) where a change should move nothing


def _m(name, unit, better, read, moves, most_work, bypass):
    return LayerMetric(name, unit, better, read, moves, tuple(most_work), bypass)


# Times are per timed op ("ms/op"); counts and bytes are totals over the
# traced window; the *_s / device_boot / provision metrics marked
# "set-up" are totals over the traced run's set-up, where that work
# happens on a warm serving loop.
METRICS: tuple[LayerMetric, ...] = (
    _m("crypto.rsa_private_ms", "ms/op", "lower",
       lambda v: v.ms("crypto.rsa_private"),
       "session_p50_ms, session_p90_ms, sessions_per_s; study_s",
       ["viewers"], "recovery_longtail"),
    _m("crypto.rsa_private_calls", "count", "lower",
       lambda v: v.calls("crypto.rsa_private"),
       "session_p50_ms, sessions_per_s; study_s", ["viewers"], "recovery_longtail"),
    _m("crypto.rsa_public_ms", "ms/op", "lower",
       lambda v: v.ms("crypto.rsa_public"),
       "session_p50_ms, session_p90_ms, sessions_per_s; study_s",
       ["viewers"], "recovery_longtail"),
    _m("crypto.rsa_keygen_s", "s", "lower",
       lambda v: v.setup_ms("crypto.rsa_keygen") / 1000.0,
       "setup_s (set-up)", ["viewers", "table1"], "timed loops of every workload"),
    _m("crypto.aes_ctr_ms", "ms/op", "lower",
       lambda v: v.ms("crypto.aes_ctr"),
       "recover_p90_ms, media_mb_per_s", ["recovery_longtail"], "viewers"),
    _m("crypto.aes_ctr_mb", "MB", "lower",
       lambda v: v.extra("crypto.aes_ctr", "bytes") / 1e6,
       "recover_p90_ms, media_mb_per_s", ["recovery_longtail"], "viewers"),
    _m("crypto.keystream_hit_ratio", "ratio", "higher",
       lambda v: v.cache_ratio("crypto.keystream_hit_ratio"),
       "recover_p50_ms, recover_p90_ms", ["recovery_longtail"], "table1 (=1)"),
    _m("crypto.cipher_hit_ratio", "ratio", "higher",
       lambda v: v.cache_ratio("crypto.cipher_hit_ratio"),
       "recover_p50_ms, recover_p90_ms", ["recovery_longtail"], "table1 (=1)"),
    _m("crypto.kdf_hit_ratio", "ratio", "higher",
       lambda v: v.cache_ratio("crypto.kdf_hit_ratio"),
       "session_p50_ms; study_s", ["viewers"], "table1 (=1: a rebuilt world repeats every derivation)"),
    _m("crypto.cmac_subkey_hit_ratio", "ratio", "higher",
       lambda v: v.cache_ratio("crypto.cmac_subkey_hit_ratio"),
       "session_p50_ms; study_s", ["viewers"], "table1 (no lookups: every KDF call hits)"),
    _m("crypto.cbc_ms", "ms/op", "lower",
       lambda v: v.ms("crypto.cbc"),
       "session_p50_ms; study_s", ["viewers"], "recovery_longtail"),
    _m("crypto.cmac_kdf_ms", "ms/op", "lower",
       lambda v: v.ms("crypto.cmac_kdf"),
       "session_p50_ms; study_s", ["viewers"], "recovery_longtail"),
    _m("widevine.key_request_ms", "ms/op", "lower",
       lambda v: v.ms("widevine.key_request"),
       "session_p50_ms, session_p90_ms", ["viewers"], "recovery_longtail"),
    _m("widevine.load_keys_ms", "ms/op", "lower",
       lambda v: v.ms("widevine.load_keys"),
       "session_p50_ms, session_p90_ms", ["viewers"], "recovery_longtail"),
    _m("widevine.provision_ms", "ms", "lower",
       lambda v: v.setup_ms("widevine.provision"),
       "setup_s (set-up); study_s", ["viewers"], "recovery_longtail"),
    _m("widevine.decrypt_ms", "ms/op", "lower",
       lambda v: v.ms("widevine.decrypt"),
       "session_p50_ms", ["viewers"], "recovery_longtail"),
    _m("widevine.decrypt_calls", "count", "lower",
       lambda v: v.calls("widevine.decrypt"),
       "session_p50_ms", ["viewers"], "recovery_longtail"),
    _m("android.codec_ms", "ms/op", "lower",
       lambda v: v.ms("android.codec"),
       "session_p50_ms", ["viewers"], "recovery_longtail"),
    _m("android.frames", "count", "higher",
       lambda v: v.calls("android.codec"),
       "session_p50_ms", ["viewers"], "recovery_longtail"),
    _m("android.device_boot_ms", "ms", "lower",
       lambda v: v.setup_ms("android.device_boot"),
       "setup_s (set-up)", ["viewers"], "recovery_longtail"),
    _m("license_server.issue_ms", "ms/op", "lower",
       lambda v: v.ms("license_server.issue"),
       "session_p90_ms, sessions_per_s", ["viewers"], "recovery_longtail"),
    _m("license_server.requests", "count", "lower",
       lambda v: v.calls("license_server.issue"),
       "session_p90_ms, sessions_per_s", ["viewers"], "recovery_longtail"),
    _m("license_server.grant_ratio", "ratio", "higher",
       lambda v: v.ratio(v.extra("license_server.issue", "granted"),
                         v.calls("license_server.issue")),
       "session_p90_ms, sessions_per_s", ["viewers"], "recovery_longtail"),
    _m("license_server.provision_ms", "ms", "lower",
       lambda v: v.setup_ms("license_server.provision"),
       "setup_s (set-up)", ["viewers"], "recovery_longtail"),
    _m("net.http_requests", "count", "lower",
       lambda v: v.calls("net.http"),
       "recover_p50_ms", ["recovery_longtail", "table1"], "fleet_resubmit (warm)"),
    _m("net.http_self_ms", "ms/op", "lower",
       lambda v: v.self_ms("net.http"),
       "recover_p50_ms", ["recovery_longtail", "table1"], "fleet_resubmit (warm)"),
    _m("net.cdn_ms", "ms/op", "lower",
       lambda v: v.ms("net.cdn"),
       "recover_p50_ms", ["recovery_longtail"], "fleet_resubmit (warm)"),
    _m("net.cdn_requests", "count", "lower",
       lambda v: v.calls("net.cdn"),
       "recover_p50_ms", ["recovery_longtail"], "fleet_resubmit (warm)"),
    _m("net.cdn_mb", "MB", "lower",
       lambda v: v.extra("net.cdn", "bytes") / 1e6,
       "recover_p50_ms, media_mb_per_s", ["recovery_longtail"], "fleet_resubmit (warm)"),
    _m("net.proxy_ms", "ms/op", "lower",
       lambda v: v.ms("net.proxy"),
       "study_s", ["table1"], "viewers, recovery_longtail"),
    _m("dash.mpd_parse_ms", "ms/op", "lower",
       lambda v: v.ms("dash.mpd_parse"),
       "study_s", ["table1"], "fleet_resubmit (warm)"),
    _m("dash.package_ms", "ms/op", "lower",
       lambda v: v.ms("dash.package"),
       "study_s (world rebuilt each op); setup_s", ["table1"], "viewers"),
    _m("dash.segment_cache_hit_ratio", "ratio", "higher",
       lambda v: v.cache_ratio(SEGMENT_CACHE),
       "study_s; setup_s", ["table1"], "viewers (no packaging)"),
    _m("bmff.read_samples_ms", "ms/op", "lower",
       lambda v: v.ms("bmff.read_samples"),
       "recover_p50_ms, media_mb_per_s", ["recovery_longtail"], "fleet_resubmit"),
    _m("bmff.samples", "count", "higher",
       lambda v: v.extra("bmff.read_samples", "samples"),
       "recover_p50_ms, media_mb_per_s", ["recovery_longtail"], "fleet_resubmit"),
    _m("bmff.build_segment_ms", "ms/op", "lower",
       lambda v: v.ms("bmff.build_segment"),
       "recover_p50_ms, media_mb_per_s", ["recovery_longtail"], "fleet_resubmit"),
    _m("bmff.cenc_decrypt_ms", "ms/op", "lower",
       lambda v: v.self_ms("bmff.cenc_decrypt"),
       "recover_p50_ms, media_mb_per_s", ["recovery_longtail"], "fleet_resubmit"),
    _m("media.probe_ms", "ms/op", "lower",
       lambda v: v.ms("media.probe"),
       "recover_p50_ms; study_s", ["recovery_longtail"], "viewers"),
    _m("ott.session_self_ms", "ms/op", "lower",
       lambda v: v.self_ms("ott.session"),
       "session_p50_ms; study_s", ["viewers", "table1"], "recovery_longtail"),
    _m("ott.backend_build_ms", "ms/op", "lower",
       lambda v: v.ms("ott.backend_build"),
       "study_s", ["table1"], "recovery_longtail"),
    _m("core.world_build_ms", "ms/op", "lower",
       lambda v: v.ms("core.world_build"),
       "study_s", ["table1"], "viewers"),
    _m("core.audit_ms", "ms/op", "lower",
       lambda v: v.ms("core.audit"),
       "study_s", ["table1"], "viewers"),
    _m("core.key_usage_ms", "ms/op", "lower",
       lambda v: v.ms("core.key_usage"),
       "study_s", ["table1"], "viewers"),
    _m("core.legacy_probe_ms", "ms/op", "lower",
       lambda v: v.ms("core.legacy_probe"),
       "study_s", ["table1"], "viewers"),
    _m("core.keyladder_ms", "ms/op", "lower",
       lambda v: v.ms("core.keyladder"),
       "attack_sweep_s", ["table1"], "viewers"),
    _m("core.recover_ms", "ms/op", "lower",
       lambda v: v.ms("core.recover"),
       "attack_sweep_s; recover_p50_ms", ["table1", "recovery_longtail"], "viewers"),
    _m("analysis.static_ms", "ms/op", "lower",
       lambda v: v.ms("analysis.static"),
       "study_s, incremental_resubmit_p50_ms", ["table1"], "viewers, recovery_longtail"),
    _m("analysis.dataflow_ms", "ms/op", "lower",
       lambda v: v.ms("analysis.dataflow"),
       "study_s, incremental_resubmit_p50_ms", ["table1"], "viewers, recovery_longtail"),
    _m("analysis.crosscheck_ms", "ms/op", "lower",
       lambda v: v.ms("analysis.crosscheck"),
       "study_s, incremental_resubmit_p50_ms", ["table1"], "viewers, recovery_longtail"),
    _m("instrumentation.memscan_ms", "ms/op", "lower",
       lambda v: v.ms("instrumentation.memscan"),
       "attack_sweep_s", ["table1"], "viewers, recovery_longtail, fleet_resubmit"),
    _m("instrumentation.attach_ms", "ms/op", "lower",
       lambda v: v.ms("instrumentation.attach"),
       "study_s, attack_sweep_s", ["table1"], "viewers, recovery_longtail, fleet_resubmit"),
    _m("fleet.store_get_ms", "ms/op", "lower",
       lambda v: v.ms("fleet.store_get"),
       "warm_resubmit_p50_ms", ["fleet_resubmit"], "table1, viewers, recovery_longtail"),
    _m("fleet.store_put_ms", "ms/op", "lower",
       lambda v: v.ms("fleet.store_put"),
       "incremental_resubmit_p50_ms", ["fleet_resubmit"], "table1, viewers, recovery_longtail"),
    _m("fleet.submit_self_ms", "ms/op", "lower",
       lambda v: v.self_ms("fleet.submit"),
       "warm_resubmit_p50_ms, incremental_resubmit_p50_ms", ["fleet_resubmit"],
       "table1, viewers, recovery_longtail"),
    _m("fleet.cells_computed", "count", "lower",
       lambda v: v.extra("fleet.submit", "computed"),
       "incremental_resubmit_p50_ms", ["fleet_resubmit"], "table1, viewers, recovery_longtail"),
    _m("fleet.cache_hit_ratio", "ratio", "higher",
       lambda v: v.ratio(v.extra("fleet.submit", "cache_hits"),
                         v.extra("fleet.submit", "cells")),
       "warm_resubmit_p50_ms", ["fleet_resubmit"], "table1, viewers, recovery_longtail"),
    _m("obs.trace_overhead_pct", "%", "lower",
       lambda v: v.trace_overhead_pct,
       "study_s if the default-on bus is made cheaper", ["table1"], "none"),
    _m("obs.spans_per_op", "spans/op", "lower",
       lambda v: v.program_spans / v.ops,
       "study_s if the default-on bus is made cheaper", ["table1"], "none"),
)

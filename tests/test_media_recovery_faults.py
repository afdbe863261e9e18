"""§IV-D media recovery survives a broken asset: the failure stays on
its own track, with a note, and every other track still recovers."""

from __future__ import annotations

import dataclasses

import pytest

from repro.bmff.boxes import SencEntry, SubsampleRange
from repro.bmff.builder import build_init_segment, build_media_segment, read_track_info
from repro.bmff.cenc import CencSample
from repro.core.media_recovery import MediaRecoveryPipeline
from repro.license_server.provisioning import KeyboxAuthority
from repro.net.http import HttpRequest
from repro.net.network import Network
from repro.ott.backend import OttBackend
from repro.ott.registry import profile_by_name


@pytest.fixture
def title():
    """A fresh one-title Disney+ world (the CDN gets damaged per test)."""
    network = Network()
    profile = dataclasses.replace(profile_by_name("Disney+"), title_count=1)
    backend = OttBackend(profile, network, KeyboxAuthority())
    ((title_id, packaged),) = backend.packaged.items()
    mpd_url = f"https://{profile.cdn_host}{packaged.mpd_path}"
    pipeline = MediaRecoveryPipeline(network)

    def recover():
        return pipeline.recover(
            profile.service, mpd_url, dict(packaged.content_keys)
        )

    return backend.cdn, f"/{profile.service}/{title_id}", recover


def _by_rep(recovered):
    return {track.rep_id: track for track in recovered.tracks}


def _assert_others_intact(damaged, intact, broken_rep):
    for rep_id, track in _by_rep(intact).items():
        if rep_id == broken_rep:
            continue
        assert _by_rep(damaged)[rep_id] == track, rep_id


def test_missing_segment_fails_only_its_track(title):
    cdn, base, recover = title
    intact = recover()
    cdn.remove(f"{base}/a-en/seg-0001.m4s")
    recovered = recover()
    broken = _by_rep(recovered)["a-en"]
    assert not broken.decrypted and not broken.playable
    assert "download failed" in broken.note and "404" in broken.note
    assert "a-en/seg-0001.m4s" in broken.note
    assert broken.clear_init == b"" and broken.clear_segments == []
    _assert_others_intact(recovered, intact, "a-en")
    assert recovered.succeeded
    assert recovered.best_video_height == intact.best_video_height


def test_missing_init_fails_only_its_track(title):
    cdn, base, recover = title
    intact = recover()
    cdn.remove(f"{base}/v540/init.mp4")
    recovered = recover()
    broken = _by_rep(recovered)["v540"]
    assert not broken.decrypted and not broken.playable
    assert "404" in broken.note
    _assert_others_intact(recovered, intact, "v540")


def test_missing_subtitle_fails_only_its_track(title):
    cdn, base, recover = title
    intact = recover()
    cdn.remove(f"{base}/t-fr/subs.vtt")
    recovered = recover()
    broken = _by_rep(recovered)["t-fr"]
    assert not broken.playable and "404" in broken.note
    _assert_others_intact(recovered, intact, "t-fr")


def test_unparsable_segment_fails_only_its_track(title):
    cdn, base, recover = title
    intact = recover()
    cdn.put(f"{base}/a-fr/seg-0002.m4s", b"\x00\x00\x00\x08junk" * 4)
    recovered = recover()
    broken = _by_rep(recovered)["a-fr"]
    assert not broken.decrypted and not broken.playable
    assert broken.note.startswith("asset unusable")
    _assert_others_intact(recovered, intact, "a-fr")


def test_undecryptable_sample_fails_only_its_track(title):
    cdn, base, recover = title
    intact = recover()
    # Parses as a protected segment, but the subsample map covers 2 of
    # the sample's 64 bytes: CencDecryptError at decryption.
    bad = CencSample(
        data=bytes(64),
        entry=SencEntry(iv=bytes(8), subsamples=[SubsampleRange(1, 1)]),
    )
    cdn.put(f"{base}/v720/seg-0000.m4s", build_media_segment(1, [bad], iv_size=8))
    recovered = recover()
    broken = _by_rep(recovered)["v720"]
    assert not broken.decrypted and not broken.playable
    assert "subsample map covers 2 bytes" in broken.note
    _assert_others_intact(recovered, intact, "v720")


@pytest.mark.parametrize(
    "iv_size, scheme, error",
    [
        (0, "cenc", "CENC IV must be 8 or 16 bytes"),
        (8, "cbcs", "cbcs IV must be 16 bytes"),
    ],
)
def test_iv_size_unfit_for_the_scheme_fails_only_its_track(
    title, iv_size, scheme, error
):
    """The track's assets are replaced by ones that parse, but whose
    ``tenc`` IV size the scheme cannot use."""
    cdn, base, recover = title
    intact = recover()
    init_path = f"{base}/v540/init.mp4"
    init = cdn.handle(HttpRequest("GET", cdn.url_for(init_path))).body
    info = read_track_info(init)
    cdn.put(
        init_path,
        build_init_segment(
            kind=info.kind,
            codec=info.codec,
            default_kid=info.default_kid,
            iv_size=iv_size,
            scheme=scheme,
        ),
    )
    sample = CencSample(
        data=bytes(64),
        entry=SencEntry(iv=bytes(iv_size), subsamples=[SubsampleRange(16, 48)]),
    )
    for index in range(len(_by_rep(intact)["v540"].clear_segments)):
        cdn.put(
            f"{base}/v540/seg-{index:04d}.m4s",
            build_media_segment(index + 1, [sample], iv_size=iv_size),
        )
    recovered = recover()
    broken = _by_rep(recovered)["v540"]
    assert not broken.decrypted and not broken.playable
    assert broken.note == f"asset unusable: {error}"
    _assert_others_intact(recovered, intact, "v540")

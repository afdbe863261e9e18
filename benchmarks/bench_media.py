"""Media-plane micro-benchmarks: the per-segment and per-request work of
the §IV-D DRM-free rebuild.

Not a paper artefact — these time the fragmented-MP4 readers and writer
(:mod:`repro.bmff.builder`), the URL parse every HTTP hop performs, and
one :meth:`MediaRecoveryPipeline.recover` hot (keystream-cached) and
cold (every keystream run generated, a track per batch), so a
regression in the media plane shows up apart from the crypto substrate.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.bmff.builder import (
    build_init_segment,
    build_media_segment,
    read_samples,
    read_track_info,
)
from repro.bmff.cenc import decrypt_sample, encrypt_sample, iv_sequence
from repro.core.media_recovery import MediaRecoveryPipeline
from repro.crypto.modes import _keystream_blocks
from repro.license_server.provisioning import KeyboxAuthority
from repro.media.codecs import generate_sample, sample_header_length
from repro.net.http import parse_url
from repro.net.network import Network
from repro.ott.backend import OttBackend
from repro.ott.registry import profile_by_name

_KEY = bytes(range(16))
_KID = bytes(reversed(range(16)))
# Four samples a segment, as the packager emits them.
_SAMPLES = [generate_sample("video", "bench/v", i, 300) for i in range(4)]


@pytest.fixture(scope="module")
def protected_samples():
    ivs = iv_sequence(b"bench-media", len(_SAMPLES))
    return [
        encrypt_sample(s, _KEY, iv, clear_header=sample_header_length())
        for s, iv in zip(_SAMPLES, ivs)
    ]


def test_bench_read_samples_protected(benchmark, protected_samples):
    segment = build_media_segment(1, protected_samples)
    samples, protected = benchmark(read_samples, segment, iv_size=8)
    assert protected
    assert [decrypt_sample(s, _KEY) for s in samples] == _SAMPLES


def test_bench_read_track_info(benchmark):
    init = build_init_segment(kind="video", codec="synh264", default_kid=_KID)
    info = benchmark(read_track_info, init)
    assert info.protected and info.default_kid == _KID
    assert info.codec == "synh264"


def test_bench_build_media_segment(benchmark, protected_samples):
    segment = benchmark(build_media_segment, 1, protected_samples)
    assert read_samples(segment)[0] == protected_samples


def test_bench_parse_url(benchmark):
    # Every hop after a request's first parses the same string: a hit.
    raw = "https://cdn.example/title/v540/seg-00017.m4s?token=0123456789abcdef"
    parse_url(raw)
    hits = parse_url.cache_info().hits
    url = benchmark(parse_url, raw)
    assert url.path == "/title/v540/seg-00017.m4s"
    assert url.query == {"token": "0123456789abcdef"}
    assert parse_url.cache_info().hits > hits


@pytest.fixture(scope="module")
def recovery_title():
    network = Network()
    profile = dataclasses.replace(profile_by_name("Showtime"), title_count=1)
    backend = OttBackend(profile, network, KeyboxAuthority())
    (packaged,) = backend.packaged.values()
    mpd_url = f"https://{profile.cdn_host}{packaged.mpd_path}"
    return (
        MediaRecoveryPipeline(network),
        profile.service,
        mpd_url,
        dict(packaged.content_keys),
    )


def _digest(recovered) -> str:
    digest = hashlib.sha256()
    for track in recovered.tracks:
        digest.update(track.clear_init)
        for segment in track.clear_segments:
            digest.update(segment)
    return digest.hexdigest()


def test_bench_recover_hot(benchmark, recovery_title):
    pipeline, service, mpd_url, keys = recovery_title
    # The first recovery fills the keystream cache; the timed ones hit it.
    reference = pipeline.recover(service, mpd_url, keys)
    assert reference.succeeded
    recovered = benchmark(pipeline.recover, service, mpd_url, keys)
    assert recovered.best_video_height == reference.best_video_height
    assert _digest(recovered) == _digest(reference)


def test_bench_recover_cold(benchmark, recovery_title):
    pipeline, service, mpd_url, keys = recovery_title
    reference = pipeline.recover(service, mpd_url, keys)

    def cold():
        # Every round misses the keystream LRU on every run.
        _keystream_blocks.cache_clear()

    recovered = benchmark.pedantic(
        pipeline.recover,
        args=(service, mpd_url, keys),
        setup=cold,
        rounds=5,
        iterations=1,
    )
    info = _keystream_blocks.cache_info()
    assert info.hits == 0 and info.misses > 0
    assert _digest(recovered) == _digest(reference)

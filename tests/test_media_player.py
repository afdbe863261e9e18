"""Reference player: clear / encrypted / corrupt classification."""

import pytest

from repro.bmff.boxes import Box, find_first, parse_boxes, serialize_boxes
from repro.bmff.builder import build_init_segment, build_media_segment
from repro.bmff.cenc import encrypt_sample, iv_sequence
from repro.media.codecs import generate_sample, sample_header_length
from repro.media.player import AssetStatus, probe_subtitle, probe_track
from repro.media.subtitles import build_webvtt

_KEY = bytes(range(16))
_KID = bytes(16)


def _samples(count: int = 4) -> list[bytes]:
    return [generate_sample("video", "p/v", i, 80) for i in range(count)]


def _encrypted_pair():
    samples = _samples()
    ivs = iv_sequence(b"p", len(samples))
    enc = [
        encrypt_sample(s, _KEY, iv, clear_header=sample_header_length())
        for s, iv in zip(samples, ivs)
    ]
    init = build_init_segment(kind="video", codec="c", default_kid=_KID)
    return init, [build_media_segment(1, enc)]


class TestProbeTrack:
    def test_clear(self):
        init = build_init_segment(kind="video", codec="c")
        probe = probe_track(init, [build_media_segment(1, _samples())])
        assert probe.status is AssetStatus.CLEAR
        assert probe.samples_valid == probe.samples_total == 4
        assert not probe.declared_protected

    def test_encrypted(self):
        init, segments = _encrypted_pair()
        probe = probe_track(init, segments)
        assert probe.status is AssetStatus.ENCRYPTED
        assert probe.declared_protected
        assert probe.default_kid == _KID
        assert probe.samples_valid == 0

    def test_corrupt_container(self):
        probe = probe_track(b"garbage", [])
        assert probe.status is AssetStatus.CORRUPT

    def test_corrupt_segment(self):
        init = build_init_segment(kind="video", codec="c")
        probe = probe_track(init, [b"not a segment"])
        assert probe.status is AssetStatus.CORRUPT

    def test_hostile_typed_payload_is_corrupt_not_a_crash(self):
        # A protected segment whose saio carries a 2-byte payload: every
        # box header is consistent, only the typed payload is short.
        init, (segment,) = _encrypted_pair()
        tree = parse_boxes(segment)
        traf = find_first(tree, b"moof", b"traf")
        traf.children[-1] = Box(box_type=b"saio", payload=bytes(4 + 2))
        probe = probe_track(init, [serialize_boxes(tree)])
        assert probe.status is AssetStatus.CORRUPT
        assert probe.notes == ("segment parse error: saio payload too short",)

    def test_hostile_saiz_count_is_corrupt(self):
        # A 17-byte saiz claiming 2,000,000 samples of the default size.
        init, (segment,) = _encrypted_pair()
        tree = parse_boxes(segment)
        traf = find_first(tree, b"moof", b"traf")
        index = [c.box_type for c in traf.children].index(b"saiz")
        hostile = bytes(4) + bytes([16]) + (2_000_000).to_bytes(4, "big")
        traf.children[index] = Box(box_type=b"saiz", payload=hostile)
        probe = probe_track(init, [serialize_boxes(tree)])
        assert probe.status is AssetStatus.CORRUPT
        assert probe.notes[0].startswith(
            "segment parse error: saiz sample count 2000000 exceeds"
        )

    def test_hostile_senc_count_is_corrupt(self):
        # A track declaring no per-sample IV, whose senc claims 2,000,000
        # entries that take no bytes.
        init = build_init_segment(kind="video", codec="c", default_kid=_KID, iv_size=0)
        tree = parse_boxes(build_media_segment(1, _samples()))
        find_first(tree, b"moof", b"traf").children.append(
            Box(box_type=b"senc", payload=bytes(4) + (2_000_000).to_bytes(4, "big"))
        )
        probe = probe_track(init, [serialize_boxes(tree)])
        assert probe.status is AssetStatus.CORRUPT
        assert probe.notes[0].startswith(
            "segment parse error: senc sample count 2000000 exceeds"
        )

    def test_clear_container_with_garbage_samples(self):
        init = build_init_segment(kind="video", codec="c")
        segment = build_media_segment(1, [b"\xde\xad\xbe\xef" * 30])
        probe = probe_track(init, [segment])
        assert probe.status is AssetStatus.CORRUPT

    def test_declared_protected_but_clear_is_flagged(self):
        # A packager bug: protected init, clear payloads.
        init = build_init_segment(kind="video", codec="c", default_kid=_KID)
        segment = build_media_segment(1, _samples())
        probe = probe_track(init, [segment])
        assert probe.status is AssetStatus.CLEAR
        assert any("declared protected" in note for note in probe.notes)

    def test_no_segments_encrypted_declaration(self):
        init = build_init_segment(kind="video", codec="c", default_kid=_KID)
        probe = probe_track(init, [])
        assert probe.status is AssetStatus.ENCRYPTED

    def test_kind_and_codec_reported(self):
        init = build_init_segment(kind="audio", codec="synaac")
        probe = probe_track(init, [])
        assert probe.kind == "audio"
        assert probe.codec == "synaac"


class TestProbeSubtitle:
    def test_clear_webvtt(self):
        assert probe_subtitle(build_webvtt("t", "en", 12)) is AssetStatus.CLEAR

    def test_encrypted_bytes(self):
        from repro.crypto.rng import derive_rng

        blob = derive_rng("subtitle-noise").generate(400)
        assert probe_subtitle(blob) is AssetStatus.ENCRYPTED

    def test_ascii_but_not_vtt(self):
        assert probe_subtitle(b"just some ascii text " * 10) is AssetStatus.CORRUPT


class TestCatalog:
    def test_default_catalog(self):
        from repro.media.catalog import default_catalog

        catalog = default_catalog("svc", title_count=3)
        assert len(catalog) == 3
        assert all(t.title_id.startswith("svc") for t in catalog)

    def test_duplicate_rejected(self):
        from repro.media.catalog import Catalog
        from repro.media.content import make_title

        catalog = Catalog(service="s")
        catalog.add(make_title("t1", "A"))
        with pytest.raises(ValueError, match="duplicate"):
            catalog.add(make_title("t1", "B"))

    def test_get_unknown(self):
        from repro.media.catalog import Catalog

        with pytest.raises(KeyError, match="unknown title"):
            Catalog(service="s").get("missing")

    def test_contains(self):
        from repro.media.catalog import Catalog
        from repro.media.content import make_title

        catalog = Catalog(service="s")
        catalog.add(make_title("t1", "A"))
        assert "t1" in catalog
        assert "t2" not in catalog

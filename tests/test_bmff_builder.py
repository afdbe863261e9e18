"""Fragmented-MP4 builder/reader and Widevine PSSH payloads."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bmff.boxes import (
    Box,
    BoxParseError,
    SaioBox,
    SaizBox,
    SencBox,
    SencEntry,
    SubsampleRange,
    find_first,
    parse_boxes,
    serialize_boxes,
    walk_boxes,
)
from repro.bmff.builder import (
    TrackInfo,
    build_init_segment,
    build_media_segment,
    read_pssh_boxes,
    read_samples,
    read_track_info,
)
from repro.bmff.cenc import (
    CencSample,
    encrypt_sample,
    encrypt_sample_cbcs,
    iv_sequence,
)
from repro.bmff.pssh import (
    WIDEVINE_SYSTEM_ID,
    WidevinePsshData,
    build_widevine_pssh,
    parse_widevine_pssh,
)

_KEY = bytes(range(16))
_KID = bytes(reversed(range(16)))


class TestInitSegment:
    def test_clear_video(self):
        info = read_track_info(build_init_segment(kind="video", codec="synh264"))
        assert info.kind == "video"
        assert info.codec == "synh264"
        assert not info.protected
        assert info.default_kid is None

    def test_protected_audio(self):
        init = build_init_segment(kind="audio", codec="synaac", default_kid=_KID)
        info = read_track_info(init)
        assert info.kind == "audio"
        assert info.protected
        assert info.default_kid == _KID
        assert info.iv_size == 8

    def test_protected_with_16_byte_iv(self):
        init = build_init_segment(
            kind="video", codec="c", default_kid=_KID, iv_size=16
        )
        assert read_track_info(init).iv_size == 16

    def test_text_track(self):
        info = read_track_info(build_init_segment(kind="text", codec="wvtt"))
        assert info.kind == "text"

    def test_track_id_round_trip(self):
        init = build_init_segment(kind="video", codec="c", track_id=7)
        assert read_track_info(init).track_id == 7

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown track kind"):
            build_init_segment(kind="smellovision", codec="c")

    def test_pssh_embedding(self):
        pssh = build_widevine_pssh([_KID], provider="acme")
        init = build_init_segment(
            kind="video", codec="c", default_kid=_KID, pssh=[pssh]
        )
        boxes = read_pssh_boxes(init)
        assert len(boxes) == 1
        assert boxes[0].system_id == WIDEVINE_SYSTEM_ID

    def test_no_pssh_in_clear_init(self):
        assert read_pssh_boxes(build_init_segment(kind="video", codec="c")) == []

    def test_read_track_info_rejects_garbage(self):
        with pytest.raises((BoxParseError, ValueError)):
            read_track_info(b"not an mp4 at all")


class TestMediaSegment:
    def test_clear_round_trip(self):
        samples = [b"sample-%d" % i * 4 for i in range(3)]
        segment = build_media_segment(1, samples)
        parsed, protected = read_samples(segment)
        assert not protected
        assert [s.data for s in parsed] == samples

    def test_protected_round_trip(self):
        clear = [bytes([i]) * 50 for i in range(4)]
        ivs = iv_sequence(b"t", 4)
        enc = [encrypt_sample(s, _KEY, iv, clear_header=8) for s, iv in zip(clear, ivs)]
        segment = build_media_segment(2, enc)
        parsed, protected = read_samples(segment)
        assert protected
        assert len(parsed) == 4
        assert parsed[0].entry.subsamples[0].clear_bytes == 8
        assert [s.entry.iv for s in parsed] == ivs

    def test_protected_round_trip_without_iv_or_subsamples(self):
        # Every auxiliary-info size is 0, so saiz must carry its table:
        # a default size of 0 announces one.
        samples = [
            CencSample(data=bytes([i]) * (20 + i), entry=SencEntry(iv=b"", subsamples=[]))
            for i in range(3)
        ]
        segment = build_media_segment(4, samples, iv_size=0)
        tree = parse_boxes(segment, iv_size_hint=0)
        assert find_first(tree, b"moof", b"traf", b"saiz").sample_sizes == [0, 0, 0]
        parsed, protected = read_samples(segment, iv_size=0)
        assert protected
        assert [(s.data, s.entry.iv, s.entry.subsamples) for s in parsed] == [
            (s.data, b"", []) for s in samples
        ]

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            build_media_segment(1, [])

    def test_mixing_clear_and_protected_rejected(self):
        enc = encrypt_sample(bytes(20), _KEY, bytes(8))
        with pytest.raises(TypeError, match="mix"):
            build_media_segment(1, [enc, b"clear"])
        with pytest.raises(TypeError, match="mix"):
            build_media_segment(1, [b"clear", enc])

    def test_read_samples_rejects_garbage(self):
        with pytest.raises((BoxParseError, ValueError)):
            read_samples(b"nonsense")

    def test_read_samples_rejects_missing_mdat(self):
        from repro.bmff.boxes import Box, serialize_boxes

        blob = serialize_boxes([Box(box_type=b"styp", payload=b"msdh")])
        with pytest.raises(BoxParseError, match="lacks trun or mdat"):
            read_samples(blob)

    def test_read_samples_rejects_hostile_saiz_count(self):
        # read_samples never looks at saiz, but the walk validates it.
        enc = [encrypt_sample(bytes(30), _KEY, bytes(8), clear_header=8)] * 2
        tree = parse_boxes(build_media_segment(1, enc))
        traf = find_first(tree, b"moof", b"traf")
        saiz = find_first(tree, b"moof", b"traf", b"saiz")
        assert saiz.sample_sizes == [16, 16]
        hostile = bytes(4) + bytes([16]) + struct.pack(">I", 2_000_000)
        traf.children[traf.children.index(saiz)] = Box(box_type=b"saiz", payload=hostile)
        with pytest.raises(BoxParseError, match="saiz sample count 2000000"):
            read_samples(serialize_boxes(tree))

    def test_read_samples_rejects_hostile_senc_count(self):
        tree = parse_boxes(build_media_segment(1, [bytes(7), bytes(9)]))
        find_first(tree, b"moof", b"traf").children.append(
            Box(box_type=b"senc", payload=bytes(4) + struct.pack(">I", 2_000_000))
        )
        with pytest.raises(BoxParseError, match="senc sample count 2000000"):
            read_samples(serialize_boxes(tree), iv_size=0)

    @settings(max_examples=20)
    @given(
        samples=st.lists(
            st.binary(min_size=1, max_size=60), min_size=1, max_size=6
        )
    )
    def test_clear_property_round_trip(self, samples):
        parsed, _ = read_samples(build_media_segment(9, samples))
        assert [s.data for s in parsed] == samples


class TestWidevinePsshData:
    def test_round_trip(self):
        data = WidevinePsshData(
            key_ids=[_KID], provider="acme", content_id=b"tt001"
        )
        parsed = WidevinePsshData.parse(data.serialize())
        assert parsed.key_ids == [_KID]
        assert parsed.provider == "acme"
        assert parsed.content_id == b"tt001"
        assert parsed.protection_scheme == "cenc"

    def test_empty_fields(self):
        parsed = WidevinePsshData.parse(WidevinePsshData().serialize())
        assert parsed.key_ids == []
        assert parsed.provider == ""

    def test_multiple_key_ids(self):
        kids = [bytes([i]) * 16 for i in range(5)]
        parsed = WidevinePsshData.parse(WidevinePsshData(key_ids=kids).serialize())
        assert parsed.key_ids == kids

    def test_bad_key_id_rejected(self):
        with pytest.raises(ValueError, match="16 bytes"):
            WidevinePsshData(key_ids=[b"short"]).serialize()

    def test_truncated_tlv_rejected(self):
        blob = WidevinePsshData(key_ids=[_KID]).serialize()
        with pytest.raises(ValueError, match="truncated"):
            WidevinePsshData.parse(blob[:-3])

    def test_unknown_tags_skipped(self):
        import struct

        blob = struct.pack(">BH", 99, 4) + b"junk"
        blob += WidevinePsshData(provider="p").serialize()
        assert WidevinePsshData.parse(blob).provider == "p"

    def test_parse_widevine_pssh_rejects_other_system(self):
        from repro.bmff.boxes import PsshBox
        from repro.bmff.pssh import PLAYREADY_SYSTEM_ID

        box = PsshBox(box_type=b"pssh", system_id=PLAYREADY_SYSTEM_ID)
        with pytest.raises(ValueError, match="not a Widevine"):
            parse_widevine_pssh(box)

    def test_build_widevine_pssh_carries_kids_in_both_layers(self):
        box = build_widevine_pssh([_KID], provider="p", content_id=b"c")
        assert box.key_ids == [_KID]
        assert parse_widevine_pssh(box).key_ids == [_KID]


# -- differential checks against the Box-tree reference ---------------------
#
# The readers and the media-segment writer run on the flat box walker;
# these references do the same jobs through parse_boxes/find_first and
# the Box tree, so the two must agree on every input.


def _reference_read_samples(segment, *, iv_size=8):
    tree = parse_boxes(segment, iv_size_hint=iv_size)
    trun = find_first(tree, b"moof", b"traf", b"trun")
    mdat = find_first(tree, b"mdat")
    if trun is None or mdat is None:
        raise BoxParseError("media segment lacks trun or mdat")
    if len(trun.payload) < 4:
        raise BoxParseError("trun payload too short")
    (count,) = struct.unpack(">I", trun.payload[:4])
    if len(trun.payload) < 4 + 4 * count:
        raise BoxParseError("trun truncated sample sizes")
    sizes = [
        struct.unpack(">I", trun.payload[4 + 4 * i : 8 + 4 * i])[0]
        for i in range(count)
    ]
    if sum(sizes) != len(mdat.payload):
        raise BoxParseError("trun sizes do not cover mdat")
    senc = find_first(tree, b"moof", b"traf", b"senc")
    if senc is not None:
        entries = senc.entries
        if len(entries) != count:
            raise BoxParseError("senc entry count mismatch")
    else:
        entries = [SencEntry(iv=bytes(iv_size)) for _ in range(count)]
    samples, offset = [], 0
    for size, entry in zip(sizes, entries):
        samples.append(
            CencSample(data=mdat.payload[offset : offset + size], entry=entry)
        )
        offset += size
    return samples, senc is not None


_KINDS = {
    b"avc1": ("video", False),
    b"encv": ("video", True),
    b"mp4a": ("audio", False),
    b"enca": ("audio", True),
    b"wvtt": ("text", False),
    b"enct": ("text", True),
}


def _reference_read_track_info(init_segment):
    tree = parse_boxes(init_segment)
    stsd = find_first(tree, b"moov", b"trak", b"mdia", b"minf", b"stbl", b"stsd")
    if stsd is None or not stsd.children:
        raise BoxParseError("init segment has no sample description")
    entry = stsd.children[0]
    if entry.box_type not in _KINDS:
        raise BoxParseError(f"unknown sample entry {entry.fourcc!r}")
    kind, protected = _KINDS[entry.box_type]
    codec = "unknown"
    codc = find_first(entry.children, b"codc")
    if codc is not None:
        codec = codc.payload.decode().split(":", 1)[-1]
    default_kid, iv_size, scheme = None, 8, "cenc"
    if protected:
        tenc = find_first(entry.children, b"sinf", b"schi", b"tenc")
        if tenc is None:
            raise BoxParseError("protected entry lacks a tenc box")
        default_kid, iv_size = tenc.default_kid, tenc.iv_size
        schm = find_first(entry.children, b"sinf", b"schm")
        if schm is not None:
            scheme = schm.scheme_type.decode("latin-1")
    track_id = 1
    tkhd = find_first(tree, b"moov", b"trak", b"tkhd")
    if tkhd is not None and len(tkhd.payload) >= 4:
        (track_id,) = struct.unpack(">I", tkhd.payload[:4])
    return TrackInfo(kind, codec, protected, default_kid, iv_size, track_id, scheme)


def _reference_build_media_segment(sequence_number, samples, *, track_id=1, iv_size=8):
    protected = isinstance(samples[0], CencSample)
    blobs = [s.data for s in samples] if protected else list(samples)
    trun = struct.pack(">I", len(blobs)) + b"".join(
        struct.pack(">I", len(b)) for b in blobs
    )
    traf = [
        Box(box_type=b"tfhd", payload=struct.pack(">I", track_id)),
        Box(box_type=b"trun", payload=trun),
    ]
    if protected:
        entries = [s.entry for s in samples]
        traf += [
            SencBox(box_type=b"senc", entries=entries, iv_size=iv_size),
            SaizBox(
                box_type=b"saiz",
                sample_sizes=[
                    iv_size + (2 + 6 * len(e.subsamples) if e.subsamples else 0)
                    for e in entries
                ],
            ),
            SaioBox(box_type=b"saio", offsets=[0]),
        ]
    return serialize_boxes(
        [
            Box(box_type=b"styp", payload=b"msdh"),
            Box(
                box_type=b"moof",
                children=[
                    Box(box_type=b"mfhd", payload=struct.pack(">I", sequence_number)),
                    Box(box_type=b"traf", children=traf),
                ],
            ),
            Box(box_type=b"mdat", payload=b"".join(blobs)),
        ]
    )


@st.composite
def _media_segments(draw):
    """(samples, iv_size) for one segment: clear, cenc, cbcs, or raw senc
    entries with arbitrary (multi-range) subsample maps."""
    mode = draw(st.sampled_from(["clear", "cenc", "cbcs", "raw"]))
    blobs = draw(st.lists(st.binary(min_size=1, max_size=48), min_size=1, max_size=5))
    if mode == "clear":
        return blobs, draw(st.sampled_from([8, 16]))
    iv_size = 16 if mode == "cbcs" else draw(st.sampled_from([8, 16]))
    if mode == "raw":
        ranges = st.builds(
            SubsampleRange, st.integers(0, 0xFFFF), st.integers(0, 0xFFFFFFFF)
        )
        samples = [
            CencSample(
                data=blob,
                entry=SencEntry(
                    iv=draw(st.binary(min_size=iv_size, max_size=iv_size)),
                    subsamples=draw(st.lists(ranges, max_size=3)),
                ),
            )
            for blob in blobs
        ]
        return samples, iv_size
    encrypt = encrypt_sample_cbcs if mode == "cbcs" else encrypt_sample
    ivs = iv_sequence(b"diff", len(blobs), iv_size=iv_size)
    samples = [
        encrypt(blob, _KEY, iv, clear_header=draw(st.integers(0, len(blob))))
        for blob, iv in zip(blobs, ivs)
    ]
    return samples, iv_size


def _outcome(reader, blob, **kwargs):
    """A reader's result, or the message of the BoxParseError it raised."""
    try:
        return "ok", reader(blob, **kwargs)
    except BoxParseError as exc:
        return "error", str(exc)


def _mutations(blob, iv_size=8):
    """Every truncation, and every box size field set to nearby and
    out-of-range values."""
    for cut in range(len(blob)):
        yield blob[:cut]
    for _, start, _, end, _ in walk_boxes(blob, iv_size_hint=iv_size):
        size = end - start
        for bad in (0, 7, 8, size - 4, size - 1, size + 1, size + 4, 0xFFFFFFFF):
            if 0 <= bad <= 0xFFFFFFFF and bad != size:
                yield blob[:start] + struct.pack(">I", bad) + blob[start + 4 :]


def _init_segments():
    pssh = build_widevine_pssh([_KID], provider="acme")
    return [
        build_init_segment(kind="video", codec="synh264", track_id=3),
        build_init_segment(kind="audio", codec="synaac", default_kid=_KID, pssh=[pssh]),
        build_init_segment(
            kind="text", codec="wvtt", default_kid=_KID, iv_size=16, scheme="cbcs"
        ),
    ]


class TestWalkerMatchesTreeReference:
    @settings(max_examples=60, deadline=None)
    @given(
        segment=_media_segments(),
        sequence=st.integers(0, 0xFFFFFFFF),
        track_id=st.integers(0, 0xFFFFFFFF),
    )
    def test_build_media_segment_equals_tree_serialization(
        self, segment, sequence, track_id
    ):
        samples, iv_size = segment
        assert build_media_segment(
            sequence, samples, track_id=track_id, iv_size=iv_size
        ) == _reference_build_media_segment(
            sequence, samples, track_id=track_id, iv_size=iv_size
        )

    @settings(max_examples=60, deadline=None)
    @given(segment=_media_segments())
    def test_read_samples_equals_reference(self, segment):
        samples, iv_size = segment
        blob = build_media_segment(1, samples, iv_size=iv_size)
        fast = read_samples(blob, iv_size=iv_size)
        assert fast == _reference_read_samples(blob, iv_size=iv_size)
        protected = isinstance(samples[0], CencSample)
        assert fast[1] == protected
        assert [s.data for s in fast[0]] == [
            s.data if protected else s for s in samples
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["video", "audio", "text"]),
        codec=st.text(max_size=12),
        track_id=st.integers(0, 0xFFFFFFFF),
        protected=st.booleans(),
        iv_size=st.sampled_from([0, 8, 16]),
        scheme=st.sampled_from(["cenc", "cbcs"]),
    )
    def test_read_track_info_equals_reference(
        self, kind, codec, track_id, protected, iv_size, scheme
    ):
        init = build_init_segment(
            kind=kind,
            codec=codec,
            track_id=track_id,
            default_kid=_KID if protected else None,
            iv_size=iv_size,
            scheme=scheme,
        )
        assert read_track_info(init) == _reference_read_track_info(init)

    def test_first_match_by_path(self):
        # Two trafs, two trun/senc pairs: both readers take the first.
        first = build_media_segment(
            1, [encrypt_sample(bytes(24), _KEY, bytes(8), clear_header=4)]
        )
        second = build_media_segment(2, [bytes(7), bytes(9)])
        tree = parse_boxes(first)
        tree[1].children.append(find_first(parse_boxes(second), b"moof", b"traf"))
        blob = serialize_boxes(tree)
        assert _outcome(read_samples, blob) == _outcome(_reference_read_samples, blob)
        samples, protected = read_samples(blob)
        assert protected and len(samples) == 1

    def test_lookups_stay_inside_the_first_sample_entry(self):
        # Two sample entries: only the second carries codc and tenc.
        # Both readers look inside the first one alone.
        init = build_init_segment(kind="video", codec="c2", default_kid=_KID)
        tree = parse_boxes(init)
        stsd = find_first(
            tree, b"moov", b"trak", b"mdia", b"minf", b"stbl", b"stsd"
        )
        stsd.children.insert(0, Box(box_type=b"encv"))
        blob = serialize_boxes(tree)
        assert _outcome(read_track_info, blob) == (
            "error",
            "protected entry lacks a tenc box",
        )
        assert _outcome(_reference_read_track_info, blob) == _outcome(
            read_track_info, blob
        )
        clear = parse_boxes(build_init_segment(kind="video", codec="c2"))
        stsd = find_first(
            clear, b"moov", b"trak", b"mdia", b"minf", b"stbl", b"stsd"
        )
        stsd.children.insert(0, Box(box_type=b"avc1"))
        blob = serialize_boxes(clear)
        assert read_track_info(blob).codec == "unknown"
        assert read_track_info(blob) == _reference_read_track_info(blob)

    @pytest.mark.parametrize("iv_size", [8, 16])
    def test_mutated_media_segments_agree(self, iv_size):
        ivs = iv_sequence(b"mut", 3, iv_size=iv_size)
        protected = [
            encrypt_sample(bytes(20 + i), _KEY, iv, clear_header=i)
            for i, iv in enumerate(ivs)
        ]
        for samples in (protected, [b"clear-%d" % i for i in range(3)]):
            blob = build_media_segment(4, samples, iv_size=iv_size)
            for mutated in _mutations(blob, iv_size):
                assert _outcome(read_samples, mutated, iv_size=iv_size) == _outcome(
                    _reference_read_samples, mutated, iv_size=iv_size
                )

    def test_mutated_init_segments_agree(self):
        for init in _init_segments():
            for mutated in _mutations(init):
                assert _outcome(read_track_info, mutated) == _outcome(
                    _reference_read_track_info, mutated
                )

    def test_short_trun_raises_box_parse_error(self):
        blob = build_media_segment(1, [b"abc", b"def"])
        tree = parse_boxes(blob)
        trun = find_first(tree, b"moof", b"traf", b"trun")
        trun.payload = trun.payload[:8]  # count 2, one size
        with pytest.raises(BoxParseError, match="trun truncated sample sizes"):
            read_samples(serialize_boxes(tree))
        trun.payload = b"\x00\x00"
        with pytest.raises(BoxParseError, match="trun payload too short"):
            read_samples(serialize_boxes(tree))


class TestGoldenSegmentBytes:
    """Segment bytes pinned by digest: the packaged CDN format."""

    def test_protected_media_segment(self):
        samples = [
            CencSample(
                bytes([i]) * (10 + i),
                SencEntry(
                    bytes(range(i, i + 16)),
                    [SubsampleRange(2, 8 + i)] if i % 2 else [],
                ),
            )
            for i in range(3)
        ]
        blob = build_media_segment(7, samples, track_id=3, iv_size=16)
        assert hashlib.sha256(blob).hexdigest() == (
            "437740efa76b63a0f4d90c57196e391e0750a65d1a404ea3285ad40ab0abab73"
        )

    def test_clear_media_segment(self):
        blob = build_media_segment(2, [b"abc", b"defgh"])
        assert hashlib.sha256(blob).hexdigest() == (
            "9c0474a0b4acd6ed0eabf54e170f103c2d4d74fb3b859156631ae12525060770"
        )

    def test_protected_init_segment(self):
        blob = build_init_segment(
            kind="video",
            codec="synh264",
            track_id=2,
            default_kid=bytes(range(16)),
            iv_size=16,
            scheme="cbcs",
            pssh=[build_widevine_pssh([bytes(range(16))], provider="p")],
        )
        assert hashlib.sha256(blob).hexdigest() == (
            "82f6e55afbe8a908c49abc08f9ff8709d82edaf819169c608592b30ecf362df8"
        )

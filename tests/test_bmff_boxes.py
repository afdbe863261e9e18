"""ISO-BMFF box model: round trips, typed boxes, error handling."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bmff.boxes import (
    CONTAINER_TYPES,
    Box,
    BoxParseError,
    FrmaBox,
    FullBox,
    PsshBox,
    SaioBox,
    SaizBox,
    SchmBox,
    SencBox,
    SencEntry,
    SubsampleRange,
    TencBox,
    find_boxes,
    find_first,
    parse_boxes,
    serialize_boxes,
    walk_boxes,
)


def _round_trip(boxes, **kwargs):
    return parse_boxes(serialize_boxes(boxes), **kwargs)


class TestGenericBox:
    def test_leaf_round_trip(self):
        box = Box(box_type=b"mdat", payload=b"hello world")
        (parsed,) = _round_trip([box])
        assert parsed.box_type == b"mdat"
        assert parsed.payload == b"hello world"

    def test_container_round_trip(self):
        tree = Box(
            box_type=b"moov",
            children=[Box(box_type=b"mdat", payload=b"x"), Box(box_type=b"free")],
        )
        (parsed,) = _round_trip([tree])
        assert [c.box_type for c in parsed.children] == [b"mdat", b"free"]

    def test_nested_containers(self):
        tree = Box(
            box_type=b"moov",
            children=[
                Box(
                    box_type=b"trak",
                    children=[Box(box_type=b"mdia", children=[])],
                )
            ],
        )
        (parsed,) = _round_trip([tree])
        assert parsed.find(b"trak", b"mdia")

    def test_multiple_top_level(self):
        boxes = [Box(box_type=b"ftyp", payload=b"a"), Box(box_type=b"mdat")]
        parsed = _round_trip(boxes)
        assert [b.box_type for b in parsed] == [b"ftyp", b"mdat"]

    def test_bad_type_length_rejected(self):
        with pytest.raises(ValueError, match="4 bytes"):
            Box(box_type=b"abc")

    def test_fourcc(self):
        assert Box(box_type=b"moov").fourcc == "moov"

    @given(payload=st.binary(max_size=100))
    def test_payload_round_trip_property(self, payload):
        (parsed,) = _round_trip([Box(box_type=b"blob", payload=payload)])
        assert parsed.payload == payload


class TestParseErrors:
    def test_truncated_header(self):
        with pytest.raises(BoxParseError, match="truncated"):
            parse_boxes(b"\x00\x00\x00")

    def test_size_too_small(self):
        with pytest.raises(BoxParseError, match="bad box size"):
            parse_boxes(b"\x00\x00\x00\x04mdat")

    def test_size_beyond_data(self):
        with pytest.raises(BoxParseError, match="bad box size"):
            parse_boxes(b"\x00\x00\x00\xffmdatshort")

    def test_truncated_fullbox(self):
        blob = b"\x00\x00\x00\x0apssh\x00\x00"
        with pytest.raises(BoxParseError):
            parse_boxes(blob)


class TestTenc:
    def test_round_trip(self):
        kid = bytes(range(16))
        tenc = TencBox(box_type=b"tenc", is_protected=True, iv_size=8, default_kid=kid)
        (parsed,) = _round_trip([tenc])
        assert isinstance(parsed, TencBox)
        assert parsed.default_kid == kid
        assert parsed.iv_size == 8
        assert parsed.is_protected

    def test_unprotected_round_trip(self):
        tenc = TencBox(
            box_type=b"tenc", is_protected=False, iv_size=0, default_kid=bytes(16)
        )
        (parsed,) = _round_trip([tenc])
        assert not parsed.is_protected

    def test_rejects_bad_kid(self):
        with pytest.raises(ValueError, match="16 bytes"):
            TencBox(box_type=b"tenc", default_kid=bytes(8))

    def test_rejects_bad_iv_size(self):
        with pytest.raises(ValueError, match="iv_size"):
            TencBox(box_type=b"tenc", iv_size=12, default_kid=bytes(16))


class TestSenc:
    def test_round_trip_with_subsamples(self):
        entries = [
            SencEntry(iv=bytes(8), subsamples=[SubsampleRange(10, 90)]),
            SencEntry(iv=bytes(range(8)), subsamples=[SubsampleRange(5, 20)]),
        ]
        senc = SencBox(box_type=b"senc", entries=entries, iv_size=8)
        (parsed,) = _round_trip([senc], iv_size_hint=8)
        assert isinstance(parsed, SencBox)
        assert len(parsed.entries) == 2
        assert parsed.entries[0].subsamples[0].protected_bytes == 90
        assert parsed.entries[1].iv == bytes(range(8))

    def test_round_trip_without_subsamples(self):
        senc = SencBox(
            box_type=b"senc", entries=[SencEntry(iv=bytes(8))], iv_size=8
        )
        (parsed,) = _round_trip([senc], iv_size_hint=8)
        assert parsed.entries[0].subsamples == []
        assert parsed.flags == 0

    def test_16_byte_iv(self):
        senc = SencBox(
            box_type=b"senc", entries=[SencEntry(iv=bytes(16))], iv_size=16
        )
        (parsed,) = _round_trip([senc], iv_size_hint=16)
        assert len(parsed.entries[0].iv) == 16

    def test_iv_length_mismatch_rejected_on_serialize(self):
        senc = SencBox(
            box_type=b"senc", entries=[SencEntry(iv=bytes(4))], iv_size=8
        )
        with pytest.raises(ValueError, match="IV length"):
            senc.serialize()


class TestPssh:
    def test_v1_round_trip(self):
        kids = [bytes([i]) * 16 for i in range(3)]
        pssh = PsshBox(
            box_type=b"pssh", system_id=bytes(16), key_ids=kids, data=b"init"
        )
        (parsed,) = _round_trip([pssh])
        assert isinstance(parsed, PsshBox)
        assert parsed.version == 1
        assert parsed.key_ids == kids
        assert parsed.data == b"init"

    def test_v0_round_trip(self):
        pssh = PsshBox(box_type=b"pssh", system_id=bytes(16), data=b"blob")
        (parsed,) = _round_trip([pssh])
        assert parsed.version == 0
        assert parsed.key_ids == []
        assert parsed.data == b"blob"

    def test_rejects_bad_system_id(self):
        with pytest.raises(ValueError, match="system_id"):
            PsshBox(box_type=b"pssh", system_id=bytes(8))

    def test_rejects_bad_key_id_on_serialize(self):
        pssh = PsshBox(box_type=b"pssh", system_id=bytes(16), key_ids=[bytes(4)])
        with pytest.raises(ValueError, match="key id"):
            pssh.serialize()


class TestAuxBoxes:
    def test_saiz_uniform(self):
        saiz = SaizBox(box_type=b"saiz", sample_sizes=[8, 8, 8])
        (parsed,) = _round_trip([saiz])
        assert parsed.sample_sizes == [8, 8, 8]

    def test_saiz_varied(self):
        saiz = SaizBox(box_type=b"saiz", sample_sizes=[8, 14, 20])
        (parsed,) = _round_trip([saiz])
        assert parsed.sample_sizes == [8, 14, 20]

    def test_saio(self):
        saio = SaioBox(box_type=b"saio", offsets=[0, 100, 9999])
        (parsed,) = _round_trip([saio])
        assert parsed.offsets == [0, 100, 9999]

    def test_frma(self):
        frma = FrmaBox(box_type=b"frma", original_format=b"avc1")
        (parsed,) = _round_trip([frma])
        assert parsed.original_format == b"avc1"

    def test_schm(self):
        schm = SchmBox(box_type=b"schm", scheme_type=b"cenc")
        (parsed,) = _round_trip([schm])
        assert parsed.scheme_type == b"cenc"
        assert parsed.scheme_version == 0x00010000


class TestFind:
    def _tree(self):
        return [
            Box(
                box_type=b"moov",
                children=[
                    Box(box_type=b"trak", children=[Box(box_type=b"mdia")]),
                    Box(box_type=b"trak", children=[Box(box_type=b"mdia")]),
                    PsshBox(box_type=b"pssh", system_id=bytes(16)),
                ],
            )
        ]

    def test_find_boxes_multiple(self):
        assert len(find_boxes(self._tree(), b"moov", b"trak")) == 2

    def test_find_deep_path(self):
        assert len(find_boxes(self._tree(), b"moov", b"trak", b"mdia")) == 2

    def test_find_first(self):
        assert find_first(self._tree(), b"moov", b"pssh") is not None

    def test_find_first_missing(self):
        assert find_first(self._tree(), b"moov", b"mvex") is None


def _full_box(box_type, payload, *, version=0, flags=0):
    body = bytes([version]) + flags.to_bytes(3, "big") + payload
    return struct.pack(">I", 8 + len(body)) + box_type + body


class TestMalformedPayloads:
    """Short typed payloads raise BoxParseError, never struct.error."""

    @pytest.mark.parametrize(
        "box_type, payload",
        [
            (b"saio", b"\x00\x00"),  # sample count cut short
            (b"saio", struct.pack(">I", 2) + bytes(4)),  # one offset of two
            (b"saiz", b"\x08\x00"),  # no sample count
            (b"schm", b"cenc"),  # no scheme version
            (b"tenc", bytes(18)),
        ],
    )
    def test_short_payload(self, box_type, payload):
        with pytest.raises(BoxParseError, match=box_type.decode()):
            parse_boxes(_full_box(box_type, payload))

    def test_truncated_senc_subsample_map(self):
        payload = (
            struct.pack(">I", 1)
            + bytes(8)
            + struct.pack(">H", 2)
            + struct.pack(">HI", 1, 2)  # one range of two
        )
        with pytest.raises(BoxParseError, match="senc truncated subsample map"):
            parse_boxes(_full_box(b"senc", payload, flags=0x2))

    def test_truncated_senc_subsample_count(self):
        payload = struct.pack(">I", 1) + bytes(8) + b"\x00"
        with pytest.raises(BoxParseError, match="senc truncated subsample count"):
            parse_boxes(_full_box(b"senc", payload, flags=0x2))

    # Counts of 2,000,000: large enough that a decoder trusting them
    # allocates a list of that size, small enough to be survivable if
    # one does.
    def test_saiz_default_size_count_beyond_the_input(self):
        payload = bytes([8]) + struct.pack(">I", 2_000_000)
        with pytest.raises(BoxParseError, match="saiz sample count 2000000"):
            parse_boxes(_full_box(b"saiz", payload))

    def test_saiz_short_size_table(self):
        payload = bytes([0]) + struct.pack(">I", 3) + bytes([8, 8])
        with pytest.raises(BoxParseError, match="saiz truncated sample sizes"):
            parse_boxes(_full_box(b"saiz", payload))

    def test_senc_empty_entries_count_beyond_the_input(self):
        # No IV and no subsample map: each entry takes no payload bytes.
        payload = struct.pack(">I", 2_000_000)
        with pytest.raises(BoxParseError, match="senc sample count 2000000"):
            parse_boxes(_full_box(b"senc", payload), iv_size_hint=0)
        with pytest.raises(BoxParseError, match="senc sample count 2000000"):
            walk_boxes(_full_box(b"senc", payload), iv_size_hint=0)

    def test_counts_the_input_backs_still_parse(self):
        (saiz,) = parse_boxes(_full_box(b"saiz", bytes([8]) + struct.pack(">I", 17)))
        assert saiz.sample_sizes == [8] * 17
        (senc,) = parse_boxes(
            _full_box(b"senc", struct.pack(">I", 16)), iv_size_hint=0
        )
        assert senc.entries == [SencEntry(iv=b"")] * 16

    def test_truncated_pssh_v1_key_id_count(self):
        # Claims three KIDs, carries one and no data size.
        payload = bytes(16) + struct.pack(">I", 3) + bytes(16)
        with pytest.raises(BoxParseError, match="pssh truncated key ids"):
            parse_boxes(_full_box(b"pssh", payload, version=1))

    def test_pssh_v1_missing_data_size(self):
        payload = bytes(16) + struct.pack(">I", 1) + bytes(16)
        with pytest.raises(BoxParseError, match="pssh"):
            parse_boxes(_full_box(b"pssh", payload, version=1))

    def test_tenc_bad_iv_size(self):
        payload = bytes([0, 1, 12]) + bytes(16)
        with pytest.raises(BoxParseError, match="tenc iv_size 12"):
            parse_boxes(_full_box(b"tenc", payload))

    @pytest.mark.parametrize(
        "cls", [TencBox, SencBox, PsshBox, SaizBox, SaioBox, SchmBox]
    )
    def test_parse_payload_of_empty_payload(self, cls):
        fourcc = cls.__name__[:4].lower()
        box = FullBox(box_type=fourcc.encode())
        with pytest.raises(BoxParseError, match=f"{fourcc} payload too short"):
            parse_boxes(box.serialize())

    def test_malformed_box_nested_in_container(self):
        blob = struct.pack(">I", 8 + len(_full_box(b"saio", b"\x00"))) + b"moof"
        blob += _full_box(b"saio", b"\x00")
        with pytest.raises(BoxParseError, match="saio payload too short"):
            parse_boxes(blob)
        with pytest.raises(BoxParseError, match="saio payload too short"):
            walk_boxes(blob)


class TestWalkBoxes:
    def _blob(self):
        return serialize_boxes(
            [
                Box(box_type=b"ftyp", payload=b"iso6"),
                Box(
                    box_type=b"moov",
                    children=[
                        Box(
                            box_type=b"trak",
                            children=[Box(box_type=b"tkhd", payload=b"abcd")],
                        ),
                        SchmBox(box_type=b"schm", scheme_type=b"cbcs"),
                    ],
                ),
                Box(box_type=b"mdat", payload=b"xy"),
            ]
        )

    def test_the_grammar_nests_sample_entries(self):
        """One immutable grammar: ``stsd`` and the builder's sample
        entries hold child boxes, so ``tenc`` is reached through them."""
        assert isinstance(CONTAINER_TYPES, frozenset)
        entries = {b"avc1", b"encv", b"mp4a", b"enca", b"wvtt", b"enct"}
        assert {b"stsd"} | entries <= CONTAINER_TYPES
        tenc = TencBox(box_type=b"tenc", default_kid=bytes(range(16)))
        blob = Box(box_type=b"stsd", children=[
            Box(box_type=b"encv", children=[
                Box(box_type=b"sinf", children=[
                    Box(box_type=b"schi", children=[tenc]),
                ]),
            ]),
        ]).serialize()
        path, *_, fields = walk_boxes(blob)[-1]
        assert path == (b"stsd", b"encv", b"sinf", b"schi", b"tenc")
        assert fields["default_kid"] == bytes(range(16))

    def test_spans_in_document_order_with_paths(self):
        spans = walk_boxes(self._blob())
        assert [span[0] for span in spans] == [
            (b"ftyp",),
            (b"moov",),
            (b"moov", b"trak"),
            (b"moov", b"trak", b"tkhd"),
            (b"moov", b"schm"),
            (b"mdat",),
        ]

    def test_span_offsets_address_the_bodies(self):
        blob = self._blob()
        bodies = {span[0][-1]: blob[span[2] : span[3]] for span in walk_boxes(blob)}
        assert bodies[b"ftyp"] == b"iso6"
        assert bodies[b"tkhd"] == b"abcd"
        assert bodies[b"mdat"] == b"xy"

    def test_typed_fields_decoded(self):
        (schm,) = [s for s in walk_boxes(self._blob()) if s[0][-1] == b"schm"]
        assert schm[4]["scheme_type"] == b"cbcs"
        assert schm[4]["scheme_version"] == 0x00010000

    def test_untyped_boxes_carry_no_fields(self):
        assert all(
            span[4] is None for span in walk_boxes(self._blob())
            if span[0][-1] != b"schm"
        )

    def test_empty_input(self):
        assert walk_boxes(b"") == []

    def test_short_frma_reads_only_its_own_body(self):
        blob = serialize_boxes(
            [
                Box(
                    box_type=b"sinf",
                    children=[
                        Box(box_type=b"frma", payload=b"av"),
                        SchmBox(box_type=b"schm", scheme_type=b"cenc"),
                    ],
                )
            ]
        )
        (sinf,) = parse_boxes(blob)
        assert isinstance(sinf.children[0], FrmaBox)
        assert sinf.children[0].original_format == b"av"
        assert walk_boxes(blob)[1][4] == {"original_format": b"av"}

    @pytest.mark.parametrize(
        "blob",
        [b"\x00\x00\x00", b"\x00\x00\x00\x04mdat", b"\x00\x00\x00\xffmdatshort"],
    )
    def test_same_errors_as_parse_boxes(self, blob):
        with pytest.raises(BoxParseError) as walked:
            walk_boxes(blob)
        with pytest.raises(BoxParseError) as parsed:
            parse_boxes(blob)
        assert str(walked.value) == str(parsed.value)

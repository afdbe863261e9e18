"""Fragmented-MP4 building and inspection.

Builds DASH-style init and media segments — clear or CENC-protected —
and parses them back. The box grammar is the library's own (see
:mod:`repro.bmff.boxes`): sample entries are modelled as containers
holding a ``codc`` codec-info leaf plus, when protected, the standard
``sinf``/``frma``/``schm``/``schi``/``tenc`` chain, which is exactly the
structure the content-protection audit walks to classify assets.

The media-plane functions build no box tree: :func:`read_samples` and
:func:`read_track_info` read the flat spans of
:func:`~repro.bmff.boxes.walk_boxes` (first match by type path, as
:func:`~repro.bmff.boxes.find_first`), and :func:`build_media_segment`
writes its box headers directly. Init segments are built, and PSSH boxes
read, through the :class:`~repro.bmff.boxes.Box` tree.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.bmff import boxes as bx
from repro.bmff.boxes import (
    Box,
    BoxParseError,
    FrmaBox,
    SchmBox,
    SencEntry,
    TencBox,
    _box,
    _encode_saio,
    _encode_saiz,
    _encode_senc,
    _full_box,
    find_boxes,
    parse_boxes,
    serialize_boxes,
    walk_boxes,
)
from repro.bmff.cenc import CencSample

__all__ = [
    "TrackInfo",
    "build_init_segment",
    "build_media_segment",
    "read_track_info",
    "read_samples",
    "read_pssh_boxes",
]

# Sample-entry fourccs by track kind: (clear, protected).
_SAMPLE_ENTRIES = {
    "video": (b"avc1", b"encv"),
    "audio": (b"mp4a", b"enca"),
    "text": (b"wvtt", b"enct"),
}
_KIND_BY_ENTRY = {}
for _kind, (_clear, _enc) in _SAMPLE_ENTRIES.items():
    _KIND_BY_ENTRY[_clear] = (_kind, False)
    _KIND_BY_ENTRY[_enc] = (_kind, True)

# Extend the container grammar with stsd and the sample entries.
bx.CONTAINER_TYPES.update(
    {b"stsd", b"avc1", b"encv", b"mp4a", b"enca", b"wvtt", b"enct"}
)

# Type paths the readers look up, from the top level down.
_STSD_PATH = (b"moov", b"trak", b"mdia", b"minf", b"stbl", b"stsd")
_TKHD_PATH = (b"moov", b"trak", b"tkhd")
_TRUN_PATH = (b"moof", b"traf", b"trun")
_SENC_PATH = (b"moof", b"traf", b"senc")
_MDAT_PATH = (b"mdat",)


@dataclass(frozen=True)
class TrackInfo:
    """What an init segment declares about its single track."""

    kind: str
    codec: str
    protected: bool
    default_kid: bytes | None
    iv_size: int
    track_id: int
    scheme: str = "cenc"  # protection scheme fourcc ("cenc" | "cbcs")


def _codec_box(codec: str, kind: str) -> Box:
    return Box(box_type=b"codc", payload=f"{kind}:{codec}".encode())


def build_init_segment(
    *,
    kind: str,
    codec: str,
    track_id: int = 1,
    default_kid: bytes | None = None,
    iv_size: int = 8,
    scheme: str = "cenc",
    pssh: list[Box] | None = None,
) -> bytes:
    """Build a single-track init segment.

    If *default_kid* is given the track is marked protected: the sample
    entry becomes ``encv``/``enca``/``enct`` with a ``sinf`` chain and a
    ``tenc`` declaring the KID, and any *pssh* boxes are placed in
    ``moov`` — mirroring how packagers emit protected DASH content.
    """
    if kind not in _SAMPLE_ENTRIES:
        raise ValueError(f"unknown track kind {kind!r}")
    clear_fourcc, enc_fourcc = _SAMPLE_ENTRIES[kind]
    protected = default_kid is not None

    entry_children: list[Box] = [_codec_box(codec, kind)]
    if protected:
        assert default_kid is not None
        entry_children.append(
            Box(
                box_type=b"sinf",
                children=[
                    FrmaBox(box_type=b"frma", original_format=clear_fourcc),
                    SchmBox(box_type=b"schm", scheme_type=scheme.encode()),
                    Box(
                        box_type=b"schi",
                        children=[
                            TencBox(
                                box_type=b"tenc",
                                is_protected=True,
                                iv_size=iv_size,
                                default_kid=default_kid,
                            )
                        ],
                    ),
                ],
            )
        )
    sample_entry = Box(
        box_type=enc_fourcc if protected else clear_fourcc,
        children=entry_children,
    )
    tkhd = Box(box_type=b"tkhd", payload=struct.pack(">I", track_id))
    trak = Box(
        box_type=b"trak",
        children=[
            tkhd,
            Box(
                box_type=b"mdia",
                children=[
                    Box(
                        box_type=b"minf",
                        children=[
                            Box(
                                box_type=b"stbl",
                                children=[
                                    Box(box_type=b"stsd", children=[sample_entry])
                                ],
                            )
                        ],
                    )
                ],
            ),
        ],
    )
    moov_children: list[Box] = [trak]
    if pssh:
        moov_children.extend(pssh)
    ftyp = Box(box_type=b"ftyp", payload=b"iso6dash")
    moov = Box(box_type=b"moov", children=moov_children)
    return serialize_boxes([ftyp, moov])


def build_media_segment(
    sequence_number: int,
    samples: list[CencSample] | list[bytes],
    *,
    track_id: int = 1,
    iv_size: int = 8,
) -> bytes:
    """Build one media segment (``styp moof mdat``).

    Pass :class:`CencSample` items for protected content (their ``senc``
    entries are emitted with ``saiz``/``saio``) or raw ``bytes`` for
    clear content. The boxes are written directly, byte-identical to
    serializing the equivalent :class:`Box` tree.
    """
    if not samples:
        raise ValueError("a media segment needs at least one sample")
    protected = isinstance(samples[0], CencSample)

    sample_bytes: list[bytes] = []
    senc_entries: list[SencEntry] = []
    for sample in samples:
        if protected:
            if not isinstance(sample, CencSample):
                raise TypeError("cannot mix clear and protected samples")
            sample_bytes.append(sample.data)
            senc_entries.append(sample.entry)
        else:
            if isinstance(sample, CencSample):
                raise TypeError("cannot mix clear and protected samples")
            sample_bytes.append(sample)

    count = len(sample_bytes)
    traf = _box(b"tfhd", struct.pack(">I", track_id)) + _box(
        b"trun", struct.pack(f">{count + 1}I", count, *map(len, sample_bytes))
    )
    if protected:
        senc_flags, senc_payload = _encode_senc(senc_entries, iv_size)
        aux_sizes = [
            iv_size + (2 + 6 * len(e.subsamples) if e.subsamples else 0)
            for e in senc_entries
        ]
        traf += (
            _full_box(b"senc", 0, senc_flags, senc_payload)
            + _full_box(b"saiz", 0, 0, _encode_saiz(aux_sizes))
            + _full_box(b"saio", 0, 0, _encode_saio([0]))
        )
    moof = _box(
        b"moof",
        _box(b"mfhd", struct.pack(">I", sequence_number)) + _box(b"traf", traf),
    )
    return _box(b"styp", b"msdh") + moof + _box(b"mdat", b"".join(sample_bytes))


def _first(
    spans: list[tuple], path: tuple, lo: int = 0, hi: int | None = None
) -> int | None:
    """Index of the first span of ``spans[lo:hi]`` at *path*, or None."""
    for index in range(lo, len(spans) if hi is None else hi):
        if spans[index][0] == path:
            return index
    return None


def read_track_info(init_segment: bytes) -> TrackInfo:
    """Parse an init segment and report the track's protection status."""
    spans = walk_boxes(init_segment)
    stsd = _first(spans, _STSD_PATH)
    # A container's body is empty or holds its first child's span next.
    if stsd is None or spans[stsd][2] == spans[stsd][3]:
        raise BoxParseError("init segment has no sample description")
    entry_path, _, _, entry_end, _ = spans[stsd + 1]
    known = _KIND_BY_ENTRY.get(entry_path[-1])
    if known is None:
        raise BoxParseError(
            f"unknown sample entry {entry_path[-1].decode('latin-1')!r}"
        )
    kind, protected = known
    # The entry's descendants: the spans that start inside it.
    lo = hi = stsd + 2
    while hi < len(spans) and spans[hi][1] < entry_end:
        hi += 1

    codec = "unknown"
    codc = _first(spans, entry_path + (b"codc",), lo, hi)
    if codc is not None:
        _, _, body, end, _ = spans[codc]
        codec = init_segment[body:end].decode().split(":", 1)[-1]

    default_kid: bytes | None = None
    iv_size = 8
    scheme = "cenc"
    if protected:
        tenc = _first(spans, entry_path + (b"sinf", b"schi", b"tenc"), lo, hi)
        if tenc is None:
            raise BoxParseError("protected entry lacks a tenc box")
        fields = spans[tenc][4]
        default_kid = fields["default_kid"]
        iv_size = fields["iv_size"]
        schm = _first(spans, entry_path + (b"sinf", b"schm"), lo, hi)
        if schm is not None:
            scheme = spans[schm][4]["scheme_type"].decode("latin-1")

    track_id = 1
    tkhd = _first(spans, _TKHD_PATH)
    if tkhd is not None:
        _, _, body, end, _ = spans[tkhd]
        if end - body >= 4:
            (track_id,) = struct.unpack_from(">I", init_segment, body)

    return TrackInfo(
        kind=kind,
        codec=codec,
        protected=protected,
        default_kid=default_kid,
        iv_size=iv_size,
        track_id=track_id,
        scheme=scheme,
    )


def read_samples(
    segment: bytes, *, iv_size: int = 8
) -> tuple[list[CencSample], bool]:
    """Extract the samples of one media segment.

    Returns ``(samples, protected)``. For clear segments the samples
    carry empty ``senc`` entries.
    """
    spans = walk_boxes(segment, iv_size_hint=iv_size)
    first = {span[0]: span for span in reversed(spans)}  # first span per path
    trun = first.get(_TRUN_PATH)
    mdat = first.get(_MDAT_PATH)
    if trun is None or mdat is None:
        raise BoxParseError("media segment lacks trun or mdat")
    _, _, trun_body, trun_end, _ = trun
    if trun_end - trun_body < 4:
        raise BoxParseError("trun payload too short")
    (count,) = struct.unpack_from(">I", segment, trun_body)
    if trun_end - trun_body < 4 + 4 * count:
        raise BoxParseError("trun truncated sample sizes")
    sizes = struct.unpack_from(f">{count}I", segment, trun_body + 4)
    _, _, offset, mdat_end, _ = mdat
    if sum(sizes) != mdat_end - offset:
        raise BoxParseError("trun sizes do not cover mdat")

    senc = first.get(_SENC_PATH)
    protected = senc is not None
    entries: list[SencEntry]
    if protected:
        entries = senc[4]["entries"]
        if len(entries) != count:
            raise BoxParseError("senc entry count mismatch")
    else:
        zero_iv = bytes(iv_size)
        entries = [SencEntry(zero_iv, []) for _ in range(count)]

    samples: list[CencSample] = []
    for size, entry in zip(sizes, entries):
        samples.append(CencSample(segment[offset : offset + size], entry))
        offset += size
    return samples, protected


def read_pssh_boxes(init_segment: bytes) -> list[Box]:
    """All PSSH boxes found in an init segment's moov."""
    return find_boxes(parse_boxes(init_segment), b"moov", b"pssh")

"""ISO Base Media File Format (ISO/IEC 14496-12) box model.

Implements the subset of MP4 boxes the study needs to build, parse and
inspect protected DASH segments:

- plain containers (``moov``, ``trak``, ``mdia``, ``minf``, ``stbl``,
  ``moof``, ``traf``, ``sinf``, ``schi`` …);
- leaf boxes carried opaquely (``mdat``, ``ftyp`` payloads …);
- typed full boxes needed by CENC (``tenc``, ``senc``, ``saiz``,
  ``saio``, ``pssh``, ``frma``, ``schm``).

There is one parser: :func:`walk_boxes`, a single offset-based pass
that validates every box header (and decodes every typed payload)
without copying bodies, and reports each box as a flat pre-order span.
:func:`parse_boxes` builds the round-trip-faithful :class:`Box` tree
from those spans — ``parse(serialize(x))`` reproduces the tree — while
the segment readers on the media hot path
(:mod:`repro.bmff.builder`) read the spans directly and build no tree.
The content-protection audit in :mod:`repro.core.content_audit` decides
"is this asset encrypted?" by parsing these structures, exactly as the
paper inspects downloaded assets rather than trusting any metadata.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import starmap

__all__ = [
    "Box",
    "FullBox",
    "TencBox",
    "SencBox",
    "SencEntry",
    "SubsampleRange",
    "PsshBox",
    "SaizBox",
    "SaioBox",
    "FrmaBox",
    "SchmBox",
    "walk_boxes",
    "parse_boxes",
    "serialize_boxes",
    "find_boxes",
    "find_first",
    "BoxParseError",
]

# Box types that contain child boxes rather than raw payload.
CONTAINER_TYPES = {
    b"moov",
    b"trak",
    b"mdia",
    b"minf",
    b"stbl",
    b"moof",
    b"traf",
    b"mvex",
    b"sinf",
    b"schi",
    b"edts",
    b"dinf",
    b"udta",
}

_HEADER = struct.Struct(">I4s")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_SUBSAMPLE = struct.Struct(">HI")


class BoxParseError(ValueError):
    """Raised when a byte stream is not well-formed ISO-BMFF."""


def _box(box_type: bytes, body: bytes) -> bytes:
    """One serialized box: 32-bit size, fourcc, body."""
    return _HEADER.pack(8 + len(body), box_type) + body


def _full_box(box_type: bytes, version: int, flags: int, payload: bytes) -> bytes:
    """One serialized full box: version byte and 24-bit flags, then payload."""
    return _box(
        box_type, struct.pack(">B", version) + flags.to_bytes(3, "big") + payload
    )


@dataclass
class Box:
    """A generic MP4 box: 4-char type plus payload and/or children."""

    box_type: bytes
    payload: bytes = b""
    children: list["Box"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.box_type) != 4:
            raise ValueError(f"box type must be 4 bytes, got {self.box_type!r}")

    @property
    def fourcc(self) -> str:
        return self.box_type.decode("latin-1")

    def body(self) -> bytes:
        """Payload followed by serialized children."""
        return self.payload + b"".join(c.serialize() for c in self.children)

    def serialize(self) -> bytes:
        return _box(self.box_type, self.body())

    def find(self, *path: bytes) -> list["Box"]:
        """All descendant boxes matching a type path, e.g.
        ``segment.find(b"moof", b"traf", b"senc")``."""
        if not path:
            return [self]
        matches: list[Box] = []
        for child in self.children:
            if child.box_type == path[0]:
                matches.extend(child.find(*path[1:]))
        return matches


@dataclass
class FullBox(Box):
    """Box with a version byte and 24-bit flags."""

    version: int = 0
    flags: int = 0

    def body(self) -> bytes:
        header = struct.pack(">B", self.version) + self.flags.to_bytes(3, "big")
        return header + self.payload + b"".join(c.serialize() for c in self.children)


# Typed payload decoders. Each reads the payload at data[start:end]
# in place and returns the typed box's field values; all share one
# signature so the walker can dispatch on the fourcc.


def _decode_tenc(data, start, end, version, flags, iv_size) -> dict:
    if end - start < 19:
        raise BoxParseError("tenc payload too short")
    tenc_iv_size = data[start + 2]
    if tenc_iv_size not in (0, 8, 16):
        raise BoxParseError(f"tenc iv_size {tenc_iv_size} is not 0, 8 or 16")
    return {
        "version": version,
        "flags": flags,
        "is_protected": bool(data[start + 1]),
        "iv_size": tenc_iv_size,
        "default_kid": data[start + 3 : start + 19],
    }


@dataclass
class TencBox(FullBox):
    """Track Encryption box (ISO/IEC 23001-7 §8.2).

    Declares the default protection parameters for a track: whether
    samples are protected, the per-sample IV size, and the default KID
    the license must cover.
    """

    is_protected: bool = True
    iv_size: int = 8
    default_kid: bytes = bytes(16)

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.default_kid) != 16:
            raise ValueError("default_kid must be 16 bytes")
        if self.iv_size not in (0, 8, 16):
            raise ValueError("iv_size must be 0, 8 or 16")

    def body(self) -> bytes:
        self.payload = struct.pack(
            ">BBB", 0, 1 if self.is_protected else 0, self.iv_size
        ) + self.default_kid
        return super().body()

    @classmethod
    def parse_payload(cls, version: int, flags: int, payload: bytes) -> "TencBox":
        return cls(
            box_type=b"tenc",
            **_decode_tenc(payload, 0, len(payload), version, flags, 8),
        )


@dataclass
class SubsampleRange:
    """One (clear, protected) byte-range pair inside a sample."""

    clear_bytes: int
    protected_bytes: int


@dataclass
class SencEntry:
    """Per-sample encryption data: IV plus optional subsample map."""

    iv: bytes
    subsamples: list[SubsampleRange] = field(default_factory=list)


def _encode_senc(entries: list[SencEntry], iv_size: int) -> tuple[int, bytes]:
    """``senc`` flags and payload; flag 0x2 when any entry has subsamples."""
    has_subsamples = any(e.subsamples for e in entries)
    out = bytearray(_U32.pack(len(entries)))
    for entry in entries:
        if len(entry.iv) != iv_size:
            raise ValueError(
                f"IV length {len(entry.iv)} != declared iv_size {iv_size}"
            )
        out += entry.iv
        if has_subsamples:
            out += _U16.pack(len(entry.subsamples))
            for sub in entry.subsamples:
                out += _SUBSAMPLE.pack(sub.clear_bytes, sub.protected_bytes)
    return (0x2 if has_subsamples else 0x0), bytes(out)


def _check_sample_count(box: str, count: int, data) -> None:
    """Reject a sample count that the parsed bytes cannot back.

    Every sample a box describes takes at least one byte of the segment
    it came from, so a larger count is corrupt. The check runs before
    any per-sample work: ``senc`` entries with no IV and no subsample
    map, and ``saiz`` entries of the default size, consume no payload
    bytes, so nothing else bounds the time and memory their count asks
    for.
    """
    if count > len(data):
        raise BoxParseError(
            f"{box} sample count {count} exceeds the {len(data)} bytes parsed"
        )


def _decode_senc(data, start, end, version, flags, iv_size) -> dict:
    if end - start < 4:
        raise BoxParseError("senc payload too short")
    (count,) = _U32.unpack_from(data, start)
    _check_sample_count("senc", count, data)
    offset = start + 4
    entries: list[SencEntry] = []
    for _ in range(count):
        iv_end = offset + iv_size
        if iv_end > end:
            raise BoxParseError("senc truncated IV")
        iv = data[offset:iv_end]
        offset = iv_end
        subsamples: list[SubsampleRange] = []
        if flags & 0x2:
            if offset + 2 > end:
                raise BoxParseError("senc truncated subsample count")
            (sub_count,) = _U16.unpack_from(data, offset)
            offset += 2
            map_end = offset + 6 * sub_count
            if map_end > end:
                raise BoxParseError("senc truncated subsample map")
            subsamples = list(
                starmap(SubsampleRange, _SUBSAMPLE.iter_unpack(data[offset:map_end]))
            )
            offset = map_end
        entries.append(SencEntry(iv, subsamples))
    return {"version": version, "flags": flags, "entries": entries, "iv_size": iv_size}


@dataclass
class SencBox(FullBox):
    """Sample Encryption box (ISO/IEC 23001-7 §7.2).

    flag 0x2 signals the presence of subsample ranges.
    """

    entries: list[SencEntry] = field(default_factory=list)
    iv_size: int = 8

    def body(self) -> bytes:
        self.flags, self.payload = _encode_senc(self.entries, self.iv_size)
        return super().body()

    @classmethod
    def parse_payload(
        cls, version: int, flags: int, payload: bytes, iv_size: int = 8
    ) -> "SencBox":
        return cls(
            box_type=b"senc",
            **_decode_senc(payload, 0, len(payload), version, flags, iv_size),
        )


def _decode_pssh(data, start, end, version, flags, iv_size) -> dict:
    if end - start < 20:
        raise BoxParseError("pssh payload too short")
    offset = start + 16
    key_ids: list[bytes] = []
    if version >= 1:
        (count,) = _U32.unpack_from(data, offset)
        offset += 4
        kids_end = offset + 16 * count
        if kids_end + 4 > end:
            raise BoxParseError("pssh truncated key ids")
        key_ids = [data[kid : kid + 16] for kid in range(offset, kids_end, 16)]
        offset = kids_end
    (data_len,) = _U32.unpack_from(data, offset)
    offset += 4
    if offset + data_len > end:
        raise BoxParseError("pssh truncated data")
    return {
        "version": version,
        "flags": flags,
        "system_id": data[start : start + 16],
        "key_ids": key_ids,
        "data": data[offset : offset + data_len],
    }


@dataclass
class PsshBox(FullBox):
    """Protection System Specific Header (ISO/IEC 23001-7 §8.1).

    Version 1 carries the key IDs in the box itself; ``data`` holds the
    DRM-specific init data (for Widevine, the serialized request blob).
    """

    system_id: bytes = bytes(16)
    key_ids: list[bytes] = field(default_factory=list)
    data: bytes = b""

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.system_id) != 16:
            raise ValueError("system_id must be 16 bytes")

    def body(self) -> bytes:
        self.version = 1 if self.key_ids else 0
        out = bytearray(self.system_id)
        if self.version == 1:
            out.extend(struct.pack(">I", len(self.key_ids)))
            for kid in self.key_ids:
                if len(kid) != 16:
                    raise ValueError("key id must be 16 bytes")
                out.extend(kid)
        out.extend(struct.pack(">I", len(self.data)))
        out.extend(self.data)
        self.payload = bytes(out)
        return super().body()

    @classmethod
    def parse_payload(cls, version: int, flags: int, payload: bytes) -> "PsshBox":
        return cls(
            box_type=b"pssh",
            **_decode_pssh(payload, 0, len(payload), version, flags, 8),
        )


def _encode_saiz(sample_sizes: list[int]) -> bytes:
    # One size shared by every sample goes in default_sample_info_size.
    # A default of 0 means a per-sample table follows, so sizes that are
    # all 0 (no IV, no subsamples) are written as a table too.
    if len(set(sample_sizes)) == 1 and sample_sizes[0]:
        return struct.pack(">BI", sample_sizes[0], len(sample_sizes))
    return struct.pack(">BI", 0, len(sample_sizes)) + bytes(sample_sizes)


def _decode_saiz(data, start, end, version, flags, iv_size) -> dict:
    if end - start < 5:
        raise BoxParseError("saiz payload too short")
    default_size = data[start]
    (count,) = _U32.unpack_from(data, start + 1)
    _check_sample_count("saiz", count, data)
    if default_size:
        sizes = [default_size] * count
    else:
        table_end = start + 5 + count
        if table_end > end:
            raise BoxParseError("saiz truncated sample sizes")
        sizes = list(data[start + 5 : table_end])
    return {"version": version, "flags": flags, "sample_sizes": sizes}


@dataclass
class SaizBox(FullBox):
    """Sample Auxiliary Information Sizes box."""

    sample_sizes: list[int] = field(default_factory=list)

    def body(self) -> bytes:
        self.payload = _encode_saiz(self.sample_sizes)
        return super().body()

    @classmethod
    def parse_payload(cls, version: int, flags: int, payload: bytes) -> "SaizBox":
        return cls(
            box_type=b"saiz",
            **_decode_saiz(payload, 0, len(payload), version, flags, 8),
        )


def _encode_saio(offsets: list[int]) -> bytes:
    return struct.pack(f">{len(offsets) + 1}I", len(offsets), *offsets)


def _decode_saio(data, start, end, version, flags, iv_size) -> dict:
    if end - start < 4:
        raise BoxParseError("saio payload too short")
    (count,) = _U32.unpack_from(data, start)
    if start + 4 + 4 * count > end:
        raise BoxParseError("saio truncated offsets")
    offsets = list(struct.unpack_from(f">{count}I", data, start + 4))
    return {"version": version, "flags": flags, "offsets": offsets}


@dataclass
class SaioBox(FullBox):
    """Sample Auxiliary Information Offsets box."""

    offsets: list[int] = field(default_factory=list)

    def body(self) -> bytes:
        self.payload = _encode_saio(self.offsets)
        return super().body()

    @classmethod
    def parse_payload(cls, version: int, flags: int, payload: bytes) -> "SaioBox":
        return cls(
            box_type=b"saio",
            **_decode_saio(payload, 0, len(payload), version, flags, 8),
        )


@dataclass
class FrmaBox(Box):
    """Original Format box: the pre-encryption sample-entry fourcc."""

    original_format: bytes = b"mp4v"

    def body(self) -> bytes:
        self.payload = self.original_format
        return super().body()

    @classmethod
    def parse_payload(cls, payload: bytes) -> "FrmaBox":
        return cls(box_type=b"frma", original_format=payload[:4])


def _decode_schm(data, start, end, version, flags, iv_size) -> dict:
    if end - start < 8:
        raise BoxParseError("schm payload too short")
    return {
        "version": version,
        "flags": flags,
        "scheme_type": data[start : start + 4],
        "scheme_version": _U32.unpack_from(data, start + 4)[0],
    }


@dataclass
class SchmBox(FullBox):
    """Scheme Type box: which protection scheme applies (``cenc``…)."""

    scheme_type: bytes = b"cenc"
    scheme_version: int = 0x00010000

    def body(self) -> bytes:
        self.payload = self.scheme_type + struct.pack(">I", self.scheme_version)
        return super().body()

    @classmethod
    def parse_payload(cls, version: int, flags: int, payload: bytes) -> "SchmBox":
        return cls(
            box_type=b"schm",
            **_decode_schm(payload, 0, len(payload), version, flags, 8),
        )


# Typed full boxes: fourcc -> (class, payload decoder).
_FULLBOX_TYPES = {
    b"tenc": (TencBox, _decode_tenc),
    b"senc": (SencBox, _decode_senc),
    b"pssh": (PsshBox, _decode_pssh),
    b"saiz": (SaizBox, _decode_saiz),
    b"saio": (SaioBox, _decode_saio),
    b"schm": (SchmBox, _decode_schm),
}


def walk_boxes(data: bytes, *, iv_size_hint: int = 8) -> list[tuple]:
    """Validate *data* as a box forest in one pass, without copying bodies.

    Returns one ``(path, start, body, end, fields)`` span per box in
    pre-order (document order): ``path`` is the tuple of fourccs from the
    top level down to the box itself, the box occupies
    ``data[start:end]`` with its body at ``data[body:end]``, and
    ``fields`` holds the decoded field values of a typed box (``tenc``,
    ``senc``, ``pssh``, ``saiz``, ``saio``, ``schm``, ``frma``) or None.
    The first span whose ``path`` equals a type path is the box
    :func:`find_first` returns for that path on the parsed tree.

    Every header is checked (truncated header, bad size, truncated full
    box) and every typed payload decoded, so a malformed box anywhere
    raises :class:`BoxParseError` — the same error, in the same order,
    that :func:`parse_boxes` raises. ``iv_size_hint`` is as for
    :func:`parse_boxes`.
    """
    spans: list[tuple] = []
    add = spans.append
    unpack_header = _HEADER.unpack_from
    unpack_u32 = _U32.unpack_from
    containers = CONTAINER_TYPES
    typed_boxes = _FULLBOX_TYPES
    enclosing: list[tuple[int, tuple]] = []  # (end, path) of open containers
    path: tuple = ()
    limit = len(data)
    offset = 0
    while True:
        if offset == limit:
            if not enclosing:
                return spans
            limit, path = enclosing.pop()
            continue
        if offset + 8 > limit:
            raise BoxParseError("truncated box header")
        size, box_type = unpack_header(data, offset)
        end = offset + size
        if size < 8 or end > limit:
            raise BoxParseError(f"bad box size {size} for {box_type!r}")
        body = offset + 8
        box_path = path + (box_type,)
        if box_type in containers:
            add((box_path, offset, body, end, None))
            enclosing.append((limit, path))
            limit, path, offset = end, box_path, body
            continue
        fields = None
        typed = typed_boxes.get(box_type)
        if typed is not None:
            if size < 12:
                raise BoxParseError(f"truncated fullbox {box_type!r}")
            (version_flags,) = unpack_u32(data, body)
            fields = typed[1](
                data,
                body + 4,
                end,
                version_flags >> 24,
                version_flags & 0xFFFFFF,
                iv_size_hint,
            )
        elif box_type == b"frma":
            fields = {"original_format": data[body : min(body + 4, end)]}
        add((box_path, offset, body, end, fields))
        offset = end


def parse_boxes(data: bytes, *, iv_size_hint: int = 8) -> list[Box]:
    """Parse a byte string into a list of top-level boxes.

    ``iv_size_hint`` resolves the one genuine ambiguity of the format:
    ``senc`` cannot be parsed without knowing the track's IV size from
    ``tenc``. Callers inspecting full files should pass the value read
    from the init segment; the default (8) matches this library's
    builder output.
    """
    top: list[Box] = []
    levels = [top]  # levels[d] collects the children of the open depth-d box
    for path, _, body, end, fields in walk_boxes(data, iv_size_hint=iv_size_hint):
        depth = len(path)
        del levels[depth:]
        box_type = path[-1]
        if fields is not None:
            cls = FrmaBox if box_type == b"frma" else _FULLBOX_TYPES[box_type][0]
            box: Box = cls(box_type=box_type, **fields)
        elif box_type in CONTAINER_TYPES:
            box = Box(box_type=box_type)
            levels.append(box.children)
        else:
            box = Box(box_type=box_type, payload=data[body:end])
        levels[depth - 1].append(box)
    return top


def serialize_boxes(boxes: list[Box]) -> bytes:
    """Serialize a list of boxes back to bytes."""
    return b"".join(box.serialize() for box in boxes)


def find_boxes(boxes: list[Box], *path: bytes) -> list[Box]:
    """Search a box forest for all boxes matching the type path."""
    matches: list[Box] = []
    for box in boxes:
        if box.box_type == path[0]:
            matches.extend(box.find(*path[1:]))
    return matches


def find_first(boxes: list[Box], *path: bytes) -> Box | None:
    """First match of :func:`find_boxes`, or None."""
    found = find_boxes(boxes, *path)
    return found[0] if found else None

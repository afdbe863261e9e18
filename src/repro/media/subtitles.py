"""WebVTT subtitle generation and the paper's ASCII check.

Subtitles are delivered as standalone WebVTT files (never inside the
fMP4 container in our services, matching the common practice the paper
observes). The audit's subtitle check mirrors §IV-B: "we check whether
they contain ascii characters for English ones".
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

__all__ = ["Cue", "build_webvtt", "parse_webvtt", "looks_like_clear_text"]

_WORDS = (
    "the quick brown fox jumps over the lazy dog while the stream keeps "
    "playing and nobody checks the subtitles"
).split()


@dataclass(frozen=True)
class Cue:
    """One subtitle cue."""

    start_s: float
    end_s: float
    text: str


def _timestamp(seconds: float) -> str:
    minutes, secs = divmod(seconds, 60)
    hours, minutes = divmod(int(minutes), 60)
    return f"{hours:02d}:{int(minutes):02d}:{secs:06.3f}"


def build_webvtt(title_id: str, language: str, duration_s: int) -> bytes:
    """Deterministic WebVTT document for one (title, language)."""
    lines = ["WEBVTT", ""]
    cue_len = 3.0
    count = max(1, int(duration_s // cue_len))
    for index in range(count):
        start = index * cue_len
        end = min(start + cue_len, float(duration_s))
        seed = zlib.crc32(f"{title_id}:{language}".encode())
        word = _WORDS[(seed + index) % len(_WORDS)]
        text = f"[{language}] {title_id} cue {index}: {word}"
        lines.append(f"{index + 1}")
        lines.append(f"{_timestamp(start)} --> {_timestamp(end)}")
        lines.append(text)
        lines.append("")
    return "\n".join(lines).encode()


def parse_webvtt(data: bytes) -> list[Cue]:
    """Parse a WebVTT document; raises ValueError if malformed."""
    text = data.decode("utf-8", errors="strict")
    lines = text.splitlines()
    if not lines or lines[0].strip() != "WEBVTT":
        raise ValueError("not a WebVTT document")
    cues: list[Cue] = []
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        if "-->" in line:
            start_raw, end_raw = (part.strip() for part in line.split("-->"))
            start = _parse_timestamp(start_raw)
            end = _parse_timestamp(end_raw)
            body: list[str] = []
            i += 1
            while i < len(lines) and lines[i].strip():
                body.append(lines[i])
                i += 1
            cues.append(Cue(start_s=start, end_s=end, text="\n".join(body)))
        else:
            i += 1
    return cues


def _parse_timestamp(raw: str) -> float:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad timestamp {raw!r}")
    hours, minutes, seconds = parts
    return int(hours) * 3600 + int(minutes) * 60 + float(seconds)


# Printable ASCII plus tab, line feed and carriage return.
_PRINTABLE = bytes(range(32, 127)) + b"\t\n\r"


def looks_like_clear_text(data: bytes) -> bool:
    """The paper's subtitle heuristic: printable-ASCII dominance.

    Encrypted bytes are uniformly distributed so they fail decisively;
    a real clear WebVTT passes.
    """
    if not data:
        return False
    printable = len(data) - len(data.translate(None, _PRINTABLE))
    return printable / len(data) > 0.95

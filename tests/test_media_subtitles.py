"""WebVTT subtitles and the paper's ASCII clear-text heuristic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.media.subtitles import (
    build_webvtt,
    looks_like_clear_text,
    parse_webvtt,
)


class TestBuild:
    def test_header(self):
        assert build_webvtt("tt01", "en", 12).startswith(b"WEBVTT")

    def test_deterministic(self):
        assert build_webvtt("tt01", "en", 12) == build_webvtt("tt01", "en", 12)

    def test_language_separation(self):
        assert build_webvtt("tt01", "en", 12) != build_webvtt("tt01", "fr", 12)

    def test_cue_count_scales_with_duration(self):
        short = parse_webvtt(build_webvtt("t", "en", 6))
        long = parse_webvtt(build_webvtt("t", "en", 30))
        assert len(long) > len(short)


class TestParse:
    def test_round_trip_cues(self):
        cues = parse_webvtt(build_webvtt("tt01", "en", 12))
        assert len(cues) == 4
        assert cues[0].start_s == 0.0
        assert cues[0].end_s == 3.0
        assert "tt01 cue 0" in cues[0].text

    def test_cues_ordered_and_contiguous(self):
        cues = parse_webvtt(build_webvtt("tt01", "en", 24))
        for earlier, later in zip(cues, cues[1:]):
            assert earlier.end_s == later.start_s

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError, match="not a WebVTT"):
            parse_webvtt(b"1\n00:00:00.000 --> 00:00:03.000\nhi\n")

    def test_rejects_binary(self):
        with pytest.raises((ValueError, UnicodeDecodeError)):
            parse_webvtt(bytes(range(256)))

    def test_rejects_bad_timestamp(self):
        doc = b"WEBVTT\n\n1\n00:00 --> 00:03\nhi\n"
        with pytest.raises(ValueError, match="bad timestamp"):
            parse_webvtt(doc)

    def test_empty_document(self):
        assert parse_webvtt(b"WEBVTT\n") == []


class TestClearTextHeuristic:
    def test_accepts_webvtt(self):
        assert looks_like_clear_text(build_webvtt("tt01", "en", 12))

    def test_rejects_uniform_bytes(self):
        assert not looks_like_clear_text(bytes(range(256)) * 4)

    def test_rejects_empty(self):
        assert not looks_like_clear_text(b"")

    def test_accepts_plain_ascii(self):
        assert looks_like_clear_text(b"Hello, subtitles!\n" * 20)

    def test_rejects_mostly_binary_with_ascii_prefix(self):
        blob = b"WEBVTT" + bytes(range(1, 200)) * 3
        assert not looks_like_clear_text(blob)


def _reference_verdict(data: bytes) -> bool:
    """The heuristic as one generator step per byte."""
    if not data:
        return False
    printable = sum(1 for b in data if 32 <= b < 127 or b in (9, 10, 13))
    return printable / len(data) > 0.95


class TestClearTextMatchesReference:
    @given(st.binary(max_size=2048))
    def test_random_bytes(self, data):
        assert looks_like_clear_text(data) == _reference_verdict(data)

    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=-2, max_value=2),
        st.sampled_from([0, 8, 11, 127, 128, 255]),
        st.randoms(use_true_random=False),
    )
    def test_at_the_boundary(self, size, offset, unprintable, rng):
        """Printable shares at, just under and just over 0.95."""
        bad = max(0, min(size, round(size * 0.05) + offset))
        data = bytearray(b"a" * (size - bad) + bytes([unprintable]) * bad)
        rng.shuffle(data)
        assert looks_like_clear_text(bytes(data)) == _reference_verdict(bytes(data))

    @pytest.mark.parametrize("size", [20, 40, 100, 1000])
    def test_exactly_ninety_five_percent_is_not_clear(self, size):
        bad = size // 20
        data = b"a" * (size - bad) + b"\x00" * bad
        assert not looks_like_clear_text(data)
        assert looks_like_clear_text(b"a" + data)

"""CENC subsample encryption: round trips, keystream continuity,
structural error handling."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bmff.boxes import SencEntry, SubsampleRange
from repro.bmff.cenc import (
    CencDecryptError,
    CencSample,
    decrypt_sample,
    decrypt_samples,
    encrypt_sample,
    encrypt_samples,
    iv_sequence,
)
from repro.crypto.modes import ctr_transform

_KEY = bytes(range(16))
_IV8 = bytes(range(8))
_IV16 = bytes(range(16))


class TestRoundTrip:
    @given(sample=st.binary(min_size=1, max_size=300))
    def test_full_sample_encryption(self, sample):
        enc = encrypt_sample(sample, _KEY, _IV8)
        assert decrypt_sample(enc, _KEY) == sample

    @given(
        sample=st.binary(min_size=40, max_size=300),
        clear=st.integers(min_value=0, max_value=40),
    )
    def test_subsample_encryption(self, sample, clear):
        enc = encrypt_sample(sample, _KEY, _IV8, clear_header=clear)
        assert decrypt_sample(enc, _KEY) == sample
        assert enc.data[:clear] == sample[:clear]

    def test_16_byte_iv(self):
        sample = bytes(100)
        enc = encrypt_sample(sample, _KEY, _IV16)
        assert decrypt_sample(enc, _KEY) == sample

    def test_clear_header_recorded_as_subsample(self):
        enc = encrypt_sample(bytes(100), _KEY, _IV8, clear_header=20)
        (sub,) = enc.entry.subsamples
        assert (sub.clear_bytes, sub.protected_bytes) == (20, 80)

    def test_no_clear_header_means_no_subsamples(self):
        enc = encrypt_sample(bytes(50), _KEY, _IV8)
        assert enc.entry.subsamples == []

    def test_clear_header_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            encrypt_sample(bytes(10), _KEY, _IV8, clear_header=11)
        with pytest.raises(ValueError, match="out of range"):
            encrypt_sample(bytes(10), _KEY, _IV8, clear_header=-1)


class TestManySamples:
    """encrypt_samples / decrypt_samples: one keystream batch, the same
    bytes as the one-sample functions."""

    @given(
        samples=st.lists(st.binary(min_size=0, max_size=200), max_size=12),
        iv_size=st.sampled_from([8, 16]),
        clear=st.integers(min_value=0, max_value=3),
        seed=st.binary(min_size=1, max_size=8),
    )
    def test_match_one_sample_functions(self, samples, iv_size, clear, seed):
        # A fresh key per example, so the batch's runs miss the LRU; a
        # repeated IV makes two samples share a run.
        key = bytes(16 - len(seed)) + seed
        ivs = iv_sequence(seed, len(samples), iv_size=iv_size)
        if len(ivs) > 2:
            ivs[-1] = ivs[0]
        samples = [s + bytes(clear) for s in samples]
        enc = encrypt_samples(samples, key, ivs, clear_header=clear)
        assert enc == [
            encrypt_sample(s, key, iv, clear_header=clear)
            for s, iv in zip(samples, ivs)
        ]
        assert decrypt_samples(enc, key) == samples
        assert decrypt_samples(enc, key) == [decrypt_sample(e, key) for e in enc]

    def test_bad_sample_raises_as_alone(self):
        good = encrypt_sample(bytes(64), _KEY, _IV8)
        bad_map = CencSample(
            data=bytes(64),
            entry=SencEntry(iv=_IV8, subsamples=[SubsampleRange(1, 1)]),
        )
        bad_iv = CencSample(data=bytes(64), entry=SencEntry(iv=bytes(4)))
        with pytest.raises(CencDecryptError, match="covers 2 bytes"):
            decrypt_samples([good, bad_map], _KEY)
        with pytest.raises(ValueError, match="CENC IV must be 8 or 16"):
            decrypt_samples([good, bad_iv], _KEY)
        with pytest.raises(ValueError, match="clear_header out of range"):
            encrypt_samples([bytes(64), bytes(4)], _KEY, [_IV8, _IV8], clear_header=8)

    def test_empty(self):
        assert encrypt_samples([], _KEY, []) == []
        assert decrypt_samples([], _KEY) == []


class TestKeystreamContinuity:
    def test_keystream_continuous_across_protected_ranges(self):
        """The CTR stream must run continuously over the protected
        ranges — the detail that distinguishes CENC from naive per-range
        encryption."""
        payload = bytes(range(256)) * 2
        entry = SencEntry(
            iv=_IV8,
            subsamples=[
                SubsampleRange(7, 100),
                SubsampleRange(13, 200),
                SubsampleRange(4, 188),
            ],
        )
        # Assemble the sample: clear parts zeroed, protected parts from payload.
        protected_total = 100 + 200 + 188
        protected_data = payload[:protected_total]
        sample = (
            bytes(7)
            + protected_data[:100]
            + bytes(13)
            + protected_data[100:300]
            + bytes(4)
            + protected_data[300:]
        )
        from repro.bmff.cenc import _transform

        encrypted = _transform(sample, _KEY, entry)
        # The concatenated protected ciphertext must equal a single
        # contiguous CTR pass over the concatenated protected plaintext.
        enc_protected = (
            encrypted[7 : 7 + 100]
            + encrypted[120 : 120 + 200]
            + encrypted[324 : 324 + 188]
        )
        assert enc_protected == ctr_transform(_KEY, _IV8, protected_data)

    def test_wrong_key_garbles(self):
        sample = bytes(64)
        enc = encrypt_sample(sample, _KEY, _IV8)
        assert decrypt_sample(enc, bytes(16)) != sample

    def test_wrong_iv_garbles(self):
        sample = bytes(64)
        enc = encrypt_sample(sample, _KEY, _IV8)
        enc.entry.iv = bytes(8)
        assert decrypt_sample(enc, _KEY) != sample


class TestStructuralErrors:
    def test_subsample_map_must_cover_sample(self):
        entry = SencEntry(iv=_IV8, subsamples=[SubsampleRange(10, 10)])
        sample = CencSample(data=bytes(30), entry=entry)
        with pytest.raises(CencDecryptError, match="covers 20 bytes"):
            decrypt_sample(sample, _KEY)

    def test_bad_iv_size_rejected(self):
        entry = SencEntry(iv=bytes(4))
        with pytest.raises(ValueError, match="8 or 16"):
            decrypt_sample(CencSample(data=bytes(16), entry=entry), _KEY)


class TestIvSequence:
    def test_deterministic(self):
        assert iv_sequence(b"seed", 5) == iv_sequence(b"seed", 5)

    def test_seed_separation(self):
        assert iv_sequence(b"seed-a", 3) != iv_sequence(b"seed-b", 3)

    def test_unique_within_sequence(self):
        ivs = iv_sequence(b"seed", 50)
        assert len(set(ivs)) == 50

    @pytest.mark.parametrize("size", [8, 16])
    def test_iv_size(self, size):
        assert all(len(iv) == size for iv in iv_sequence(b"s", 4, iv_size=size))

    def test_counter_wrap_8_byte_iv(self):
        # Near-max 64-bit counter half must wrap, not raise.
        iv = bytes([0xFF] * 8)
        sample = bytes(64)
        enc = encrypt_sample(sample, _KEY, iv)
        assert decrypt_sample(enc, _KEY) == sample

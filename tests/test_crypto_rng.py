"""HMAC-DRBG determinism and distribution sanity."""

import hashlib
import hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.rng import HmacDrbg, derive_rng


def test_same_seed_same_stream():
    a, b = HmacDrbg(b"seed"), HmacDrbg(b"seed")
    assert a.generate(64) == b.generate(64)


def test_different_seeds_different_streams():
    assert HmacDrbg(b"seed-a").generate(32) != HmacDrbg(b"seed-b").generate(32)


def test_stream_advances():
    rng = HmacDrbg(b"seed")
    assert rng.generate(16) != rng.generate(16)


def test_generate_zero_bytes():
    assert HmacDrbg(b"s").generate(0) == b""


def test_generate_negative_rejected():
    with pytest.raises(ValueError):
        HmacDrbg(b"s").generate(-1)


def test_reseed_changes_stream():
    a, b = HmacDrbg(b"seed"), HmacDrbg(b"seed")
    b.reseed(b"extra entropy")
    assert a.generate(32) != b.generate(32)


def test_derive_rng_label_separation():
    assert derive_rng("one").generate(16) != derive_rng("two").generate(16)


def test_derive_rng_is_reproducible():
    assert derive_rng("label").generate(16) == derive_rng("label").generate(16)


def test_derive_rng_seed_separation():
    assert (
        derive_rng("label", seed=b"a").generate(16)
        != derive_rng("label", seed=b"b").generate(16)
    )


@given(upper=st.integers(min_value=1, max_value=10_000))
def test_randint_below_in_range(upper):
    value = HmacDrbg(b"bound-test").randint_below(upper)
    assert 0 <= value < upper


def test_randint_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        HmacDrbg(b"s").randint_below(0)


def test_randint_covers_small_range():
    rng = HmacDrbg(b"coverage")
    seen = {rng.randint_below(4) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


@given(bits=st.integers(min_value=2, max_value=256))
def test_rand_odd_has_exact_bit_length(bits):
    value = HmacDrbg(b"odd").rand_odd(bits)
    assert value.bit_length() == bits
    assert value % 2 == 1


def test_rand_odd_rejects_tiny():
    with pytest.raises(ValueError):
        HmacDrbg(b"s").rand_odd(1)


def test_byte_distribution_roughly_uniform():
    data = HmacDrbg(b"dist").generate(16384)
    counts = [0] * 256
    for byte in data:
        counts[byte] += 1
    mean = len(data) / 256
    assert all(mean * 0.4 < c < mean * 1.8 for c in counts)


class _ReferenceDrbg:
    """SP 800-90A HMAC_DRBG (SHA-256) over the standard library's
    ``hmac.new``, written out independently of repro.crypto.rng."""

    def __init__(self, seed: bytes):
        self.key = bytes(32)
        self.value = b"\x01" * 32
        self.update(seed)

    def mac(self, data: bytes) -> bytes:
        return hmac.new(self.key, data, hashlib.sha256).digest()

    def update(self, provided: bytes) -> None:
        self.key = self.mac(self.value + b"\x00" + provided)
        self.value = self.mac(self.value)
        if provided:
            self.key = self.mac(self.value + b"\x01" + provided)
            self.value = self.mac(self.value)

    def generate(self, num_bytes: int) -> bytes:
        out = b""
        while len(out) < num_bytes:
            self.value = self.mac(self.value)
            out += self.value
        self.update(b"")
        return out[:num_bytes]


@given(
    seed=st.binary(max_size=100),
    steps=st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=200),
            st.binary(min_size=1, max_size=80),
        ),
        max_size=8,
    ),
)
def test_output_matches_hmac_new_reference(seed, steps):
    # Each step is a generate(n) or a reseed(bytes), applied to both.
    drbg, reference = HmacDrbg(seed), _ReferenceDrbg(seed)
    for step in steps:
        if isinstance(step, int):
            assert drbg.generate(step) == reference.generate(step)
        else:
            drbg.reseed(step)
            reference.update(step)
    assert drbg.generate(32) == reference.generate(32)

"""AES-CMAC: the four RFC 4493 vectors plus behaviour tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.cmac import aes_cmac, cmac_verify

_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
_MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)

# RFC 4493 §4: (message length, expected tag).
_VECTORS = [
    (0, "bb1d6929e95937287fa37d129b756746"),
    (16, "070a16b46b4d4144f79bdd9dd04a287c"),
    (40, "dfa66747de9ae63030ca32611497c827"),
    (64, "51f0bebf7e3b9d92fc49741779363cfe"),
]


@pytest.mark.parametrize("length,expected", _VECTORS)
def test_rfc4493_vectors(length, expected):
    assert aes_cmac(_KEY, _MSG[:length]).hex() == expected


def test_tag_is_16_bytes():
    assert len(aes_cmac(_KEY, b"anything")) == 16


def test_verify_accepts_valid_tag():
    tag = aes_cmac(_KEY, b"message")
    assert cmac_verify(_KEY, b"message", tag)


def test_verify_rejects_tampered_tag():
    tag = bytearray(aes_cmac(_KEY, b"message"))
    tag[0] ^= 1
    assert not cmac_verify(_KEY, b"message", bytes(tag))


def test_verify_rejects_wrong_length_tag():
    tag = aes_cmac(_KEY, b"message")
    assert not cmac_verify(_KEY, b"message", tag[:15])


def test_verify_rejects_wrong_message():
    tag = aes_cmac(_KEY, b"message")
    assert not cmac_verify(_KEY, b"other message", tag)


@given(message=st.binary(max_size=100))
def test_deterministic(message):
    assert aes_cmac(_KEY, message) == aes_cmac(_KEY, message)


@given(message=st.binary(max_size=100))
def test_key_separation(message):
    other_key = bytes([1]) + _KEY[1:]
    assert aes_cmac(_KEY, message) != aes_cmac(other_key, message)


def test_block_boundary_messages_differ():
    # Padding-vs-no-padding branch must not collide trivially.
    tags = {aes_cmac(_KEY, bytes(n)).hex() for n in (15, 16, 17, 31, 32)}
    assert len(tags) == 5


# --- against a reference on the one-block T-table cipher -------------------


def _reference_cmac(key, message):
    """RFC 4493 §2.4 written out over AES.encrypt_block, one chain."""
    cipher = AES(key)

    def double(block):
        value = int.from_bytes(block, "big") << 1
        if value >> 128:
            value ^= (1 << 128) | 0x87
        return value.to_bytes(16, "big")

    k1 = double(cipher.encrypt_block(bytes(16)))
    k2 = double(k1)
    blocks = [message[i : i + 16] for i in range(0, len(message), 16)] or [b""]
    last = blocks.pop()
    if len(last) == 16:
        last = bytes(a ^ b for a, b in zip(last, k1))
    else:
        padded = last + b"\x80" + bytes(15 - len(last))
        last = bytes(a ^ b for a, b in zip(padded, k2))
    state = bytes(16)
    for block in blocks + [last]:
        state = cipher.encrypt_block(bytes(a ^ b for a, b in zip(state, block)))
    return state


_MESSAGE = st.one_of(
    st.binary(max_size=100),
    # Exact multiples of the block size take the K1 branch.
    st.integers(0, 6).flatmap(lambda n: st.binary(min_size=16 * n, max_size=16 * n)),
)


@given(
    key=st.binary(min_size=16, max_size=16),
    messages=st.lists(_MESSAGE, min_size=1, max_size=9),
)
def test_many_equals_per_message(key, messages):
    assert [aes_cmac(key, m) for m in messages] == [
        _reference_cmac(key, m) for m in messages
    ]

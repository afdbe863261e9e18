"""Widevine CMAC KDF: lengths, separation, session key set."""

import hashlib
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.aes import cipher_for
from repro.crypto.cmac import _subkeys_for, aes_cmac
from repro.crypto.kdf import (
    LABEL_AUTHENTICATION,
    LABEL_ENCRYPTION,
    LABEL_GENERIC,
    derive_key,
    derive_session_keys,
)

_BASE = bytes(range(16))


@pytest.mark.parametrize("bits", [128, 256, 384, 512])
def test_output_length(bits):
    assert len(derive_key(_BASE, b"L", b"ctx", bits)) == bits // 8


def test_rejects_non_byte_multiple():
    with pytest.raises(ValueError, match="multiple of 8"):
        derive_key(_BASE, b"L", b"ctx", 100)


def test_label_separation():
    a = derive_key(_BASE, LABEL_ENCRYPTION, b"ctx", 128)
    b = derive_key(_BASE, LABEL_AUTHENTICATION, b"ctx", 128)
    assert a != b


def test_context_separation():
    assert derive_key(_BASE, b"L", b"ctx-1", 128) != derive_key(
        _BASE, b"L", b"ctx-2", 128
    )


def test_base_key_separation():
    other = bytes([1]) + _BASE[1:]
    assert derive_key(_BASE, b"L", b"ctx", 128) != derive_key(other, b"L", b"ctx", 128)


def test_deterministic():
    assert derive_key(_BASE, b"L", b"ctx", 256) == derive_key(_BASE, b"L", b"ctx", 256)


def test_multi_block_prefix_consistency():
    # Counter-mode KDF: first block of a 256-bit output is NOT required
    # to equal the 128-bit output (length is in the context), assert the
    # actual behaviour so regressions surface.
    short = derive_key(_BASE, b"L", b"ctx", 128)
    long = derive_key(_BASE, b"L", b"ctx", 256)
    assert short != long[:16]  # length field differs


@given(context=st.binary(max_size=64))
def test_session_keys_all_distinct(context):
    keys = derive_session_keys(_BASE, context)
    material = {
        keys.encryption,
        keys.mac_server,
        keys.mac_client,
        keys.generic_encryption,
        keys.generic_signing,
    }
    assert len(material) == 5


def test_session_key_sizes():
    keys = derive_session_keys(_BASE, b"ctx")
    assert len(keys.encryption) == 16
    assert len(keys.mac_server) == 32
    assert len(keys.mac_client) == 32
    assert len(keys.generic_encryption) == 16
    assert len(keys.generic_signing) == 32


def test_session_keys_context_bound():
    a = derive_session_keys(_BASE, b"request-1")
    b = derive_session_keys(_BASE, b"request-2")
    assert a.encryption != b.encryption
    assert a.mac_server != b.mac_server


def test_session_keys_repr_redacts():
    keys = derive_session_keys(_BASE, b"ctx")
    assert keys.encryption.hex() not in repr(keys)
    assert "redacted" in repr(keys)


# --- lockstep derivation against a per-chain reference -------------------


def _fresh_key(*parts):
    """A base key no other test derives under, so the memos miss."""
    return hashlib.sha256(repr(("kdf-reference",) + parts).encode()).digest()[:16]


def _reference_derive(base_key, label, context, bits):
    """SP 800-108 counter mode, one aes_cmac chain per output block."""
    blocks = [
        aes_cmac(
            base_key,
            bytes([counter]) + label + b"\x00" + context + bits.to_bytes(4, "big"),
        )
        for counter in range(1, (bits + 127) // 128 + 1)
    ]
    return b"".join(blocks)[: bits // 8]


def _reference_session_keys(base_key, context):
    auth = _reference_derive(base_key, LABEL_AUTHENTICATION, context, 512)
    return (
        _reference_derive(base_key, LABEL_ENCRYPTION, context, 128),
        auth[:32],
        auth[32:],
        _reference_derive(base_key, LABEL_GENERIC, context + b"enc", 128),
        _reference_derive(base_key, LABEL_GENERIC, context + b"sig", 256),
    )


def _fields(keys):
    return (
        keys.encryption,
        keys.mac_server,
        keys.mac_client,
        keys.generic_encryption,
        keys.generic_signing,
    )


# The AUTHENTICATION messages are 20 bytes plus the context and the
# others 16 plus the context, so these lengths put the two kinds of chain
# on either side of a block boundary, on it, and at license-request size.
_CONTEXT_LENGTHS = [0, 1, 11, 12, 13, 15, 16, 17, 27, 28, 29, 32, 150, 451, 500, 600]


@pytest.mark.parametrize("length", _CONTEXT_LENGTHS)
def test_session_keys_match_per_chain_reference(length):
    base = _fresh_key("session", length)
    context = bytes(range(256)) * 3
    context = context[:length]
    assert _fields(derive_session_keys(base, context)) == _reference_session_keys(
        base, context
    )


@pytest.mark.parametrize("bits", [8, 120, 128, 136, 256, 384, 512, 1024])
@pytest.mark.parametrize("length", [0, 12, 27, 500])
def test_derive_key_matches_per_chain_reference(bits, length):
    base = _fresh_key("derive", bits, length)
    context = bytes(i % 251 for i in range(length))
    assert derive_key(base, b"LABEL", context, bits) == _reference_derive(
        base, b"LABEL", context, bits
    )


@given(
    base=st.binary(min_size=16, max_size=16),
    label=st.binary(max_size=20),
    context=st.binary(max_size=100),
)
def test_session_keys_match_reference_property(base, label, context):
    assert _fields(derive_session_keys(base, context)) == _reference_session_keys(
        base, context
    )
    assert derive_key(base, label, context, 256) == _reference_derive(
        base, label, context, 256
    )


def test_session_keys_identical_across_threads():
    # Eight threads derive under shared base keys, every miss raced by
    # the others: each must see the per-chain reference values.
    bases = [_fresh_key("threads", i) for i in range(2)]
    jobs = [(bases[i % 2], bytes([i]) * (450 + 7 * i)) for i in range(6)]
    expected = [_reference_session_keys(base, ctx) for base, ctx in jobs]
    barrier = threading.Barrier(8, timeout=60)
    results: list[list[tuple]] = [[] for _ in range(8)]

    def worker(t):
        barrier.wait()
        for _ in range(3):
            results[t].append([_fields(derive_session_keys(b, c)) for b, c in jobs])

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for outputs in results:
        assert outputs == [expected] * 3


def test_mutating_session_keys_does_not_reach_the_memo():
    base = _fresh_key("mutation")
    keys = derive_session_keys(base, b"ctx")
    original = _fields(keys)
    keys.encryption = bytes(16)
    keys.mac_server = bytes(32)
    keys.generic_signing = b""
    again = derive_session_keys(base, b"ctx")
    assert again is not keys
    assert _fields(again) == original


def test_memoized_functions_keep_cache_info():
    # Hit-ratio probes read cache_info() off these three functions.
    for fn in (derive_key, _subkeys_for, cipher_for):
        assert hasattr(fn, "cache_info")

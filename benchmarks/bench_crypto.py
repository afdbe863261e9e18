"""Crypto substrate micro-benchmarks.

Not a paper artefact — these quantify the simulation's own primitives
(AES through libcrypto and its pure-Python reference, the modes, CMAC,
the KDF, RSA, CENC) so regressions in the substrate are visible
independently of the pipeline benches.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bmff.cenc import decrypt_sample, encrypt_sample
from repro.crypto.aes import AES, cipher_for
from repro.crypto.cmac import aes_cmac
from repro.crypto.kdf import derive_session_keys
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, ctr_transform
from repro.crypto.rng import HmacDrbg, derive_rng
from repro.crypto.rsa import (
    generate_keypair,
    oaep_decrypt,
    oaep_encrypt,
    pss_sign,
    pss_verify,
)

_KEY = bytes(range(16))
_IV = bytes(range(16))


def test_bench_aes_block(benchmark):
    # One block through cipher_for, the call every mode makes.
    block = bytes(16)
    out = benchmark(cipher_for(_KEY).encrypt_blocks, block)
    assert out == AES(_KEY).encrypt_block(block)


def test_bench_aes_block_python_reference(benchmark):
    # The T-table fallback, for the native-vs-reference ratio.
    out = benchmark(AES(_KEY).encrypt_block, bytes(16))
    assert len(out) == 16


def test_bench_ctr_4kb(benchmark):
    data = bytes(4096)
    out = benchmark(ctr_transform, _KEY, _IV, data)
    assert len(out) == 4096


# CENC run lengths (in blocks) that media recovery decrypts. Unlike
# test_bench_ctr_4kb (whose ctr_transform hits the keystream LRU after
# its first round), every round here generates the runs: ECB over the
# counter blocks, as a keystream LRU miss does.
_RECOVERY_RUN_BLOCKS = (5, 18, 23, 35)


def _counter_blocks(first: int, count: int) -> bytes:
    return b"".join(c.to_bytes(16, "big") for c in range(first, first + count))


def test_bench_keystream_recovery_runs(benchmark):
    cipher = cipher_for(_KEY)
    runs = [_counter_blocks(i << 64, n) for i, n in enumerate(_RECOVERY_RUN_BLOCKS)]

    def keystreams():
        return [cipher.encrypt_blocks(counters) for counters in runs]

    out = benchmark(keystreams)
    assert [len(ks) for ks in out] == [16 * n for n in _RECOVERY_RUN_BLOCKS]
    assert out[0] == AES(_KEY).encrypt_blocks(runs[0])


def test_bench_keystream_64kb(benchmark):
    cipher = cipher_for(_KEY)
    counters = _counter_blocks(0, 65536 // 16)
    out = benchmark(cipher.encrypt_blocks, counters)
    assert len(out) == 65536
    assert out[-16:] == AES(_KEY).encrypt_block(counters[-16:])


def test_bench_cbc_4kb(benchmark):
    data = bytes(4096)
    out = benchmark(cbc_encrypt, _KEY, _IV, data)
    assert len(out) == 4112


# A device-RSA storage blob: the wrapped private key the keybox ladder
# unwraps on every OEMCrypto load, 50 AES blocks with its padding.
_STORAGE_BLOB = bytes(range(256)) * 3 + bytes(range(20))


def test_bench_cbc_decrypt_storage_blob(benchmark):
    # cbc_decrypt keeps no memo: every round is one 50-block ECB
    # decryption.
    ct = cbc_encrypt(_KEY, _IV, _STORAGE_BLOB)
    assert len(ct) == 50 * 16
    out = benchmark(cbc_decrypt, _KEY, _IV, ct)
    assert out == _STORAGE_BLOB


def test_bench_cmac_1kb(benchmark):
    data = bytes(1024)
    tag = benchmark(aes_cmac, _KEY, data)
    assert len(tag) == 16


# A serialized license request is ~450-600 bytes; derive_session_keys
# CMACs all of it in each of its eight chains.
_LICENSE_CONTEXT = bytes(range(250)) * 2


def test_bench_session_key_derivation(benchmark):
    # derive_session_keys is memoized, so a fixed key would time one
    # cache miss and then only hits: every round gets a fresh base key.
    base_keys = (n.to_bytes(16, "big") for n in range(1, 10**9))

    def derive():
        return derive_session_keys(next(base_keys), _LICENSE_CONTEXT)

    keys = benchmark(derive)
    assert len(keys.encryption) == 16


def test_bench_cmac_session_8(benchmark):
    # The eight CMACs of one session-key derivation: ~32 blocks each,
    # the AUTHENTICATION ones 4 bytes longer.
    messages = [bytes([n]) + _LICENSE_CONTEXT + bytes(4 * (n < 4)) for n in range(8)]

    def tags():
        return [aes_cmac(_KEY, m) for m in messages]

    out = benchmark(tags)
    assert len(out) == 8 and all(len(tag) == 16 for tag in out)


def test_bench_hmac_drbg(benchmark):
    rng = HmacDrbg(b"bench")
    out = benchmark(rng.generate, 1024)
    assert len(out) == 1024


def test_bench_cenc_sample_encrypt(benchmark):
    sample = bytes(2048)
    enc = benchmark(encrypt_sample, sample, _KEY, bytes(8), clear_header=64)
    assert len(enc.data) == 2048


def test_bench_cenc_sample_decrypt(benchmark):
    enc = encrypt_sample(bytes(2048), _KEY, bytes(8), clear_header=64)
    out = benchmark(decrypt_sample, enc, _KEY)
    assert out == bytes(2048)


@pytest.fixture(scope="module")
def rsa2048():
    return generate_keypair(2048, label="bench-rsa")


def test_bench_rsa_oaep_encrypt(benchmark, rsa2048):
    ct = benchmark(oaep_encrypt, rsa2048.public, bytes(16))
    assert len(ct) == 256


def test_bench_rsa_oaep_decrypt(benchmark, rsa2048):
    ct = oaep_encrypt(rsa2048.public, bytes(16))
    out = benchmark(oaep_decrypt, rsa2048, ct)
    assert out == bytes(16)


def test_bench_rsa_pss_sign(benchmark, rsa2048):
    sig = benchmark(pss_sign, rsa2048, b"license request payload")
    assert len(sig) == 256


def test_bench_rsa_pss_verify(benchmark, rsa2048):
    # The license server's check of every request: one e = 65537
    # exponentiation through bignum.modexp_public.
    message = b"license request payload"
    sig = pss_sign(rsa2048, message)
    assert benchmark(pss_verify, rsa2048.public, message, sig)


def test_bench_rsa_raw_decrypt_2048(benchmark, rsa2048):
    # The one private-key primitive under pss_sign and oaep_decrypt:
    # both CRT halves in one bignum.modexp_pair call.
    c = derive_rng("bench-raw-decrypt").randint_below(rsa2048.n)
    out = benchmark(rsa2048.raw_decrypt, c)
    assert out == pow(c, rsa2048.d, rsa2048.n)


def test_bench_rsa_keygen_1024(benchmark):
    counter = iter(range(10**6))

    def gen():
        return generate_keypair(
            1024, rng=derive_rng(f"bench-keygen-{next(counter)}")
        )

    key = benchmark.pedantic(gen, rounds=3, iterations=1)
    assert key.n.bit_length() == 1024


def test_bench_rsa_keygen_2048(benchmark):
    # What provisioning pays per new device, uncached: a fresh DRBG each
    # round. This label's first prime pair gives a 2047-bit n and is
    # dropped, so the discard path and the deferred Miller-Rabin rounds
    # of the kept pair both run.
    def gen():
        return generate_keypair(2048, rng=derive_rng("bench-rsa-keygen/3"))

    key = benchmark.pedantic(gen, rounds=3, iterations=1)
    assert hashlib.sha256(key.export_secret()).hexdigest() == (
        "543205f65692498e104f94c1a102f2682e30863066d2af4fb570ebdb31c6bd66"
    )

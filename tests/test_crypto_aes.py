"""AES block cipher: FIPS 197 known-answer tests and properties."""

import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.aes import AES, BLOCK_SIZE, cipher_for
from repro.crypto.modes import ctr_transform

# FIPS 197 Appendix C vectors: (key, plaintext, ciphertext).
_FIPS_VECTORS = [
    (
        "000102030405060708090a0b0c0d0e0f",
        "00112233445566778899aabbccddeeff",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
    (
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        "00112233445566778899aabbccddeeff",
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "00112233445566778899aabbccddeeff",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
]


@pytest.mark.parametrize("key_hex,pt_hex,ct_hex", _FIPS_VECTORS)
def test_fips197_encrypt(key_hex, pt_hex, ct_hex):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.encrypt_block(bytes.fromhex(pt_hex)).hex() == ct_hex


@pytest.mark.parametrize("key_hex,pt_hex,ct_hex", _FIPS_VECTORS)
def test_fips197_decrypt(key_hex, pt_hex, ct_hex):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.decrypt_block(bytes.fromhex(ct_hex)).hex() == pt_hex


def test_sp800_38a_ecb_vector():
    # SP 800-38A F.1.1 first block.
    cipher = AES(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    pt = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    assert cipher.encrypt_block(pt).hex() == "3ad77bb40d7a3660a89ecaf32466ef97"


@pytest.mark.parametrize("key_len,rounds", [(16, 10), (24, 12), (32, 14)])
def test_round_counts(key_len, rounds):
    assert AES(bytes(key_len)).rounds == rounds


@pytest.mark.parametrize("bad_len", [0, 1, 15, 17, 20, 33, 64])
def test_rejects_bad_key_lengths(bad_len):
    with pytest.raises(ValueError, match="key must be"):
        AES(bytes(bad_len))


@pytest.mark.parametrize("bad_len", [0, 15, 17, 32])
def test_rejects_bad_block_lengths(bad_len):
    cipher = AES(bytes(16))
    with pytest.raises(ValueError, match="block must be"):
        cipher.encrypt_block(bytes(bad_len))
    with pytest.raises(ValueError, match="block must be"):
        cipher.decrypt_block(bytes(bad_len))


@given(
    key=st.binary(min_size=16, max_size=16),
    block=st.binary(min_size=16, max_size=16),
)
def test_decrypt_inverts_encrypt_128(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(
    key=st.binary(min_size=32, max_size=32),
    block=st.binary(min_size=16, max_size=16),
)
def test_decrypt_inverts_encrypt_256(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(key=st.binary(min_size=16, max_size=16))
def test_encryption_changes_block(key):
    # AES has no fixed points we'd stumble on by chance.
    block = bytes(BLOCK_SIZE)
    assert AES(key).encrypt_block(block) != block


def test_key_property_round_trips():
    key = bytes(range(16))
    assert AES(key).key == key


def test_different_keys_different_ciphertexts():
    block = b"0123456789abcdef"
    assert AES(bytes(16)).encrypt_block(block) != AES(
        bytes([1]) + bytes(15)
    ).encrypt_block(block)


# --- multi-block kernel --------------------------------------------------


def _per_block(cipher, data):
    """Reference: the one-block T-table path over each block in turn."""
    return b"".join(
        cipher.encrypt_block(data[i : i + BLOCK_SIZE])
        for i in range(0, len(data), BLOCK_SIZE)
    )


@given(
    key=st.sampled_from([16, 24, 32]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
    data=st.integers(0, 70).flatmap(
        lambda n: st.binary(min_size=16 * n, max_size=16 * n)
    ),
)
def test_encrypt_blocks_matches_per_block(key, data):
    cipher = AES(key)
    assert cipher.encrypt_blocks(data) == _per_block(cipher, data)


@given(
    key=st.sampled_from([16, 24, 32]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
    counters=st.lists(st.integers(0, (1 << 128) - 1), max_size=70),
)
def test_keystream_matches_per_block(key, counters):
    cipher = AES(key)
    expected = b"".join(
        cipher.encrypt_block(counter.to_bytes(BLOCK_SIZE, "big"))
        for counter in counters
    )
    assert cipher.keystream(counters) == expected


@given(
    key=st.sampled_from([16, 24, 32]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
    steps=st.integers(1, 9).flatmap(
        lambda lanes: st.lists(
            st.binary(min_size=16 * lanes, max_size=16 * lanes),
            min_size=1,
            max_size=4,
        )
    ),
)
def test_kernel_steps_match_per_block(key, steps):
    # One kernel built once and stepped repeatedly, as the lockstep CMAC
    # chains use it: every step equals encrypt_block on each lane.
    cipher = AES(key)
    size = len(steps[0])
    encrypt = cipher.kernel(size // BLOCK_SIZE)
    for data in steps:
        out = encrypt(int.from_bytes(data, "big")).to_bytes(size, "big")
        assert out == _per_block(cipher, data)


@pytest.mark.parametrize("bad_len", [1, 15, 17, 33])
def test_encrypt_blocks_rejects_unaligned(bad_len):
    with pytest.raises(ValueError, match="block aligned"):
        AES(bytes(16)).encrypt_blocks(bytes(bad_len))


# SP 800-38A F.5.1 / F.5.3 / F.5.5 (CTR-AES128/192/256.Encrypt), all four
# blocks: (key, ciphertext). Counter block and plaintext are shared.
_SP800_38A_CTR_COUNTER = "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"
_SP800_38A_CTR_PLAINTEXT = (
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
_SP800_38A_CTR_VECTORS = [
    pytest.param(
        "2b7e151628aed2a6abf7158809cf4f3c",
        "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab"
        "1e031dda2fbe03d1792170a0f3009cee",
        id="F.5.1-AES128",
    ),
    pytest.param(
        "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
        "1abc932417521ca24f2b0459fe7e6e0b"
        "090339ec0aa6faefd5ccc2c6f4ce8e94"
        "1e36b26bd1ebc670d1bd1d665620abf7"
        "4f78a7f6d29809585a97daec58c6b050",
        id="F.5.3-AES192",
    ),
    pytest.param(
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
        "601ec313775789a5b7a7f504bbf3d228"
        "f443e3ca4d62b59aca84e990cacaf5c5"
        "2b0930daa23de94ce87017ba2d84988d"
        "dfc9c58db67aada613c2dd08457941a6",
        id="F.5.5-AES256",
    ),
]


@pytest.mark.parametrize("key_hex,ct_hex", _SP800_38A_CTR_VECTORS)
def test_sp800_38a_ctr(key_hex, ct_hex):
    key = bytes.fromhex(key_hex)
    start = int(_SP800_38A_CTR_COUNTER, 16)
    pt = bytes.fromhex(_SP800_38A_CTR_PLAINTEXT)
    keystream = AES(key).keystream([start + i for i in range(4)])
    assert bytes(k ^ p for k, p in zip(keystream, pt)).hex() == ct_hex
    iv = bytes.fromhex(_SP800_38A_CTR_COUNTER)
    assert ctr_transform(key, iv, pt).hex() == ct_hex


def test_shared_cipher_keystreams_identical_across_threads():
    cipher = cipher_for(bytes(range(16, 32)))
    runs = [[(t << 64) + i for i in range(5 + 9 * t)] for t in range(8)]
    expected = [cipher.keystream(counters) for counters in runs]
    barrier = threading.Barrier(len(runs))
    results: list[list[bytes]] = [[] for _ in runs]

    def worker(t):
        barrier.wait()
        for _ in range(20):
            results[t].append(cipher.keystream(runs[t]))

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(len(runs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for t, outputs in enumerate(results):
        assert outputs == [expected[t]] * 20


# --- inverse multi-block kernel -------------------------------------------


@pytest.mark.parametrize("key_hex,pt_hex,ct_hex", _FIPS_VECTORS)
def test_fips197_inverse_cipher_kernel(key_hex, pt_hex, ct_hex):
    # FIPS 197 C.1-C.3 inverse cipher, alone and as three lanes of one pass.
    cipher = AES(bytes.fromhex(key_hex))
    ct, pt = bytes.fromhex(ct_hex), bytes.fromhex(pt_hex)
    assert cipher.decrypt_blocks(ct).hex() == pt_hex
    assert cipher.decrypt_blocks(ct * 3) == pt * 3


def _per_block_decrypt(cipher, data):
    """Reference: the one-block T-table inverse over each block in turn."""
    return b"".join(
        cipher.decrypt_block(data[i : i + BLOCK_SIZE])
        for i in range(0, len(data), BLOCK_SIZE)
    )


@given(
    key=st.sampled_from([16, 24, 32]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
    data=st.integers(0, 64).flatmap(
        lambda n: st.binary(min_size=16 * n, max_size=16 * n)
    ),
)
def test_decrypt_blocks_matches_per_block(key, data):
    cipher = AES(key)
    assert cipher.decrypt_blocks(data) == _per_block_decrypt(cipher, data)
    assert cipher.decrypt_blocks(cipher.encrypt_blocks(data)) == data


@given(
    key=st.sampled_from([16, 24, 32]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
    steps=st.integers(1, 9).flatmap(
        lambda lanes: st.lists(
            st.binary(min_size=16 * lanes, max_size=16 * lanes),
            min_size=1,
            max_size=3,
        )
    ),
)
def test_decrypt_kernel_steps_match_per_block(key, steps):
    cipher = AES(key)
    size = len(steps[0])
    decrypt = cipher.decrypt_kernel(size // BLOCK_SIZE)
    for data in steps:
        out = decrypt(int.from_bytes(data, "big")).to_bytes(size, "big")
        assert out == _per_block_decrypt(cipher, data)


@pytest.mark.parametrize("bad_len", [1, 15, 17, 33])
def test_decrypt_blocks_rejects_unaligned(bad_len):
    with pytest.raises(ValueError, match="block aligned"):
        AES(bytes(16)).decrypt_blocks(bytes(bad_len))


def test_shared_cipher_decrypts_identical_across_threads():
    # The inverse round keys are built on first use; eight threads race
    # that first use on one shared cipher.
    cipher = AES(bytes(range(48, 80)))
    messages = [bytes([t]) * (16 * (1 + 7 * t)) for t in range(8)]
    expected = [_per_block_decrypt(cipher, m) for m in messages]
    cipher = AES(cipher.key)
    barrier = threading.Barrier(len(messages), timeout=60)
    results: list[list[bytes]] = [[] for _ in messages]

    def worker(t):
        barrier.wait()
        for _ in range(10):
            results[t].append(cipher.decrypt_blocks(messages[t]))

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(len(messages))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    for t, outputs in enumerate(results):
        assert outputs == [expected[t]] * 10

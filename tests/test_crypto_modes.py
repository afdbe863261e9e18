"""Block-cipher modes: NIST SP 800-38A vectors, padding, properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    ctr_transform,
    ecb_decrypt,
    ecb_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
    xor_bytes,
)

_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


class TestPkcs7:
    def test_pad_length_multiple(self):
        assert pkcs7_pad(b"abc") == b"abc" + bytes([13]) * 13

    def test_pad_full_block_when_aligned(self):
        padded = pkcs7_pad(bytes(16))
        assert len(padded) == 32
        assert padded[-1] == 16

    def test_unpad_round_trip_empty(self):
        assert pkcs7_unpad(pkcs7_pad(b"")) == b""

    @given(data=st.binary(max_size=200))
    def test_round_trip(self, data):
        assert pkcs7_unpad(pkcs7_pad(data)) == data

    def test_unpad_rejects_unaligned(self):
        with pytest.raises(ValueError, match="multiple"):
            pkcs7_unpad(b"abc")

    def test_unpad_rejects_zero_pad_byte(self):
        with pytest.raises(ValueError, match="invalid padding length"):
            pkcs7_unpad(bytes(15) + b"\x00")

    def test_unpad_rejects_oversized_pad_byte(self):
        with pytest.raises(ValueError, match="invalid padding length"):
            pkcs7_unpad(bytes(15) + b"\x11")

    def test_unpad_rejects_inconsistent_padding(self):
        blob = bytes(13) + bytes([2, 3, 3])
        with pytest.raises(ValueError, match="invalid padding bytes"):
            pkcs7_unpad(blob)

    def test_pad_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            pkcs7_pad(b"x", block_size=0)
        with pytest.raises(ValueError):
            pkcs7_pad(b"x", block_size=256)


class TestEcb:
    def test_sp800_38a_vector(self):
        pt = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
        )
        expected = (
            "3ad77bb40d7a3660a89ecaf32466ef97"
            "f5d3d58503b9699de785895a96fdbaaf"
        )
        assert ecb_encrypt(_KEY, pt).hex() == expected

    def test_round_trip(self):
        pt = bytes(range(48))
        assert ecb_decrypt(_KEY, ecb_encrypt(_KEY, pt)) == pt

    def test_rejects_unaligned(self):
        with pytest.raises(ValueError, match="block aligned"):
            ecb_encrypt(_KEY, b"short")
        with pytest.raises(ValueError, match="block aligned"):
            ecb_decrypt(_KEY, b"short")


# SP 800-38A F.2.2 / F.2.4 / F.2.6 (CBC-AES128/192/256.Decrypt): (key,
# ciphertext). IV and plaintext are shared.
_SP800_38A_CBC_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
_SP800_38A_PLAINTEXT = (
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
_SP800_38A_CBC_VECTORS = [
    pytest.param(
        "2b7e151628aed2a6abf7158809cf4f3c",
        "7649abac8119b246cee98e9b12e9197d"
        "5086cb9b507219ee95db113a917678b2"
        "73bed6b8e3c1743b7116e69e22229516"
        "3ff1caa1681fac09120eca307586e1a7",
        id="F.2.2-AES128",
    ),
    pytest.param(
        "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
        "4f021db243bc633d7178183a9fa071e8"
        "b4d9ada9ad7dedf4e5e738763f69145a"
        "571b242012fb7ae07fa9baac3df102e0"
        "08b0e27988598881d920a9e64f5615cd",
        id="F.2.4-AES192",
    ),
    pytest.param(
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
        "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
        "9cfc4e967edb808d679f777bc6702c7d"
        "39f23369a9d9bacfa530e26304231461"
        "b2eb05e2c39be9fcda6c19078c6a9d1b",
        id="F.2.6-AES256",
    ),
]


class TestCbc:
    def test_sp800_38a_vector(self):
        # SP 800-38A F.2.1 (no padding).
        iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        pt = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        ct = cbc_encrypt(_KEY, iv, pt, pad=False)
        assert ct.hex() == "7649abac8119b246cee98e9b12e9197d"

    @pytest.mark.parametrize("key_hex,ct_hex", _SP800_38A_CBC_VECTORS)
    def test_sp800_38a_decrypt_vectors(self, key_hex, ct_hex):
        key = bytes.fromhex(key_hex)
        ct = bytes.fromhex(ct_hex)
        pt = cbc_decrypt(key, _SP800_38A_CBC_IV, ct, pad=False)
        assert pt.hex() == _SP800_38A_PLAINTEXT
        # Every prefix decrypts to the plaintext's prefix.
        for blocks in range(4):
            prefix = cbc_decrypt(key, _SP800_38A_CBC_IV, ct[: 16 * blocks], pad=False)
            assert prefix == bytes.fromhex(_SP800_38A_PLAINTEXT)[: 16 * blocks]
        assert cbc_encrypt(key, _SP800_38A_CBC_IV, pt, pad=False) == ct

    def test_decrypt_matches_per_block_chain(self):
        iv = bytes(range(16, 32))
        ct = cbc_encrypt(_KEY, iv, bytes(range(256)) * 3)
        cipher = AES(_KEY)
        previous, expected = iv, b""
        for i in range(0, len(ct), 16):
            expected += xor_bytes(cipher.decrypt_block(ct[i : i + 16]), previous)
            previous = ct[i : i + 16]
        assert cbc_decrypt(_KEY, iv, ct, pad=False) == expected
        assert ecb_decrypt(_KEY, ct) == b"".join(
            cipher.decrypt_block(ct[i : i + 16]) for i in range(0, len(ct), 16)
        )

    def test_empty_ciphertext(self):
        assert cbc_decrypt(_KEY, bytes(16), b"", pad=False) == b""
        with pytest.raises(ValueError, match="multiple"):
            cbc_decrypt(_KEY, bytes(16), b"")

    @given(data=st.binary(max_size=300), iv=st.binary(min_size=16, max_size=16))
    def test_round_trip_padded(self, data, iv):
        assert cbc_decrypt(_KEY, iv, cbc_encrypt(_KEY, iv, data)) == data

    def test_rejects_short_iv(self):
        with pytest.raises(ValueError, match="IV must be 16"):
            cbc_encrypt(_KEY, bytes(8), b"data")
        with pytest.raises(ValueError, match="IV must be 16"):
            cbc_decrypt(_KEY, bytes(8), bytes(16))

    def test_rejects_unaligned_ciphertext(self):
        with pytest.raises(ValueError, match="block aligned"):
            cbc_decrypt(_KEY, bytes(16), bytes(17))

    def test_tampered_ciphertext_fails_padding(self):
        iv = bytes(16)
        ct = bytearray(cbc_encrypt(_KEY, iv, b"secret payload"))
        ct[-1] ^= 0xFF
        with pytest.raises(ValueError):
            cbc_decrypt(_KEY, iv, bytes(ct))

    def test_unpadded_requires_alignment(self):
        with pytest.raises(ValueError, match="block aligned"):
            cbc_encrypt(_KEY, bytes(16), b"short", pad=False)


class TestCtr:
    def test_sp800_38a_vector(self):
        iv = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        pt = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
        )
        expected = (
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
        )
        assert ctr_transform(_KEY, iv, pt).hex() == expected

    @given(data=st.binary(max_size=200))
    def test_involution_16_byte_iv(self, data):
        iv = bytes(range(16))
        assert ctr_transform(_KEY, iv, ctr_transform(_KEY, iv, data)) == data

    @given(data=st.binary(max_size=200))
    def test_involution_8_byte_iv(self, data):
        iv = bytes(range(8))
        assert ctr_transform(_KEY, iv, ctr_transform(_KEY, iv, data)) == data

    def test_initial_block_offsets_keystream(self):
        iv = bytes(16)
        data = bytes(64)
        whole = ctr_transform(_KEY, iv, data)
        tail = ctr_transform(_KEY, iv, data[32:], initial_block=2)
        assert whole[32:] == tail

    def test_counter_wraps_at_128_bits(self):
        iv = bytes([0xFF]) * 16
        # Counter addition wraps modulo 2^128: 2^128 - 1, then 0.
        out = ctr_transform(_KEY, iv, bytes(32))
        cipher = AES(_KEY)
        assert out == cipher.encrypt_block(iv) + cipher.encrypt_block(bytes(16))

    def test_8_byte_iv_low_counter_wraps_at_64_bits(self):
        iv = bytes.fromhex("0123456789abcdef")
        # The low 64-bit block counter wraps without carrying into the IV.
        out = ctr_transform(_KEY, iv, bytes(48), initial_block=(1 << 64) - 2)
        cipher = AES(_KEY)
        assert out == (
            cipher.encrypt_block(iv + bytes.fromhex("fffffffffffffffe"))
            + cipher.encrypt_block(iv + bytes([0xFF]) * 8)
            + cipher.encrypt_block(iv + bytes(8))
        )
        assert ctr_transform(_KEY, iv, bytes(16), initial_block=1 << 64) == (
            cipher.encrypt_block(iv + bytes(8))
        )

    def test_rejects_bad_iv_length(self):
        with pytest.raises(ValueError, match="8 or 16"):
            ctr_transform(_KEY, bytes(12), b"data")

    def test_non_block_aligned_input(self):
        iv = bytes(16)
        data = b"exactly 21 bytes long"
        assert len(ctr_transform(_KEY, iv, data)) == len(data)


class TestXor:
    def test_xor(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            xor_bytes(b"a", b"ab")

    @given(a=st.binary(min_size=5, max_size=5), b=st.binary(min_size=5, max_size=5))
    def test_self_inverse(self, a, b):
        assert xor_bytes(xor_bytes(a, b), b) == a

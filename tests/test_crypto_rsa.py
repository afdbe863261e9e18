"""RSA keygen, OAEP and PSS: round trips, tamper rejection, determinism."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rng import derive_rng
from repro.crypto.rsa import (
    RsaPrivateKey,
    generate_keypair,
    oaep_decrypt,
    oaep_encrypt,
    pss_sign,
    pss_verify,
)


def _rsa1_blob(*values: int) -> bytes:
    """The export_secret() layout: b"RSA1" + length-prefixed integers."""
    out = b"RSA1"
    for value in values:
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        out += len(raw).to_bytes(4, "big") + raw
    return out


@pytest.fixture(scope="module")
def key() -> RsaPrivateKey:
    return generate_keypair(1024, label="test-suite-1024")


@pytest.fixture(scope="module")
def key2048() -> RsaPrivateKey:
    return generate_keypair(2048, label="test-suite-2048")


class TestKeygen:
    def test_modulus_bit_length(self, key, key2048):
        assert key.n.bit_length() == 1024
        assert key2048.n.bit_length() == 2048

    def test_deterministic_by_label(self):
        a = generate_keypair(1024, label="det-check")
        b = generate_keypair(1024, label="det-check")
        assert a.n == b.n

    def test_label_separation(self):
        a = generate_keypair(1024, label="label-a")
        b = generate_keypair(1024, label="label-b")
        assert a.n != b.n

    def test_cache_returns_same_object(self):
        assert generate_keypair(1024, label="cache-check") is generate_keypair(
            1024, label="cache-check"
        )

    def test_private_public_consistency(self, key):
        message = 0x1234567890ABCDEF
        assert key.raw_decrypt(key.public.raw_encrypt(message)) == message

    def test_explicit_rng_bypasses_cache(self):
        a = generate_keypair(1024, rng=derive_rng("explicit-a"))
        b = generate_keypair(1024, rng=derive_rng("explicit-b"))
        assert a.n != b.n

    def test_public_fingerprint_is_32_bytes(self, key):
        assert len(key.public.fingerprint()) == 32

    def test_export_import_round_trip(self, key):
        blob = key.export_secret()
        restored = RsaPrivateKey.import_secret(blob)
        assert restored == key

    def test_import_rejects_garbage(self, key):
        with pytest.raises(ValueError, match="not an exported RSA key"):
            RsaPrivateKey.import_secret(b"nonsense")
        blob = key.export_secret()
        # Cut inside q's bytes: every length prefix is still readable.
        with pytest.raises(ValueError, match="truncated"):
            RsaPrivateKey.import_secret(blob[:-20])
        # Cut inside a length prefix.
        with pytest.raises(ValueError, match="truncated"):
            RsaPrivateKey.import_secret(blob[:6])
        with pytest.raises(ValueError, match="trailing bytes"):
            RsaPrivateKey.import_secret(blob + b"\x00")
        with pytest.raises(ValueError, match="n != p\\*q"):
            RsaPrivateKey.import_secret(
                _rsa1_blob(key.n + 2, key.e, key.d, key.p, key.q)
            )
        with pytest.raises(ValueError, match="does not invert e"):
            RsaPrivateKey.import_secret(
                _rsa1_blob(key.n, key.e, key.d + 2, key.p, key.q)
            )

    def test_raw_ops_range_checks(self, key):
        with pytest.raises(ValueError):
            key.public.raw_encrypt(key.n)
        with pytest.raises(ValueError):
            key.raw_decrypt(key.n + 5)


class TestOaep:
    def test_round_trip(self, key):
        ct = oaep_encrypt(key.public, b"the session key!")
        assert oaep_decrypt(key, ct) == b"the session key!"

    def test_round_trip_empty_message(self, key):
        assert oaep_decrypt(key, oaep_encrypt(key.public, b"")) == b""

    def test_ciphertext_length_is_modulus_length(self, key):
        assert len(oaep_encrypt(key.public, b"x")) == key.byte_length

    def test_message_too_long_rejected(self, key):
        limit = key.byte_length - 2 * 32 - 2
        with pytest.raises(ValueError, match="too long"):
            oaep_encrypt(key.public, bytes(limit + 1))

    def test_max_length_message_fits(self, key):
        limit = key.byte_length - 2 * 32 - 2
        message = bytes(limit)
        assert oaep_decrypt(key, oaep_encrypt(key.public, message)) == message

    def test_tampered_ciphertext_rejected(self, key):
        ct = bytearray(oaep_encrypt(key.public, b"secret"))
        ct[-1] ^= 1
        with pytest.raises(ValueError, match="OAEP"):
            oaep_decrypt(key, bytes(ct))

    def test_wrong_length_ciphertext_rejected(self, key):
        with pytest.raises(ValueError, match="wrong length"):
            oaep_decrypt(key, b"short")

    def test_label_mismatch_rejected(self, key):
        ct = oaep_encrypt(key.public, b"secret", label=b"label-1")
        with pytest.raises(ValueError, match="OAEP"):
            oaep_decrypt(key, ct, label=b"label-2")

    def test_label_match_accepted(self, key):
        ct = oaep_encrypt(key.public, b"secret", label=b"label-1")
        assert oaep_decrypt(key, ct, label=b"label-1") == b"secret"

    def test_wrong_key_rejected(self, key):
        other = generate_keypair(1024, label="oaep-other")
        ct = oaep_encrypt(key.public, b"secret")
        with pytest.raises(ValueError):
            oaep_decrypt(other, ct)

    @settings(max_examples=10, deadline=None)
    @given(message=st.binary(max_size=32))
    def test_round_trip_property(self, key, message):
        assert oaep_decrypt(key, oaep_encrypt(key.public, message)) == message


class TestPss:
    def test_sign_verify(self, key):
        sig = pss_sign(key, b"license request")
        assert pss_verify(key.public, b"license request", sig)

    def test_verify_rejects_other_message(self, key):
        sig = pss_sign(key, b"license request")
        assert not pss_verify(key.public, b"other request", sig)

    def test_verify_rejects_tampered_signature(self, key):
        sig = bytearray(pss_sign(key, b"msg"))
        sig[0] ^= 1
        assert not pss_verify(key.public, b"msg", bytes(sig))

    def test_verify_rejects_wrong_length(self, key):
        assert not pss_verify(key.public, b"msg", b"short")

    def test_verify_rejects_wrong_key(self, key):
        other = generate_keypair(1024, label="pss-other")
        sig = pss_sign(key, b"msg")
        assert not pss_verify(other.public, b"msg", sig)

    def test_2048_bit_operation(self, key2048):
        sig = pss_sign(key2048, b"big-key message")
        assert pss_verify(key2048.public, b"big-key message", sig)

    def test_empty_message(self, key):
        sig = pss_sign(key, b"")
        assert pss_verify(key.public, b"", sig)

    @settings(max_examples=10, deadline=None)
    @given(message=st.binary(max_size=64))
    def test_sign_verify_property(self, key, message):
        assert pss_verify(key.public, message, pss_sign(key, message))


def _textbook_pss_sign(key: RsaPrivateKey, message: bytes, salt: bytes) -> bytes:
    """EMSA-PSS-ENCODE (SHA-256, MGF1-SHA-256) then the full-width
    ``pow(em, d, n)`` of PKCS#1 v2.2 section 8.1.1, written out here
    independently of repro.crypto.rsa."""

    def mgf1(seed: bytes, length: int) -> bytes:
        out = b""
        counter = 0
        while len(out) < length:
            out += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
            counter += 1
        return out[:length]

    em_bits = key.n.bit_length() - 1
    em_len = (em_bits + 7) // 8
    h = hashlib.sha256(
        bytes(8) + hashlib.sha256(message).digest() + salt
    ).digest()
    db = bytes(em_len - len(salt) - 32 - 2) + b"\x01" + salt
    masked_db = bytearray(
        x ^ y for x, y in zip(db, mgf1(h, em_len - 32 - 1))
    )
    masked_db[0] &= 0xFF >> (8 * em_len - em_bits)
    em = int.from_bytes(bytes(masked_db) + h + b"\xbc", "big")
    return pow(em, key.d, key.n).to_bytes(key.byte_length, "big")


class TestCrtPrivateOperation:
    @pytest.mark.parametrize("fixture", ["key", "key2048"])
    def test_pss_signature_matches_full_width_exponentiation(
        self, fixture, request
    ):
        key = request.getfixturevalue(fixture)
        for index, message in enumerate([b"", b"license request", bytes(300)]):
            label = f"crt-vs-textbook/{fixture}/{index}"
            salt = derive_rng(label).generate(32)
            signature = pss_sign(key, message, rng=derive_rng(label))
            assert signature == _textbook_pss_sign(key, message, salt)

    def test_raw_decrypt_matches_full_width_exponentiation(self, key2048):
        rng = derive_rng("crt-raw-decrypt")
        for c in [0, 1, 2, key2048.p, key2048.q, key2048.n - 1] + [
            rng.randint_below(key2048.n) for _ in range(4)
        ]:
            assert key2048.raw_decrypt(c) == pow(c, key2048.d, key2048.n)

    @pytest.mark.parametrize("fixture", ["key", "key2048"])
    def test_round_tripped_key_signs_identically(self, fixture, request):
        key = request.getfixturevalue(fixture)
        restored = RsaPrivateKey.import_secret(key.export_secret())
        assert restored is not key
        assert pss_sign(restored, b"m", rng=derive_rng("crt-rt")) == pss_sign(
            key, b"m", rng=derive_rng("crt-rt")
        )

    def test_crt_parameters_are_precomputed(self, key):
        assert key.dp == key.d % (key.p - 1)
        assert key.dq == key.d % (key.q - 1)
        assert key.qinv * key.q % key.p == 1

    def test_crt_parameters_do_not_touch_identity_or_bytes(self, key):
        assert key.export_secret() == _rsa1_blob(
            key.n, key.e, key.d, key.p, key.q
        )
        rebuilt = RsaPrivateKey(n=key.n, e=key.e, d=key.d, p=key.p, q=key.q)
        assert rebuilt == key and hash(rebuilt) == hash(key)
        assert repr(rebuilt) == (
            f"RsaPrivateKey(n={key.n}, e={key.e}, d={key.d}, "
            f"p={key.p}, q={key.q})"
        )

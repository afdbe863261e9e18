"""RSA keygen, OAEP and PSS: round trips, tamper rejection, determinism."""

import hashlib
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import bignum, rsa
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

    def test_verify_rejects_signature_plus_modulus(self, key):
        # s + n has the same s^e mod n: without the RSAVP1 range check it
        # would be a second valid signature of the same request.
        k = key.byte_length
        for index in range(64):
            signature = pss_sign(key, b"msg", rng=derive_rng(f"pss-plus-n/{index}"))
            shifted = int.from_bytes(signature, "big") + key.n
            if shifted < 1 << (8 * k):
                break
        else:
            pytest.fail("no signature s with s + n < 2^(8k) in 64 salts")
        assert pss_verify(key.public, b"msg", signature)
        assert not pss_verify(key.public, b"msg", shifted.to_bytes(k, "big"))

    def test_verify_rejects_representative_wider_than_em_len(self):
        # A modulus of 8k + 1 bits has em_len = k - 1 bytes, so an m of
        # 8k + 1 bits cannot be an encoded message.
        odd = generate_keypair(1025, label="pss-1025")
        em_len = (odd.n.bit_length() - 1 + 7) // 8
        assert em_len == odd.byte_length - 1
        m = odd.n - 1
        signature = odd.raw_decrypt(m).to_bytes(odd.byte_length, "big")
        assert not pss_verify(odd.public, b"msg", signature)
        good = pss_sign(odd, b"msg")
        assert pss_verify(odd.public, b"msg", good)

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


# --- key generation: deferred Miller-Rabin rounds ----------------------


_PRIMES_TO_2000 = [
    n for n in range(2, 2001) if all(n % d for d in range(2, int(n**0.5) + 1))
]


def _eager_keypair(bits: int, rng) -> tuple[int, int]:
    """Reference eager search: trial division to 2000, then up to 24
    Miller-Rabin rounds on every candidate that gets past it, stopping
    at the first failing round. Returns (p, q)."""

    def probable_prime(candidate: int) -> bool:
        for prime in _PRIMES_TO_2000:
            if candidate == prime:
                return True
            if candidate % prime == 0:
                return False
        d, r = candidate - 1, 0
        while d % 2 == 0:
            d, r = d // 2, r + 1
        for _ in range(24):
            x = pow(2 + rng.randint_below(candidate - 3), d, candidate)
            if x in (1, candidate - 1):
                continue
            for _ in range(r - 1):
                x = pow(x, 2, candidate)
                if x == candidate - 1:
                    break
            else:
                return False
        return True

    def prime(width: int) -> int:
        while True:
            candidate = rng.rand_odd(width)
            if probable_prime(candidate):
                return candidate

    while True:
        p, q = prime(bits // 2), prime(bits - bits // 2)
        if p != q and (p - 1) * (q - 1) % 65537 and (p * q).bit_length() == bits:
            return p, q


def _fingerprint(key: RsaPrivateKey) -> str:
    return hashlib.sha256(key.export_secret()).hexdigest()


# sha256(export_secret()) of keys minted by the eager generator. The
# device labels are every key that the default ten-app world and the
# set-ups of the four perfbench workloads at seed 1 mint.
_GOLDEN_KEYS = {
    # Default world, so also the table1 and fleet_resubmit set-ups.
    # The second one drops two prime pairs before it keeps one.
    ("device-rsa/93f358be0e5b377c35a41cefd4bbef49"
     "66e557e433ce8311b5ee2029a8dfe0d8", 2048):
    "058897d98865579bdcfd9faac9b9e0d77f2ec1d5597cddee0257ecee4012da2b",
    ("device-rsa/0bfee76dba5ae0be1f0f25fefd0f93e9"
     "f0262af8c51f714a5a8505eecf61ffa7", 2048):
    "de0527bbbe34783f43eac0ea163700e6ca60af447f94541c4cfa910b48d55fcd",
    # viewers set-up (two L1 devices and one L3); the first drops four
    # pairs. recovery_longtail mints no key.
    ("device-rsa/60b076f92acf92b8f5b201ebd5aa9518"
     "f854c2de23b66254b4453f5524e1c22b", 2048):
    "bde7f43f430d78bd6a790061a05ac0bd9f0ef956d7d0ad005b6def48c3d8ad34",
    ("device-rsa/ac73a091135d23b93a90be1718d176b3"
     "da497cb19e4265253fca8d890162ac86", 2048):
    "a5ada0ede7d3c5c7c4c3afdd3efdfe90f85aa20d784fd430dea81ba37958c216",
    ("device-rsa/2ae83cb4fac9e4998d3c191e0f69e00c"
     "ab17a103613a897902c80aba30aee0df", 2048):
    "1395bc1bae9504299f837dc9e1eb14571274700895f05a5bc991abad98c70b83",
    # This module's fixtures.
    ("test-suite-1024", 1024):
    "3e35c98e182b0e52465963c2f2dd6afa2e8a90973867015c079bad0eb7240079",
    ("test-suite-2048", 2048):
    "b0687bf99ce27e54e5d497386eed251a366f911dcdcab37cb9a7c60d7ec25d15",
}
# The DRBG's next 16 bytes after minting the module fixtures' keys.
_DRBG_AFTER_KEYGEN = {
    "test-suite-1024": bytes.fromhex("678400b97cd259a46853a484e6fc7d4d"),
    "test-suite-2048": bytes.fromhex("9b1e4bea8e1a19137bf53e1d12d0c6b4"),
}
# benchmarks/bench_crypto.py's uncached keygen label: drops one pair.
_DISCARDING_LABEL = "bench-rsa-keygen/3"
_DISCARDING_FINGERPRINT = (
    "543205f65692498e104f94c1a102f2682e30863066d2af4fb570ebdb31c6bd66"
)


class _ScriptedDrbg:
    """Hands ``generate_keypair`` scripted candidates and witness draws."""

    def __init__(self, candidates: list[int], draws: list[int]):
        self.candidates = list(candidates)
        self.draws = list(draws)

    def rand_odd(self, bits: int) -> int:
        return self.candidates.pop(0)

    def randint_below(self, upper: int) -> int:
        return self.draws.pop(0)


class TestDeferredKeygen:
    @pytest.mark.parametrize("bits", [8, 16, 24, 40, 64, 128, 512])
    def test_matches_eager_search(self, bits):
        # Same keys and the same DRBG position afterwards, from tiny
        # moduli (candidates <= 2000, then <= 2^16: no sieve) up.
        for index in range(8 if bits == 512 else 40):
            label = f"eager-vs-deferred/{bits}/{index}"
            ours, theirs = derive_rng(label), derive_rng(label)
            key = generate_keypair(bits, rng=ours)
            assert (key.p, key.q) == _eager_keypair(bits, theirs)
            assert ours.generate(16) == theirs.generate(16)

    @pytest.mark.parametrize("label,bits", sorted(_GOLDEN_KEYS))
    def test_golden_fingerprints(self, label, bits):
        key = generate_keypair(bits, label=label)
        assert _fingerprint(key) == _GOLDEN_KEYS[label, bits]

    def test_discarded_pairs_keep_the_stream(self, monkeypatch):
        searches = []
        find_prime = rsa._find_prime

        def counted(bits, rng):
            searches.append(bits)
            return find_prime(bits, rng)

        monkeypatch.setattr(rsa, "_find_prime", counted)
        key = generate_keypair(2048, rng=derive_rng(_DISCARDING_LABEL))
        assert searches == [1024] * 4
        assert _fingerprint(key) == _DISCARDING_FINGERPRINT

    def test_round_one_liar_never_reaches_a_key(self):
        # 1048759 * 2097517: no factor below 2^16, so only Miller-Rabin
        # can reject it, and 7 is a strong liar for it while 2 is not.
        liar = 2199789831403
        assert liar == 1048759 * 2097517
        assert rsa._mr_round(liar, 7) and not rsa._mr_round(liar, 2)
        q1, p2, q2 = 4398046511119, 2748779069441, 3848290697227
        # Witness draws are 2 + randint_below(candidate - 3).
        rng = _ScriptedDrbg(
            candidates=[liar, q1, p2, q2],
            draws=[5] + [0] * 23 + [0] * 24 * 3,
        )
        key = generate_keypair(84, rng=rng)
        assert (key.p, key.q) == (p2, q2)
        assert rng.candidates == [] and rng.draws == []
        assert (liar * q1).bit_length() == 84


# --- exponentiation backends: libcrypto vs pow -------------------------


def _pow_pair(base1, exp1, mod1, base2, exp2, mod2):
    return pow(base1, exp1, mod1), pow(base2, exp2, mod2)


def _patch_to_pow(monkeypatch) -> None:
    """Point rsa.py's three exponentiations at the interpreter's pow."""
    monkeypatch.setattr(rsa, "modexp", pow)
    monkeypatch.setattr(rsa, "modexp_pair", _pow_pair)
    monkeypatch.setattr(rsa, "modexp_public", pow)


@pytest.fixture(params=["native", "pow"])
def backend(request, monkeypatch):
    """Run a test once through bignum (libcrypto where it loads) and once
    with rsa.py's exponentiations patched to the interpreter's pow."""
    if request.param == "pow":
        _patch_to_pow(monkeypatch)
    return request.param


def _rsa_transcript(key: RsaPrivateKey) -> list[bytes]:
    """Bytes of every padded and raw operation on *key*."""
    out = []
    rng = derive_rng(f"backend-transcript/{key.n.bit_length()}")
    for c in [0, 1, key.p, key.n - 1, rng.randint_below(key.n)]:
        out.append(key.raw_decrypt(c).to_bytes(key.byte_length, "big"))
    for index, message in enumerate([b"", b"license request", bytes(190)]):
        signature = pss_sign(key, message, rng=derive_rng(f"bt-pss/{index}"))
        assert pss_verify(key.public, message, signature)
        assert not pss_verify(key.public, message + b"!", signature)
        ciphertext = oaep_encrypt(
            key.public, message[:62], rng=derive_rng(f"bt-oaep/{index}")
        )
        assert oaep_decrypt(key, ciphertext) == message[:62]
        out += [signature, ciphertext]
    return out


class TestModexpBackends:
    """libcrypto and pow produce identical bytes everywhere."""

    @pytest.mark.parametrize("fixture", ["key", "key2048"])
    def test_operations_byte_identical(self, fixture, request, monkeypatch):
        key = request.getfixturevalue(fixture)
        native = _rsa_transcript(key)
        _patch_to_pow(monkeypatch)
        assert _rsa_transcript(key) == native

    @pytest.mark.parametrize(
        "label,bits",
        [("test-suite-1024", 1024), ("test-suite-2048", 2048)],
    )
    def test_keygen_golden_and_drbg_position(self, backend, label, bits):
        rng = derive_rng(label)
        key = generate_keypair(bits, rng=rng)
        assert _fingerprint(key) == _GOLDEN_KEYS[label, bits]
        assert rng.generate(16) == _DRBG_AFTER_KEYGEN[label]

    def test_dropped_pair_label(self, backend):
        key = generate_keypair(2048, rng=derive_rng(_DISCARDING_LABEL))
        assert _fingerprint(key) == _DISCARDING_FINGERPRINT

    def test_concurrent_raw_decrypt(self, key2048):
        rng = derive_rng("backend-threads")
        inputs = [rng.randint_below(key2048.n) for _ in range(8 * 6)]
        expected = [key2048.raw_decrypt(c) for c in inputs]
        assert expected[:2] == [pow(c, key2048.d, key2048.n) for c in inputs[:2]]
        barrier = threading.Barrier(8)
        results: dict[int, list[int]] = {}

        def worker(index: int) -> None:
            barrier.wait(timeout=30)
            chunk = inputs[index::8]
            results[index] = [key2048.raw_decrypt(c) for c in chunk * 3]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for index in range(8):
            assert results[index] == expected[index::8] * 3


class TestSecretExponentsStayConstantTime:
    def test_no_private_exponent_reaches_a_variable_time_call(
        self, key, monkeypatch
    ):
        """Every exponent that reaches modexp_public is e, and every
        three-argument pow in rsa.py squares or inverts: d, dp, dq and
        the Miller-Rabin exponents go through the constant-time calls."""
        if bignum.backend() is pow or bignum.public_backend() is pow:
            pytest.skip("no libcrypto binding; pow is the only backend")
        public_exponents: list[int] = []
        pow_exponents: list[int] = []

        def recording_public(base, exp, mod):
            public_exponents.append(exp)
            return bignum.modexp_public(base, exp, mod)

        def recording_pow(base, exp, mod=None):
            if mod is not None:
                pow_exponents.append(exp)
            return pow(base, exp, mod)

        monkeypatch.setattr(rsa, "modexp_public", recording_public)
        # A module global shadows the builtin for every call in rsa.py.
        monkeypatch.setattr(rsa, "pow", recording_pow, raising=False)
        _rsa_transcript(key)
        fresh = generate_keypair(1024, rng=derive_rng("secret-exponent-audit"))
        _rsa_transcript(fresh)
        assert set(public_exponents) == {65537}
        assert pow_exponents and set(pow_exponents) <= {2, -1}

    def test_crt_halves_are_one_paired_call(self, key2048, monkeypatch):
        calls = []

        def recording_pair(*args):
            calls.append(args)
            return bignum.modexp_pair(*args)

        monkeypatch.setattr(rsa, "modexp_pair", recording_pair)
        monkeypatch.setattr(rsa, "modexp", None)  # never the single call
        c = derive_rng("crt-pair").randint_below(key2048.n)
        assert key2048.raw_decrypt(c) == pow(c, key2048.d, key2048.n)
        k = key2048
        assert calls == [(c, k.dp, k.p, c, k.dq, k.q)]


class TestPairedMillerRabin:
    def test_paired_rounds_match_one_prime_at_a_time(self):
        rng = derive_rng("paired-mr")
        p, p_witnesses = rsa._find_prime(256, rng)
        q, q_witnesses = rsa._find_prime(256, rng)
        assert len(p_witnesses) == len(q_witnesses) == 23
        assert rsa._mr_rounds_pass(p, p_witnesses, q, q_witnesses)
        # A composite with a liar for the first round fails a later one.
        liar = 2199789831403  # 1048759 * 2097517; 7 lies, 2 does not
        assert not rsa._mr_rounds_pass(liar, [7, 2], p, p_witnesses[:2])
        assert not rsa._mr_rounds_pass(p, p_witnesses[:2], liar, [7, 2])
        assert rsa._mr_rounds_pass(liar, [7, 7], p, p_witnesses[:2])

    def test_primes_without_witnesses(self):
        # Primes up to 2000 come with no witnesses; the other one of the
        # pair still runs every round of its own.
        assert rsa._mr_rounds_pass(1999, [], 1997, [])
        assert rsa._mr_rounds_pass(1999, [], 7919, [5, 6, 7])
        assert not rsa._mr_rounds_pass(1999, [], 2199789831403, [7, 2])

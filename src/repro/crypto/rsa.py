"""RSA key generation and padded operations (OAEP, PSS).

The Widevine protocol uses a per-device 2048-bit RSA key installed
during provisioning: license requests are signed with RSASSA-PSS and
the license server wraps session material with RSAES-OAEP. Both are
implemented here from the PKCS#1 v2.2 definitions over Python integers:
the encodings, the DRBG draws and the CRT recombination are pure
Python, and every full-width modular exponentiation goes through
:mod:`repro.crypto.bignum`, to the libcrypto call OpenSSL's own RSA
makes for the same job where :mod:`repro.crypto.libcrypto` opens a
libcrypto that passes its known-answer checks, and to ``pow``
otherwise. The results are identical either way.

- Every private-key operation (OAEP decryption and PSS signing alike)
  goes through one primitive, :meth:`RsaPrivateKey.raw_decrypt`, which
  exponentiates modulo ``p`` and ``q`` separately and recombines with
  the CRT: about 3x less work than ``c^d mod n`` over the full modulus,
  and equal to it for every input. Both halves are one constant-time
  :func:`~repro.crypto.bignum.modexp_pair` call, which on an
  AVX512-IFMA CPU computes them in one pass (about 2x faster than two
  constant-time calls, over 20x faster than ``pow``).
- The public operations (OAEP encryption, PSS verification) exponentiate
  by ``e = 65537`` through the variable-time
  :func:`~repro.crypto.bignum.modexp_public` (about 3.5x faster than the
  constant-time call): the exponent is public, so its timing hides
  nothing. No private exponent reaches it (lint rule ``RSA005``).

The CRT parameters ``dp``, ``dq`` and ``qinv`` are computed once when
the key object is built; they are not part of the key's identity
(``==``, ``repr``) or of its exported bytes.

Key generation is deterministic given a DRBG, which lets the
provisioning server mint reproducible per-device keys and lets the test
suite cache expensive keys by seed. A prime search draws a random odd
candidate of the wanted width, drops it if a prime up to 2000 divides it
(no further draw), and otherwise draws the 24 Miller-Rabin witnesses of
an eager test, stopping at the first round the candidate fails (each
round opens with one full-width exponentiation by the odd part of
``candidate - 1``, constant time because a kept prime is secret; its
squarings stay ``pow``). Three things cut the exponentiation time
without moving a single draw:

* the gcd sieve: a candidate with a prime factor in (2000, 2^13] still
  draws its round-1 witness but is rejected by one ``math.gcd`` against
  the product of those primes, without the full-width exponentiation of
  round 1 (about 17% of the round-1 calls). The bound is where the
  gcd's cost and the exponentiations it saves balance best: a larger
  product rejects more but costs more per gcd (EXPERIMENTS.md);
* deferred rounds: a candidate that passes round 1 draws the witnesses
  of rounds 2-24 untested. ``generate_keypair`` tests them only for a
  pair it keeps (``p != q``, ``e`` coprime to phi, ``n`` of exactly
  ``bits`` bits; ``n`` falls one bit short about 39% of the time) and
  drops the pair if one fails, so every prime of a returned key has
  passed all 24 rounds with the witnesses the eager test drew;
* paired rounds: round ``i`` of ``p`` and of ``q`` is one
  :func:`~repro.crypto.bignum.modexp_pair` call, and the test stops at
  the first round either prime fails.

The keys are those of the eager search unless a random composite passes
round 1 and then fails a later round (the eager test would have drawn
fewer witnesses for it). For a 1024-bit prime that is below 2^-40, the
Damgard-Landrock-Pomerance bound ``k^2 * 4^(2 - sqrt(k))`` for one
round. Golden fingerprints in the test suite pin every key the study
and the benchmark mint.
"""

from __future__ import annotations

import functools
import hashlib
import math
import threading
from dataclasses import dataclass, field

from repro.crypto.bignum import modexp, modexp_pair, modexp_public
from repro.crypto.modes import xor_bytes
from repro.crypto.rng import HmacDrbg, derive_rng

__all__ = [
    "RsaPrivateKey",
    "RsaPublicKey",
    "generate_keypair",
    "oaep_encrypt",
    "oaep_decrypt",
    "pss_sign",
    "pss_verify",
]

# Trial division bound: a candidate with a prime factor up to here is
# dropped before any DRBG draw, as it always has been.
_TRIAL_LIMIT = 2000
# gcd sieve bound: a candidate with a prime factor in (2000, 2^13] is
# dropped after its round-1 witness is drawn but without an
# exponentiation. Past 2^14 the gcd against the product costs more than
# the extra exponentiations it saves (EXPERIMENTS.md).
_SIEVE_LIMIT = 1 << 13
# Miller-Rabin rounds every prime of a returned key passes.
_MR_ROUNDS = 24


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i, f in enumerate(flags) if f]


@functools.cache
def _sieve_tables() -> tuple[frozenset[int], int, int]:
    """(primes <= 2000, their product, product of primes in (2000, 2^13])."""
    primes = _sieve(_SIEVE_LIMIT)
    small = [p for p in primes if p <= _TRIAL_LIMIT]
    large = primes[len(small) :]
    return frozenset(small), math.prod(small), math.prod(large)


def _mr_split(candidate: int) -> tuple[int, int]:
    """``(d, s)`` with ``candidate - 1 == d * 2^s`` and ``d`` odd."""
    minus_one = candidate - 1
    shift = (minus_one & -minus_one).bit_length() - 1
    return minus_one >> shift, shift


def _mr_passes(candidate: int, x: int, shift: int) -> bool:
    """The rest of a Miller-Rabin round from ``x = witness^d``: True iff
    the witness does not prove *candidate* composite."""
    minus_one = candidate - 1
    if x == 1 or x == minus_one:
        return True
    for _ in range(shift - 1):
        x = pow(x, 2, candidate)
        if x == minus_one:
            return True
    return False


def _mr_round(candidate: int, witness: int) -> bool:
    """One Miller-Rabin round: True iff *witness* does not prove
    *candidate* composite."""
    odd, shift = _mr_split(candidate)
    return _mr_passes(candidate, modexp(witness, odd, candidate), shift)


def _mr_rounds_pass(
    p: int, p_witnesses: list[int], q: int, q_witnesses: list[int]
) -> bool:
    """Whether both *p* and *q* pass a Miller-Rabin round for each of
    their witnesses. Round ``i`` of both is one :func:`modexp_pair` call;
    the test stops at the first round either fails."""
    if len(p_witnesses) != len(q_witnesses):
        # A prime up to 2000 comes with no witnesses (tiny keys only).
        return all(_mr_round(p, w) for w in p_witnesses) and all(
            _mr_round(q, w) for w in q_witnesses
        )
    p_odd, p_shift = _mr_split(p)
    q_odd, q_shift = _mr_split(q)
    for p_witness, q_witness in zip(p_witnesses, q_witnesses):
        xp, xq = modexp_pair(p_witness, p_odd, p, q_witness, q_odd, q)
        if not (_mr_passes(p, xp, p_shift) and _mr_passes(q, xq, q_shift)):
            return False
    return True


def _find_prime(bits: int, rng: HmacDrbg) -> tuple[int, list[int]]:
    """Draw candidates until one passes MR round 1; return it with the
    witnesses of rounds 2-24, drawn but not yet tested.

    The DRBG sees the draws of an eager 24-round search: a candidate
    costs one ``rand_odd``; one that survives trial division draws its
    round-1 witness; one that passes round 1 draws 23 more (as a prime
    does in the eager search). The sieve only skips exponentiations.
    """
    small, trial_product, sieve_product = _sieve_tables()
    while True:
        candidate = rng.rand_odd(bits)
        if candidate <= _TRIAL_LIMIT:
            if candidate in small:
                return candidate, []
            continue
        if math.gcd(candidate, trial_product) != 1:
            continue
        witness = 2 + rng.randint_below(candidate - 3)
        if candidate > _SIEVE_LIMIT and math.gcd(candidate, sieve_product) != 1:
            continue
        if _mr_round(candidate, witness):
            return candidate, [
                2 + rng.randint_below(candidate - 3) for _ in range(_MR_ROUNDS - 1)
            ]


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def raw_encrypt(self, m: int) -> int:
        if not 0 <= m < self.n:
            raise ValueError("message representative out of range")
        return modexp_public(m, self.e, self.n)

    def fingerprint(self) -> bytes:
        """SHA-256 of the public modulus (used as a device key id)."""
        return hashlib.sha256(
            self.n.to_bytes(self.byte_length, "big")
        ).digest()


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key ``(n, e, d, p, q)`` with precomputed CRT parameters."""

    n: int
    e: int
    d: int
    p: int
    q: int
    # Derived from (d, p, q) in __post_init__; excluded from ==, repr
    # and export_secret() so they never change a key's identity or bytes.
    dp: int = field(init=False, repr=False, compare=False)
    dq: int = field(init=False, repr=False, compare=False)
    qinv: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dp", self.d % (self.p - 1))
        object.__setattr__(self, "dq", self.d % (self.q - 1))
        object.__setattr__(self, "qinv", pow(self.q, -1, self.p))

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def raw_decrypt(self, c: int) -> int:
        """``c^d mod n`` — RSADP, which is also RSASP1 — via the CRT.

        The one private-key primitive: :func:`oaep_decrypt` and
        :func:`pss_sign` both call it.
        """
        if not 0 <= c < self.n:
            raise ValueError("representative out of range")
        m1, m2 = modexp_pair(c, self.dp, self.p, c, self.dq, self.q)
        h = (self.qinv * (m1 - m2)) % self.p
        return m2 + h * self.q

    def export_secret(self) -> bytes:
        """Serialized private material, as stored by the CDM after
        provisioning (length-prefixed n, e, d, p, q)."""
        parts = [self.n, self.e, self.d, self.p, self.q]
        out = bytearray(b"RSA1")
        for value in parts:
            blob = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
            out.extend(len(blob).to_bytes(4, "big"))
            out.extend(blob)
        return bytes(out)

    @classmethod
    def import_secret(cls, blob: bytes) -> "RsaPrivateKey":
        """Parse :meth:`export_secret` output; raises ValueError unless
        the blob is exactly one well-formed, self-consistent key."""
        if blob[:4] != b"RSA1":
            raise ValueError("not an exported RSA key")
        values = []
        offset = 4
        for _ in range(5):
            if offset + 4 > len(blob):
                raise ValueError("truncated RSA key")
            length = int.from_bytes(blob[offset : offset + 4], "big")
            offset += 4
            if length == 0 or offset + length > len(blob):
                raise ValueError("truncated RSA key")
            values.append(int.from_bytes(blob[offset : offset + length], "big"))
            offset += length
        if offset != len(blob):
            raise ValueError("trailing bytes after RSA key")
        n, e, d, p, q = values
        if p < 2 or q < 2 or n != p * q:
            raise ValueError("inconsistent RSA key: n != p*q")
        if (e * d) % (p - 1) != 1 or (e * d) % (q - 1) != 1:
            raise ValueError("inconsistent RSA key: d does not invert e")
        return cls(n=n, e=e, d=d, p=p, q=q)


_KEY_CACHE: dict[tuple[bytes, int], RsaPrivateKey] = {}
_KEY_CACHE_LOCK = threading.Lock()
_KEY_CACHE_INFLIGHT: dict[tuple[bytes, int], threading.Event] = {}


def generate_keypair(
    bits: int = 2048, *, rng: HmacDrbg | None = None, label: str = "rsa"
) -> RsaPrivateKey:
    """Generate an RSA key pair deterministically from *rng*.

    Results are cached by (DRBG label seed, bits) when no explicit rng
    is supplied, because 2048-bit generation costs noticeable
    wall-clock and the simulation mints many devices.

    The cache is thread-safe with per-label in-flight tracking: when
    two threads provision devices with the same serial simultaneously,
    one generates while the other waits for the result instead of
    duplicating the most expensive computation in the whole substrate.
    """
    if rng is None:
        cache_key = (label.encode(), bits)
        while True:
            with _KEY_CACHE_LOCK:
                cached = _KEY_CACHE.get(cache_key)
                if cached is not None:
                    return cached
                pending = _KEY_CACHE_INFLIGHT.get(cache_key)
                if pending is None:
                    _KEY_CACHE_INFLIGHT[cache_key] = threading.Event()
                    break
            # Another thread is generating this exact key; wait for it,
            # then re-check the cache (or take over if it failed).
            pending.wait()
        try:
            key = generate_keypair(bits, rng=derive_rng(label))
            with _KEY_CACHE_LOCK:
                _KEY_CACHE[cache_key] = key
        finally:
            with _KEY_CACHE_LOCK:
                _KEY_CACHE_INFLIGHT.pop(cache_key).set()
        return key
    e = 65537
    while True:
        p, p_witnesses = _find_prime(bits // 2, rng)
        q, q_witnesses = _find_prime(bits - bits // 2, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        # Only a kept pair pays MR rounds 2-24, with the witnesses its
        # search drew; a composite that fooled round 1 drops the pair.
        if not _mr_rounds_pass(p, p_witnesses, q, q_witnesses):
            continue
        d = pow(e, -1, phi)
        return RsaPrivateKey(n=n, e=e, d=d, p=p, q=q)


# --- PKCS#1 v2.2 encoding ---------------------------------------------

_HASH = hashlib.sha256
_HASH_LEN = 32


def _mgf1(seed: bytes, length: int) -> bytes:
    output = bytearray()
    counter = 0
    while len(output) < length:
        output.extend(_HASH(seed + counter.to_bytes(4, "big")).digest())
        counter += 1
    return bytes(output[:length])


def oaep_encrypt(
    public: RsaPublicKey,
    message: bytes,
    *,
    label: bytes = b"",
    rng: HmacDrbg | None = None,
) -> bytes:
    """RSAES-OAEP encryption (SHA-256, MGF1-SHA-256)."""
    k = public.byte_length
    max_len = k - 2 * _HASH_LEN - 2
    if len(message) > max_len:
        raise ValueError(f"message too long for OAEP ({len(message)} > {max_len})")
    rng = rng or derive_rng("oaep-seed")
    l_hash = _HASH(label).digest()
    padding = bytes(k - len(message) - 2 * _HASH_LEN - 2)
    data_block = l_hash + padding + b"\x01" + message
    seed = rng.generate(_HASH_LEN)
    masked_db = xor_bytes(data_block, _mgf1(seed, k - _HASH_LEN - 1))
    masked_seed = xor_bytes(seed, _mgf1(masked_db, _HASH_LEN))
    encoded = b"\x00" + masked_seed + masked_db
    c = public.raw_encrypt(int.from_bytes(encoded, "big"))
    return c.to_bytes(k, "big")


def oaep_decrypt(
    private: RsaPrivateKey, ciphertext: bytes, *, label: bytes = b""
) -> bytes:
    """RSAES-OAEP decryption; raises ValueError on any padding failure."""
    k = private.byte_length
    if len(ciphertext) != k:
        raise ValueError("ciphertext has wrong length")
    m = private.raw_decrypt(int.from_bytes(ciphertext, "big"))
    encoded = m.to_bytes(k, "big")
    if encoded[0] != 0:
        raise ValueError("OAEP decoding error")
    masked_seed = encoded[1 : 1 + _HASH_LEN]
    masked_db = encoded[1 + _HASH_LEN :]
    seed = xor_bytes(masked_seed, _mgf1(masked_db, _HASH_LEN))
    data_block = xor_bytes(masked_db, _mgf1(seed, k - _HASH_LEN - 1))
    l_hash = _HASH(label).digest()
    if data_block[:_HASH_LEN] != l_hash:
        raise ValueError("OAEP decoding error")
    rest = data_block[_HASH_LEN:]
    sep = rest.find(b"\x01")
    if sep < 0 or any(rest[:sep]):
        raise ValueError("OAEP decoding error")
    return rest[sep + 1 :]


def pss_sign(
    private: RsaPrivateKey,
    message: bytes,
    *,
    salt_len: int = _HASH_LEN,
    rng: HmacDrbg | None = None,
) -> bytes:
    """RSASSA-PSS signature (SHA-256, MGF1-SHA-256)."""
    rng = rng or derive_rng("pss-salt")
    em_bits = private.n.bit_length() - 1
    em_len = (em_bits + 7) // 8
    m_hash = _HASH(message).digest()
    if em_len < _HASH_LEN + salt_len + 2:
        raise ValueError("encoding error: modulus too small")
    salt = rng.generate(salt_len)
    m_prime = bytes(8) + m_hash + salt
    h = _HASH(m_prime).digest()
    ps = bytes(em_len - salt_len - _HASH_LEN - 2)
    db = ps + b"\x01" + salt
    db_mask = _mgf1(h, em_len - _HASH_LEN - 1)
    masked_db = bytearray(xor_bytes(db, db_mask))
    masked_db[0] &= 0xFF >> (8 * em_len - em_bits)
    em = bytes(masked_db) + h + b"\xbc"
    signature = private.raw_decrypt(int.from_bytes(em, "big"))
    return signature.to_bytes(private.byte_length, "big")


def pss_verify(
    public: RsaPublicKey,
    message: bytes,
    signature: bytes,
    *,
    salt_len: int = _HASH_LEN,
) -> bool:
    """Verify an RSASSA-PSS signature; returns False on any mismatch.

    Per RFC 8017 section 8.1.2, a signature representative outside
    ``[0, n)`` is invalid (otherwise ``s + n`` would verify as a second
    signature of the same message), and so is an ``m`` too large for
    ``em_len`` bytes (possible when ``n`` has ``8k + 1`` bits).
    """
    if len(signature) != public.byte_length:
        return False
    em_bits = public.n.bit_length() - 1
    em_len = (em_bits + 7) // 8
    s = int.from_bytes(signature, "big")
    if s >= public.n:
        return False
    m = modexp_public(s, public.e, public.n)
    if m.bit_length() > 8 * em_len:
        return False
    em = m.to_bytes(em_len, "big")
    if em[-1] != 0xBC:
        return False
    masked_db = em[: em_len - _HASH_LEN - 1]
    h = em[em_len - _HASH_LEN - 1 : -1]
    unused_bits = 8 * em_len - em_bits
    if unused_bits and masked_db[0] >> (8 - unused_bits):
        return False
    db = bytearray(xor_bytes(masked_db, _mgf1(h, em_len - _HASH_LEN - 1)))
    db[0] &= 0xFF >> (8 * em_len - em_bits)
    expected_ps = bytes(em_len - salt_len - _HASH_LEN - 2)
    if bytes(db[: len(expected_ps)]) != expected_ps:
        return False
    if db[len(expected_ps)] != 0x01:
        return False
    salt = bytes(db[-salt_len:]) if salt_len else b""
    m_hash = _HASH(message).digest()
    m_prime = bytes(8) + m_hash + salt
    return _HASH(m_prime).digest() == h

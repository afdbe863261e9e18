"""RSA key generation and padded operations (OAEP, PSS).

The Widevine protocol uses a per-device 2048-bit RSA key installed
during provisioning: license requests are signed with RSASSA-PSS and
the license server wraps session material with RSAES-OAEP. Both are
implemented here from the PKCS#1 v2.2 definitions over pure-Python
big integers.

Every private-key operation (OAEP decryption and PSS signing alike)
goes through one primitive, :meth:`RsaPrivateKey.raw_decrypt`, which
exponentiates modulo ``p`` and ``q`` separately and recombines with the
CRT — about 3x faster than ``pow(x, d, n)`` over the full modulus, and
equal to it for every input. The CRT parameters ``dp``, ``dq`` and
``qinv`` are computed once when the key object is built; they are not
part of the key's identity (``==``, ``repr``) or of its exported bytes.

Key generation is deterministic given a DRBG, which lets the
provisioning server mint reproducible per-device keys and lets the test
suite cache expensive keys by seed.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

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

_SMALL_PRIMES: list[int] = []


def _sieve(limit: int = 2000) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i, f in enumerate(flags) if f]


def _is_probable_prime(candidate: int, rng: HmacDrbg, rounds: int = 24) -> bool:
    if candidate < 2:
        return False
    global _SMALL_PRIMES
    if not _SMALL_PRIMES:
        _SMALL_PRIMES = _sieve()
    for p in _SMALL_PRIMES:
        if candidate == p:
            return True
        if candidate % p == 0:
            return False
    # Miller-Rabin.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = 2 + rng.randint_below(candidate - 3)
        x = pow(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: HmacDrbg) -> int:
    while True:
        candidate = rng.rand_odd(bits)
        if _is_probable_prime(candidate, rng):
            return candidate


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
        return pow(m, self.e, self.n)

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
        m1 = pow(c, self.dp, self.p)
        m2 = pow(c, self.dq, self.q)
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
    is supplied, because 2048-bit generation in pure Python costs
    noticeable wall-clock and the simulation mints many devices.

    The cache is thread-safe with per-label in-flight tracking: when
    parallel study workers provision devices with the same serial
    simultaneously, one thread generates while the rest wait for the
    result instead of duplicating the most expensive computation in the
    whole substrate.
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
        p = _generate_prime(bits // 2, rng)
        q = _generate_prime(bits - bits // 2, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        n = p * q
        if n.bit_length() != bits:
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
    """Verify an RSASSA-PSS signature; returns False on any mismatch."""
    if len(signature) != public.byte_length:
        return False
    em_bits = public.n.bit_length() - 1
    em_len = (em_bits + 7) // 8
    m = pow(int.from_bytes(signature, "big"), public.e, public.n)
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

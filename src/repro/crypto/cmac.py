"""AES-CMAC (RFC 4493 / NIST SP 800-38B).

CMAC is the workhorse of the Widevine key ladder: the device key from
the keybox derives session MAC/encryption keys by CMAC-ing structured
context strings (see :mod:`repro.crypto.kdf`). This implementation
matches the RFC 4493 test vectors (exercised in the test suite).

There is one implementation, :func:`aes_cmac_many`, over a batch of
messages under one key; :func:`aes_cmac` is the batch of one. A CMAC
chain feeds each block's output into the next block, so one chain can
only run one block at a time, but the chains of a batch are independent
of each other. A batch of one therefore runs the per-block T-table path
(:meth:`AES.encrypt_block`), and a larger batch runs its chains in
lockstep: each step is one pass of the whole-buffer kernel
(:meth:`AES.kernel`) over one block of every chain, so the eight chains
of a session-key derivation cost about one chain.
"""

from __future__ import annotations

import hmac
from functools import lru_cache
from typing import Sequence

from repro.crypto.aes import AES, BLOCK_SIZE, cipher_for
from repro.crypto.modes import xor_bytes

__all__ = ["aes_cmac", "aes_cmac_many", "cmac_verify"]

_MSB = 0x80
_RB = 0x87  # x^128 reduction constant
_PADDING = b"\x80" + bytes(BLOCK_SIZE - 1)


def _left_shift_one(block: bytes) -> bytes:
    value = int.from_bytes(block, "big") << 1
    shifted = value & ((1 << 128) - 1)
    return shifted.to_bytes(16, "big")


def _generate_subkeys(cipher: AES) -> tuple[bytes, bytes]:
    l = cipher.encrypt_block(bytes(BLOCK_SIZE))
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
    # short contexts under a handful of device/session keys, so caching
    # the subkey derivation (one block encryption each) is worth it.
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


def aes_cmac_many(key: bytes, messages: Sequence[bytes]) -> list[bytes]:
    """The 16-byte AES-CMAC tag of each of *messages* under *key*.

    Messages may differ in length: every chain takes one step per
    kernel pass, and a chain's tag is read at its own last block (the
    passes after it carry zero blocks in its lane, and are discarded).
    """
    if not messages:
        return []
    k1, k2 = _subkeys_for(key)
    cipher = cipher_for(key)
    chains = [_final_blocks(message, k1, k2) for message in messages]
    if len(chains) == 1:
        (chain,) = chains
        state = bytes(BLOCK_SIZE)
        encrypt_block = cipher.encrypt_block
        for at in range(0, len(chain), BLOCK_SIZE):
            state = encrypt_block(xor_bytes(state, chain[at : at + BLOCK_SIZE]))
        return [state]

    lanes = len(chains)
    width = max(map(len, chains))
    finishing: dict[int, list[int]] = {}  # block offset -> lanes ending there
    for lane, chain in enumerate(chains):
        finishing.setdefault(len(chain) - BLOCK_SIZE, []).append(lane)
    rows = [chain.ljust(width, b"\x00") for chain in chains]
    encrypt = cipher.kernel(lanes)
    from_bytes = int.from_bytes
    size = BLOCK_SIZE * lanes
    tags = [b""] * lanes
    state = 0
    for at in range(0, width, BLOCK_SIZE):
        block = b"".join([row[at : at + BLOCK_SIZE] for row in rows])
        state = encrypt(state ^ from_bytes(block, "big"))
        ending = finishing.get(at)
        if ending:
            out = state.to_bytes(size, "big")
            for lane in ending:
                tags[lane] = out[BLOCK_SIZE * lane : BLOCK_SIZE * (lane + 1)]
    return tags


def aes_cmac(key: bytes, message: bytes) -> bytes:
    """Compute the 16-byte AES-CMAC tag of *message* under *key*."""
    return aes_cmac_many(key, (message,))[0]


def cmac_verify(key: bytes, message: bytes, tag: bytes) -> bool:
    """Check *tag* against *message* in constant time."""
    return hmac.compare_digest(aes_cmac(key, message), tag)

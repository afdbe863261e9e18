"""Block-cipher modes of operation and padding.

Provides ECB, CBC and CTR over the raw AES transform, plus PKCS#7
padding. CTR is the mode CENC's ``cenc`` protection scheme uses
(ISO/IEC 23001-7), with the 16-byte counter block formed from an 8- or
16-byte IV; the helpers here accept both layouts.

All helpers obtain their cipher through :func:`repro.crypto.aes.cipher_for`,
so repeated calls under the same key skip key expansion. The modes whose
blocks are independent, ECB encryption and the CTR keystream, hand the
whole run to the multi-block kernel :meth:`repro.crypto.aes.AES.encrypt_blocks`
in one call; CBC encryption chains each block into the next and stays on
the one-block path, as does decryption. Keystream and data XOR run over
whole buffers as wide integers rather than per-byte Python loops.
"""

from __future__ import annotations

from functools import lru_cache

from repro.crypto.aes import BLOCK_SIZE, cipher_for

__all__ = [
    "pkcs7_pad",
    "pkcs7_unpad",
    "ecb_encrypt",
    "ecb_decrypt",
    "cbc_encrypt",
    "cbc_decrypt",
    "ctr_transform",
    "ctr_keystream",
    "xor_bytes",
]

_MASK128 = (1 << 128) - 1


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return (
        int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    ).to_bytes(len(a), "big")


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Append PKCS#7 padding up to a multiple of *block_size*."""
    if not 0 < block_size < 256:
        raise ValueError("block_size must be in 1..255")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len

def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Strip and validate PKCS#7 padding.

    Raises :class:`ValueError` on malformed padding — deliberately, so
    the license-server simulation can reject tampered blobs the way a
    real implementation would.
    """
    if not data or len(data) % block_size:
        raise ValueError("data length is not a multiple of the block size")
    pad_len = data[-1]
    if not 0 < pad_len <= block_size:
        raise ValueError("invalid padding length")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise ValueError("invalid padding bytes")
    return data[:-pad_len]


def ecb_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """AES-ECB over already block-aligned *plaintext* (no padding)."""
    if len(plaintext) % BLOCK_SIZE:
        raise ValueError("ECB input must be block aligned")
    return cipher_for(key).encrypt_blocks(plaintext)


def ecb_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """Inverse of :func:`ecb_encrypt`."""
    if len(ciphertext) % BLOCK_SIZE:
        raise ValueError("ECB input must be block aligned")
    cipher = cipher_for(key)
    return b"".join(
        cipher.decrypt_block(ciphertext[i : i + BLOCK_SIZE])
        for i in range(0, len(ciphertext), BLOCK_SIZE)
    )


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes, *, pad: bool = True) -> bytes:
    """AES-CBC; pads with PKCS#7 unless ``pad=False``."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError("CBC IV must be 16 bytes")
    if pad:
        plaintext = pkcs7_pad(plaintext)
    elif len(plaintext) % BLOCK_SIZE:
        raise ValueError("unpadded CBC input must be block aligned")
    cipher = cipher_for(key)
    encrypt_block = cipher.encrypt_block
    out = bytearray()
    previous = iv
    for i in range(0, len(plaintext), BLOCK_SIZE):
        block = xor_bytes(plaintext[i : i + BLOCK_SIZE], previous)
        previous = encrypt_block(block)
        out.extend(previous)
    return bytes(out)


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes, *, pad: bool = True) -> bytes:
    """Inverse of :func:`cbc_encrypt`."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError("CBC IV must be 16 bytes")
    if len(ciphertext) % BLOCK_SIZE:
        raise ValueError("CBC ciphertext must be block aligned")
    cipher = cipher_for(key)
    decrypt_block = cipher.decrypt_block
    out = bytearray()
    previous = iv
    for i in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[i : i + BLOCK_SIZE]
        out.extend(xor_bytes(decrypt_block(block), previous))
        previous = block
    plaintext = bytes(out)
    return pkcs7_unpad(plaintext) if pad else plaintext


def ctr_counters(iv: bytes, initial_block: int, nblocks: int) -> list[int]:
    """The 128-bit counter-block values for a CTR run.

    A 16-byte IV is a big-endian 128-bit initial counter that wraps
    modulo 2^128 (the CENC layout); an 8-byte IV occupies the high half,
    with a 64-bit big-endian block counter in the low half that wraps
    modulo 2^64 without carrying into the IV. This is the one
    implementation of both layouts, shared with :mod:`repro.bmff.cenc`.
    """
    if len(iv) == 16:
        start = int.from_bytes(iv, "big") + initial_block
        return [(start + i) & _MASK128 for i in range(nblocks)]
    if len(iv) == 8:
        prefix = int.from_bytes(iv, "big") << 64
        low_mask = 0xFFFFFFFFFFFFFFFF
        return [
            prefix | ((initial_block + i) & low_mask) for i in range(nblocks)
        ]
    raise ValueError("CTR IV must be 8 or 16 bytes")


@lru_cache(maxsize=4096)
def _keystream_blocks(
    key: bytes, iv: bytes, initial_block: int, nblocks: int
) -> bytes:
    return cipher_for(key).keystream(ctr_counters(iv, initial_block, nblocks))


def ctr_keystream(
    key: bytes, iv: bytes, length: int, *, initial_block: int = 0
) -> bytes:
    """The CTR keystream for *length* bytes, LRU-cached per counter run.

    CTR keystreams are pure functions of ``(key, iv, counter)``, and the
    simulation re-derives identical runs constantly: every CENC segment
    encrypted at packaging time is decrypted with the *same* keystream
    during the playback audits and media recovery, and the deterministic
    world rebuilds in tests and benchmarks repeat the exact derivations.
    Caching the block run turns all of those into a single wide XOR.
    """
    nblocks = (length + BLOCK_SIZE - 1) // BLOCK_SIZE
    return _keystream_blocks(key, iv, initial_block, nblocks)[:length]


def ctr_transform(
    key: bytes, iv: bytes, data: bytes, *, initial_block: int = 0
) -> bytes:
    """AES-CTR keystream XOR (encryption and decryption are identical).

    ``initial_block`` offsets the counter, which CENC subsample
    decryption needs when a sample's protected ranges resume mid-stream.

    The keystream is generated in one pass over the counter run (cached
    — see :func:`ctr_keystream`) and the XOR applied to the whole buffer
    at once via arbitrary-precision integers — the fast path the
    per-segment CENC encryption loop sits on.
    """
    if not data:
        return b""
    size = len(data)
    keystream = ctr_keystream(key, iv, size, initial_block=initial_block)
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    ).to_bytes(size, "big")

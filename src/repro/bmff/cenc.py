"""CENC (ISO/IEC 23001-7) ``cenc`` and ``cbcs`` scheme encryption and
decryption.

Implements AES-CTR subsample encryption over fragmented-MP4 samples:
each sample gets a per-sample IV recorded in ``senc``; a subsample map
splits the sample into clear (headers) and protected (payload) ranges,
with the CTR keystream running continuously across the protected ranges
of one sample — the detail real decryptors must get right, and the one
this module is property-tested on.

:func:`encrypt_samples` and :func:`decrypt_samples` handle many samples
under one key: they declare every sample's keystream run to
:func:`repro.crypto.modes.ctr_batch` and then run the one-sample function
on each, so the runs the keystream LRU misses come out of one kernel
pass instead of one per sample. ``cbcs`` decryption gathers each
subsample's crypt blocks into one inverse-kernel pass (through
:func:`repro.crypto.modes.cbc_decrypt`); ``cbcs`` encryption chains
them one block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bmff.boxes import SencEntry, SubsampleRange
from repro.crypto.aes import BLOCK_SIZE
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    ctr_batch,
    ctr_keystream,
    xor_bytes,
)
from repro.crypto.rng import HmacDrbg

__all__ = [
    "CencSample",
    "encrypt_sample",
    "decrypt_sample",
    "encrypt_samples",
    "decrypt_samples",
    "encrypt_sample_cbcs",
    "decrypt_sample_cbcs",
    "DEFAULT_CBCS_PATTERN",
    "iv_sequence",
    "CencDecryptError",
]


class CencDecryptError(ValueError):
    """Raised when sample decryption fails structurally."""


@dataclass
class CencSample:
    """One encrypted sample plus its ``senc`` entry."""

    data: bytes
    entry: SencEntry = field(
        default_factory=lambda: SencEntry(iv=bytes(8), subsamples=[])
    )


def _ctr_keystream(key: bytes, iv: bytes, length: int) -> bytes:
    """CENC counter mode keystream: 8-byte IV in the top half of the
    counter block, 64-bit big-endian block counter in the bottom half
    (16-byte IVs are used directly as the initial counter).

    Delegates to the process-wide cached keystream in
    :func:`repro.crypto.modes.ctr_keystream`: packaging and audit
    decryption derive identical runs, so the second side is a cache hit.
    """
    if len(iv) not in (8, 16):
        raise CencDecryptError("CENC IV must be 8 or 16 bytes")
    return ctr_keystream(key, iv, length)


def _protected_length(sample_len: int, subsamples: list[SubsampleRange]) -> int:
    if not subsamples:
        return sample_len
    total = sum(s.clear_bytes + s.protected_bytes for s in subsamples)
    if total != sample_len:
        raise CencDecryptError(
            f"subsample map covers {total} bytes, sample has {sample_len}"
        )
    return sum(s.protected_bytes for s in subsamples)


def _transform(
    data: bytes, key: bytes, entry: SencEntry
) -> bytes:
    """Apply the continuous CTR keystream to the protected ranges."""
    protected_len = _protected_length(len(data), entry.subsamples)
    keystream = _ctr_keystream(key, entry.iv, protected_len)
    if not entry.subsamples:
        return xor_bytes(data, keystream)
    out = bytearray()
    consumed = 0
    offset = 0
    for sub in entry.subsamples:
        out.extend(data[offset : offset + sub.clear_bytes])
        offset += sub.clear_bytes
        chunk = data[offset : offset + sub.protected_bytes]
        ks = keystream[consumed : consumed + sub.protected_bytes]
        out.extend(xor_bytes(chunk, ks))
        offset += sub.protected_bytes
        consumed += sub.protected_bytes
    return bytes(out)


def encrypt_sample(
    sample: bytes,
    key: bytes,
    iv: bytes,
    *,
    clear_header: int = 0,
) -> CencSample:
    """Encrypt one sample under the ``cenc`` scheme.

    ``clear_header`` bytes at the front stay in the clear (modelling
    NAL/frame headers that decoders must read before decryption), and
    are recorded as a subsample range.
    """
    if clear_header < 0 or clear_header > len(sample):
        raise ValueError("clear_header out of range")
    subsamples: list[SubsampleRange] = []
    if clear_header:
        subsamples = [SubsampleRange(clear_header, len(sample) - clear_header)]
    entry = SencEntry(iv=bytes(iv), subsamples=subsamples)
    return CencSample(data=_transform(sample, key, entry), entry=entry)


def decrypt_sample(sample: CencSample, key: bytes) -> bytes:
    """Decrypt one sample; the inverse of :func:`encrypt_sample`."""
    return _transform(sample.data, key, sample.entry)


def _ctr_run(iv: bytes, protected_len: int) -> tuple[bytes, int] | None:
    """The ``(iv, nblocks)`` keystream run of one sample, for a batch;
    None where the sample's own call will reject the IV."""
    if len(iv) not in (8, 16):
        return None
    return iv, (protected_len + BLOCK_SIZE - 1) // BLOCK_SIZE


def encrypt_samples(
    samples: list[bytes],
    key: bytes,
    ivs: list[bytes],
    *,
    clear_header: int = 0,
) -> list[CencSample]:
    """:func:`encrypt_sample` on each sample with its IV, as one
    keystream batch (see :func:`repro.crypto.modes.ctr_batch`)."""
    runs = (
        _ctr_run(iv, len(sample) - clear_header) for sample, iv in zip(samples, ivs)
    )
    with ctr_batch(key, filter(None, runs)):
        return [
            encrypt_sample(sample, key, iv, clear_header=clear_header)
            for sample, iv in zip(samples, ivs)
        ]


def decrypt_samples(samples: list[CencSample], key: bytes) -> list[bytes]:
    """:func:`decrypt_sample` on each sample, as one keystream batch.

    Byte-identical to decrypting the samples one at a time, with the
    same keystream LRU hits and misses; the runs that miss are generated
    together (see :func:`repro.crypto.modes.ctr_batch`).
    """
    runs = (
        _ctr_run(
            sample.entry.iv,
            sum(sub.protected_bytes for sub in sample.entry.subsamples)
            if sample.entry.subsamples
            else len(sample.data),
        )
        for sample in samples
    )
    with ctr_batch(key, filter(None, runs)):
        return [decrypt_sample(sample, key) for sample in samples]


def iv_sequence(seed: bytes, count: int, *, iv_size: int = 8) -> list[bytes]:
    """Deterministic per-sample IV sequence derived from *seed*."""
    rng = HmacDrbg(b"cenc-iv/" + seed)
    return [rng.generate(iv_size) for _ in range(count)]


# -- the 'cbcs' pattern-encryption scheme (ISO/IEC 23001-7 §9.6) -------------
#
# cbcs encrypts runs of `crypt_blocks` AES-CBC blocks separated by
# `skip_blocks` clear blocks (the common pattern is 1:9), with the IV
# resetting at each subsample and any partial trailing block left
# clear. It is the scheme HLS/FairPlay-compatible packaging uses; DASH
# services in this study use 'cenc', but the container substrate
# supports both.

DEFAULT_CBCS_PATTERN = (1, 9)


def _cbcs_transform_range(
    data: bytes,
    key: bytes,
    iv: bytes,
    pattern: tuple[int, int],
    *,
    encrypt: bool,
) -> bytes:
    crypt_blocks, skip_blocks = pattern
    if crypt_blocks < 1 or skip_blocks < 0:
        raise ValueError(f"bad cbcs pattern {pattern}")
    if len(iv) != BLOCK_SIZE:
        raise CencDecryptError("cbcs IV must be 16 bytes")
    # The crypt blocks of the range form one CBC chain, with the skipped
    # blocks and any partial trailing block left clear.
    crypt = crypt_blocks * BLOCK_SIZE
    stride = crypt + skip_blocks * BLOCK_SIZE
    whole = len(data) - len(data) % BLOCK_SIZE
    offsets = range(0, whole, stride)
    chain = b"".join(
        [data[offset : min(offset + crypt, whole)] for offset in offsets]
    )
    if encrypt:
        chain = cbc_encrypt(key, iv, chain, pad=False)
    else:
        chain = cbc_decrypt(key, iv, chain, pad=False)
    out = bytearray(data)
    start = 0
    for offset in offsets:
        end = start + min(crypt, whole - offset)
        out[offset : offset + end - start] = chain[start:end]
        start = end
    return bytes(out)


def encrypt_sample_cbcs(
    sample: bytes,
    key: bytes,
    iv: bytes,
    *,
    clear_header: int = 0,
    pattern: tuple[int, int] = DEFAULT_CBCS_PATTERN,
) -> CencSample:
    """Encrypt one sample under the ``cbcs`` scheme (constant IV)."""
    if clear_header < 0 or clear_header > len(sample):
        raise ValueError("clear_header out of range")
    subsamples: list[SubsampleRange] = []
    if clear_header:
        subsamples = [SubsampleRange(clear_header, len(sample) - clear_header)]
    entry = SencEntry(iv=bytes(iv), subsamples=subsamples)
    data = _apply_cbcs(sample, key, entry, pattern, encrypt=True)
    return CencSample(data=data, entry=entry)


def decrypt_sample_cbcs(
    sample: CencSample,
    key: bytes,
    *,
    pattern: tuple[int, int] = DEFAULT_CBCS_PATTERN,
) -> bytes:
    """Inverse of :func:`encrypt_sample_cbcs`."""
    return _apply_cbcs(sample.data, key, sample.entry, pattern, encrypt=False)


def _apply_cbcs(
    data: bytes,
    key: bytes,
    entry: SencEntry,
    pattern: tuple[int, int],
    *,
    encrypt: bool,
) -> bytes:
    if not entry.subsamples:
        return _cbcs_transform_range(data, key, entry.iv, pattern, encrypt=encrypt)
    _protected_length(len(data), entry.subsamples)  # validates coverage
    out = bytearray()
    offset = 0
    for sub in entry.subsamples:
        out.extend(data[offset : offset + sub.clear_bytes])
        offset += sub.clear_bytes
        chunk = data[offset : offset + sub.protected_bytes]
        # The IV resets per subsample in cbcs.
        out.extend(
            _cbcs_transform_range(chunk, key, entry.iv, pattern, encrypt=encrypt)
        )
        offset += sub.protected_bytes
    return bytes(out)

"""Block-cipher modes of operation and padding.

Provides ECB, CBC and CTR over the raw AES transform, plus PKCS#7
padding. CTR is the mode CENC's ``cenc`` protection scheme uses
(ISO/IEC 23001-7), with the 16-byte counter block formed from an 8- or
16-byte IV; the helpers here accept both layouts.

All helpers obtain their cipher through :func:`repro.crypto.aes.cipher_for`,
so repeated calls under the same key skip key expansion. Every mode whose
blocks are independent hands the whole message to one pass of a
whole-buffer kernel: ECB encryption and the CTR keystream to
:meth:`repro.crypto.aes.AES.encrypt_blocks`, ECB and CBC decryption to
:meth:`repro.crypto.aes.AES.decrypt_blocks` (CBC decryption is the
decrypted blocks XOR ``iv || C[:-16]``). Only CBC encryption, which
chains each block into the next, stays on the one-block path. Keystream
and data XOR run over whole buffers as wide integers rather than
per-byte Python loops.

CTR keystream runs are memoized per ``(key, iv, initial_block, nblocks)``
in a process-wide LRU. A caller about to request many runs under one key
(a track of CENC samples) declares them up front with :func:`ctr_batch`:
the first run that misses the LRU is then generated together with every
later run of the batch that the LRU does not hold, in one kernel pass.
The extra runs wait with the batch and enter the LRU only when their own
request arrives, so hit and miss counts and eviction order are those of
the same requests made without a batch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, namedtuple
from contextlib import contextmanager
from typing import Iterable, Iterator

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
    "ctr_batch",
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
    return cipher_for(key).decrypt_blocks(ciphertext)


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
    """Inverse of :func:`cbc_encrypt`.

    Every block decrypts independently, so the whole message is one
    :meth:`~repro.crypto.aes.AES.decrypt_blocks` pass, XORed with the
    block before each one (the IV before the first).
    """
    if len(iv) != BLOCK_SIZE:
        raise ValueError("CBC IV must be 16 bytes")
    if len(ciphertext) % BLOCK_SIZE:
        raise ValueError("CBC ciphertext must be block aligned")
    plaintext = xor_bytes(
        cipher_for(key).decrypt_blocks(ciphertext),
        (iv + ciphertext)[: len(ciphertext)],
    )
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


_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class _KeystreamLru:
    """The keystream LRU: ``functools.lru_cache`` semantics plus a peek.

    Called as ``(key, iv, initial_block, nblocks)``, it counts hits and
    misses and evicts the least recently used run exactly as an
    ``lru_cache(maxsize)`` over the same function would, and keeps its
    ``cache_info()`` / ``cache_clear()``. What it adds is :meth:`held`,
    a membership test that neither counts nor reorders: a batch asks it
    which of its later runs it still has to generate.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, bytes] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def __call__(
        self, key: bytes, iv: bytes, initial_block: int, nblocks: int
    ) -> bytes:
        run = (key, iv, initial_block, nblocks)
        with self._lock:
            blocks = self._entries.get(run)
            if blocks is not None:
                self._entries.move_to_end(run)
                self._hits += 1
                return blocks
            self._misses += 1
        batch = getattr(_local, "batch", None)
        if batch is not None and batch.key == key:
            blocks = batch.take(run, self)
        else:
            blocks = cipher_for(key).keystream(ctr_counters(iv, initial_block, nblocks))
        with self._lock:
            # Like lru_cache, a run another thread stored meanwhile stays
            # where it is.
            if run not in self._entries:
                self._entries[run] = blocks
                if len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
        return blocks

    def held(self, runs: list[tuple]) -> set[tuple]:
        """The runs among *runs* the cache holds, without touching them."""
        with self._lock:
            return {run for run in runs if run in self._entries}

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self.maxsize, len(self._entries))

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0


_keystream_blocks = _KeystreamLru(maxsize=4096)

# The innermost open ctr_batch of each thread.
_local = threading.local()


class _KeystreamBatch:
    """The CTR runs one caller is about to request under one key.

    *runs* is read once, at the first LRU miss under the batch's key, so
    a batch whose requests all hit costs nothing beyond opening it.
    """

    def __init__(self, key: bytes, runs: Iterable[tuple[bytes, int]]):
        self.key = key
        self._runs: Iterable[tuple[bytes, int]] | None = runs
        self._order: list[tuple] = []
        self._next = 0  # where the search for the next request starts
        self._parked: dict[tuple, bytes] = {}

    def take(self, run: tuple, cache: _KeystreamLru) -> bytes:
        """The blocks of *run*, which just missed *cache*.

        A parked run is handed over as it is. Any other run is generated
        in one kernel pass with every later run of the batch that is
        neither held by *cache* nor parked; those later runs are parked.
        """
        blocks = self._parked.pop(run, None)
        if blocks is not None:
            return blocks
        if self._runs is not None:
            self._order = [(self.key, iv, 0, nblocks) for iv, nblocks in self._runs]
            self._runs = None
        wanted = [run]
        try:
            index = self._order.index(run, self._next)
        except ValueError:
            pass  # not declared: a batch of one
        else:
            self._next = index + 1
            later = self._order[index + 1 :]
            skip = cache.held(later)
            skip.update(self._parked)
            skip.add(run)
            for other in later:
                if other not in skip:
                    skip.add(other)
                    wanted.append(other)
        counters: list[int] = []
        for _, iv, initial_block, nblocks in wanted:
            counters += ctr_counters(iv, initial_block, nblocks)
        keystream = cipher_for(self.key).keystream(counters)
        offset = run[3] * BLOCK_SIZE
        for other in wanted[1:]:
            end = offset + other[3] * BLOCK_SIZE
            self._parked[other] = keystream[offset:end]
            offset = end
        return keystream[: run[3] * BLOCK_SIZE]


@contextmanager
def ctr_batch(key: bytes, runs: Iterable[tuple[bytes, int]]) -> Iterator[None]:
    """Declare the CTR runs about to be requested under *key*.

    *runs* are ``(iv, nblocks)`` pairs at initial block 0, in the order
    the caller will request them through :func:`ctr_keystream` inside
    the ``with`` block; the iterable is read at most once, at the first
    LRU miss. Requests still go through the LRU one by one, with the
    same hits, misses and evictions as without the batch; a miss makes
    one kernel pass for itself and every later run the LRU does not
    hold (see :class:`_KeystreamBatch`). The batch belongs to the
    calling thread, and a batch opened inside another replaces it until
    it closes.
    """
    outer = getattr(_local, "batch", None)
    _local.batch = _KeystreamBatch(key, runs)
    try:
        yield
    finally:
        _local.batch = outer


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
    Inside a :func:`ctr_batch` under *key*, a miss generates the rest of
    the batch alongside.
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

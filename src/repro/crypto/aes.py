"""Pure-Python AES block cipher (FIPS 197).

Implements the raw 128-bit block transform for AES-128/192/256. Modes of
operation live in :mod:`repro.crypto.modes`. There are two paths in each
direction, one per shape of work:

* **One block at a time** (:meth:`AES.encrypt_block`,
  :meth:`AES.decrypt_block`): the round function operates on four
  32-bit column words through fused SubBytes/ShiftRows/MixColumns
  lookup tables (the classic "T-table" formulation). CBC encryption and
  a single CMAC chain feed each block into the next, so they can only
  ever use the encryption side. Both are also the references the
  multi-block kernels are tested against; nothing else in the package
  decrypts one block at a time (lint rule ``AES006``).
* **Many independent blocks**: a whole-buffer "SWAR" (SIMD within a
  register) kernel. The N blocks are one 16N-byte big integer, and
  every round step transforms all of them at once with a fixed number
  of C-level operations. :meth:`AES.kernel` encrypts, with
  :meth:`AES.encrypt_blocks` and :meth:`AES.keystream` / ECB on top of
  it and the lockstep CMAC chains of :mod:`repro.crypto.cmac` stepping
  one kernel once per block: SubBytes (and SubBytes times 2 in GF(2^8))
  is one ``bytes.translate`` each, ShiftRows seven masked shifts,
  MixColumns three masked byte-rotations inside each 4-byte column plus
  XORs, AddRoundKey one XOR with the round key repeated N times.
  :meth:`AES.decrypt_kernel` is its mirror, with
  :meth:`AES.decrypt_blocks` (ECB and CBC decryption, ``cbcs``) on top:
  InvShiftRows seven masked shifts, InvSubBytes fused with each of the
  InvMixColumns multiples 9, 11, 13 and 14 as one ``bytes.translate``
  each, InvMixColumns three column rotations, in the equivalent inverse
  cipher's order so that the translations can share one byte string. A
  kernel's cost is about 50 big-integer operations per round whatever
  N is, so it overtakes the T-table loop from two or three blocks
  upward and runs several times faster on runs of a few dozen blocks
  and more.

The kernels keep no per-length state: :meth:`AES.kernel` and
:meth:`AES.decrypt_kernel` build the repeated round keys and masks on
each call, and the caller keeps the result only as long as it steps the
same lanes. Caching them would multiply the size of every cached cipher
(see :func:`cipher_for`) for a cost that is small next to the rounds.
The one per-key addition is the equivalent inverse cipher's round keys
(InvMixColumns of the middle ones), 16 bytes a round, built on a
cipher's first decryption.

This module is self-contained on purpose: the execution environment has
no third-party crypto packages, and the Widevine key ladder reproduced
in :mod:`repro.widevine.keyladder` needs real AES so that recovered keys
actually decrypt real ciphertext.

Because key expansion is itself a measurable cost on the hot paths
(CENC packaging re-keys constantly with a small working set of content
keys), :func:`cipher_for` maintains a process-wide LRU cache of
expanded ciphers. All mode helpers route through it; callers that want
an uncached instance can still construct :class:`AES` directly.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Callable

__all__ = ["AES", "BLOCK_SIZE", "cipher_for"]

BLOCK_SIZE = 16

# --- S-box generation -------------------------------------------------
#
# The S-box is derived from the multiplicative inverse in GF(2^8)
# followed by the affine transform, rather than pasted as a literal
# table, so the construction is auditable.


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    # Multiplicative inverses via exponentiation by 254 (a^254 = a^-1).
    inverse = [0] * 256
    for value in range(1, 256):
        acc = 1
        base = value
        exp = 254
        while exp:
            if exp & 1:
                acc = _gf_mul(acc, base)
            base = _gf_mul(base, base)
            exp >>= 1
        inverse[value] = acc

    sbox = bytearray(256)
    for value in range(256):
        inv = inverse[value]
        transformed = 0x63
        for shift in (0, 1, 2, 3, 4):
            rotated = ((inv << shift) | (inv >> (8 - shift))) & 0xFF
            transformed ^= rotated
        sbox[value] = transformed

    inv_sbox = bytearray(256)
    for value, substituted in enumerate(sbox):
        inv_sbox[substituted] = value
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()

# Round constants for the key schedule.
_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 2))

# Precomputed multiplication tables for MixColumns / InvMixColumns.
_MUL2 = bytes(_gf_mul(x, 2) for x in range(256))
_MUL3 = bytes(_gf_mul(x, 3) for x in range(256))
_MUL9 = bytes(_gf_mul(x, 9) for x in range(256))
_MUL11 = bytes(_gf_mul(x, 11) for x in range(256))
_MUL13 = bytes(_gf_mul(x, 13) for x in range(256))
_MUL14 = bytes(_gf_mul(x, 14) for x in range(256))

# --- fused round tables -----------------------------------------------
#
# State columns are 32-bit big-endian words (row 0 in the MSB). One
# encryption round of column c is then
#
#   T0[b0] ^ T1[b1] ^ T2[b2] ^ T3[b3] ^ round_key_word
#
# where b0..b3 are the ShiftRows-selected source bytes: each T table
# folds SubBytes and the MixColumns contribution of one row position
# into a single lookup.


def _build_enc_tables() -> tuple[tuple[int, ...], ...]:
    t0, t1, t2, t3 = [], [], [], []
    for x in range(256):
        s = _SBOX[x]
        s2, s3 = _MUL2[s], _MUL3[s]
        t0.append((s2 << 24) | (s << 16) | (s << 8) | s3)
        t1.append((s3 << 24) | (s2 << 16) | (s << 8) | s)
        t2.append((s << 24) | (s3 << 16) | (s2 << 8) | s)
        t3.append((s << 24) | (s << 16) | (s3 << 8) | s2)
    return tuple(t0), tuple(t1), tuple(t2), tuple(t3)


def _build_dec_tables() -> tuple[tuple[int, ...], ...]:
    # InvMixColumns on one byte per row position; applied *after* the
    # InvSubBytes/InvShiftRows/AddRoundKey step of the equivalent
    # inverse cipher, so these tables take plain bytes, not S-box
    # outputs.
    u0, u1, u2, u3 = [], [], [], []
    for b in range(256):
        m9, m11, m13, m14 = _MUL9[b], _MUL11[b], _MUL13[b], _MUL14[b]
        u0.append((m14 << 24) | (m9 << 16) | (m13 << 8) | m11)
        u1.append((m11 << 24) | (m14 << 16) | (m9 << 8) | m13)
        u2.append((m13 << 24) | (m11 << 16) | (m14 << 8) | m9)
        u3.append((m9 << 24) | (m13 << 16) | (m11 << 8) | m14)
    return tuple(u0), tuple(u1), tuple(u2), tuple(u3)


_T0, _T1, _T2, _T3 = _build_enc_tables()
_U0, _U1, _U2, _U3 = _build_dec_tables()

# --- whole-buffer kernel constants -------------------------------------
#
# The kernel holds N blocks as one big-endian integer, so state byte i
# of block j sits at byte offset 16j + i (i = row + 4 * column, FIPS 197
# order) and a left shift moves bytes towards the start of a block.
# These are one-block patterns; each call repeats them N times.

# SubBytes fused with multiplication by 2, for MixColumns.
_SBOX2 = bytes(_MUL2[s] for s in _SBOX)


# InvSubBytes fused with the four InvMixColumns multiples.
_INV_SBOX9 = bytes(_MUL9[s] for s in _INV_SBOX)
_INV_SBOX11 = bytes(_MUL11[s] for s in _INV_SBOX)
_INV_SBOX13 = bytes(_MUL13[s] for s in _INV_SBOX)
_INV_SBOX14 = bytes(_MUL14[s] for s in _INV_SBOX)


def _build_shift_rows_masks(direction: int) -> dict[int, bytes]:
    # ShiftRows (direction 1) takes output byte r + 4c from input byte
    # r + 4((c+r) % 4), InvShiftRows (direction -1) from r + 4((c-r) % 4):
    # a shift by seven distinct byte distances, one mask per distance.
    masks: dict[int, bytearray] = {}
    for col in range(4):
        for row in range(4):
            dest = row + 4 * col
            distance = row + 4 * ((col + direction * row) % 4) - dest
            masks.setdefault(distance, bytearray(BLOCK_SIZE))[dest] = 0xFF
    return {distance: bytes(mask) for distance, mask in masks.items()}


_SHIFT_ROWS_MASKS = _build_shift_rows_masks(1)
_INV_SHIFT_ROWS_MASKS = _build_shift_rows_masks(-1)
# Byte-rotation of each 4-byte column by one, two and three rows: the
# bytes that move up within their column, and the ones that wrap to its
# end.
_ROT1_UP = b"\xff\xff\xff\x00" * 4
_ROT1_WRAP = b"\x00\x00\x00\xff" * 4
_ROT2_UP = b"\xff\xff\x00\x00" * 4
_ROT2_WRAP = b"\x00\x00\xff\xff" * 4
_ROT3_UP = b"\xff\x00\x00\x00" * 4
_ROT3_WRAP = b"\x00\xff\xff\xff" * 4

_ROUNDS_BY_KEY_LEN = {16: 10, 24: 12, 32: 14}

_PACK4 = struct.Struct(">4I")


class AES:
    """Raw AES block transform bound to one expanded key.

    >>> cipher = AES(bytes(16))
    >>> cipher.decrypt_block(cipher.encrypt_block(b"sixteen byte msg"))
    b'sixteen byte msg'
    """

    def __init__(self, key: bytes):
        if len(key) not in _ROUNDS_BY_KEY_LEN:
            raise ValueError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self._key = bytes(key)
        self._rounds = _ROUNDS_BY_KEY_LEN[len(key)]
        self._round_keys = self._expand_key(self._key)
        # Column-word form of each round key, for the word-based rounds.
        self._round_key_words: list[tuple[int, int, int, int]] = [
            _PACK4.unpack(bytes(rk)) for rk in self._round_keys
        ]
        self._inverse_keys: list[bytes] | None = None

    @property
    def key(self) -> bytes:
        return self._key

    @property
    def rounds(self) -> int:
        return self._rounds

    def _expand_key(self, key: bytes) -> list[list[int]]:
        """Expand the key into (rounds + 1) 16-byte round keys.

        Round keys are stored as flat lists of 16 ints in column-major
        order (byte ``r + 4*c`` of round key = schedule word ``c``,
        byte ``r``).
        """
        key_words = [list(key[i : i + 4]) for i in range(0, len(key), 4)]
        nk = len(key_words)
        total_words = 4 * (self._rounds + 1)
        words = list(key_words)
        for i in range(nk, total_words):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        round_keys = []
        for r in range(self._rounds + 1):
            flat: list[int] = []
            for w in words[4 * r : 4 * r + 4]:
                flat.extend(w)
            round_keys.append(flat)
        return round_keys

    # The state is four 32-bit column words w0..w3; word c holds state
    # bytes s[0+4c]..s[3+4c] with row 0 in the most significant byte,
    # matching the FIPS 197 column-major byte numbering.

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be 16 bytes, got {len(block)}")
        w0, w1, w2, w3 = _PACK4.unpack(block)
        rk = self._round_key_words
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        k0, k1, k2, k3 = rk[0]
        w0 ^= k0
        w1 ^= k1
        w2 ^= k2
        w3 ^= k3
        for rnd in range(1, self._rounds):
            k0, k1, k2, k3 = rk[rnd]
            n0 = t0[w0 >> 24] ^ t1[(w1 >> 16) & 0xFF] ^ t2[(w2 >> 8) & 0xFF] ^ t3[w3 & 0xFF] ^ k0
            n1 = t0[w1 >> 24] ^ t1[(w2 >> 16) & 0xFF] ^ t2[(w3 >> 8) & 0xFF] ^ t3[w0 & 0xFF] ^ k1
            n2 = t0[w2 >> 24] ^ t1[(w3 >> 16) & 0xFF] ^ t2[(w0 >> 8) & 0xFF] ^ t3[w1 & 0xFF] ^ k2
            n3 = t0[w3 >> 24] ^ t1[(w0 >> 16) & 0xFF] ^ t2[(w1 >> 8) & 0xFF] ^ t3[w2 & 0xFF] ^ k3
            w0, w1, w2, w3 = n0, n1, n2, n3
        # Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        sbox = _SBOX
        k0, k1, k2, k3 = rk[self._rounds]
        return _PACK4.pack(
            ((sbox[w0 >> 24] << 24) | (sbox[(w1 >> 16) & 0xFF] << 16) | (sbox[(w2 >> 8) & 0xFF] << 8) | sbox[w3 & 0xFF]) ^ k0,
            ((sbox[w1 >> 24] << 24) | (sbox[(w2 >> 16) & 0xFF] << 16) | (sbox[(w3 >> 8) & 0xFF] << 8) | sbox[w0 & 0xFF]) ^ k1,
            ((sbox[w2 >> 24] << 24) | (sbox[(w3 >> 16) & 0xFF] << 16) | (sbox[(w0 >> 8) & 0xFF] << 8) | sbox[w1 & 0xFF]) ^ k2,
            ((sbox[w3 >> 24] << 24) | (sbox[(w0 >> 16) & 0xFF] << 16) | (sbox[(w1 >> 8) & 0xFF] << 8) | sbox[w2 & 0xFF]) ^ k3,
        )

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be 16 bytes, got {len(block)}")
        w0, w1, w2, w3 = _PACK4.unpack(block)
        rk = self._round_key_words
        inv = _INV_SBOX
        u0, u1, u2, u3 = _U0, _U1, _U2, _U3
        k0, k1, k2, k3 = rk[self._rounds]
        w0 ^= k0
        w1 ^= k1
        w2 ^= k2
        w3 ^= k3
        for rnd in range(self._rounds - 1, 0, -1):
            # InvShiftRows + InvSubBytes + AddRoundKey...
            k0, k1, k2, k3 = rk[rnd]
            v0 = ((inv[w0 >> 24] << 24) | (inv[(w3 >> 16) & 0xFF] << 16) | (inv[(w2 >> 8) & 0xFF] << 8) | inv[w1 & 0xFF]) ^ k0
            v1 = ((inv[w1 >> 24] << 24) | (inv[(w0 >> 16) & 0xFF] << 16) | (inv[(w3 >> 8) & 0xFF] << 8) | inv[w2 & 0xFF]) ^ k1
            v2 = ((inv[w2 >> 24] << 24) | (inv[(w1 >> 16) & 0xFF] << 16) | (inv[(w0 >> 8) & 0xFF] << 8) | inv[w3 & 0xFF]) ^ k2
            v3 = ((inv[w3 >> 24] << 24) | (inv[(w2 >> 16) & 0xFF] << 16) | (inv[(w1 >> 8) & 0xFF] << 8) | inv[w0 & 0xFF]) ^ k3
            # ...then InvMixColumns (equivalent-inverse-cipher ordering).
            w0 = u0[v0 >> 24] ^ u1[(v0 >> 16) & 0xFF] ^ u2[(v0 >> 8) & 0xFF] ^ u3[v0 & 0xFF]
            w1 = u0[v1 >> 24] ^ u1[(v1 >> 16) & 0xFF] ^ u2[(v1 >> 8) & 0xFF] ^ u3[v1 & 0xFF]
            w2 = u0[v2 >> 24] ^ u1[(v2 >> 16) & 0xFF] ^ u2[(v2 >> 8) & 0xFF] ^ u3[v2 & 0xFF]
            w3 = u0[v3 >> 24] ^ u1[(v3 >> 16) & 0xFF] ^ u2[(v3 >> 8) & 0xFF] ^ u3[v3 & 0xFF]
        # Final: InvShiftRows + InvSubBytes + AddRoundKey.
        k0, k1, k2, k3 = rk[0]
        return _PACK4.pack(
            ((inv[w0 >> 24] << 24) | (inv[(w3 >> 16) & 0xFF] << 16) | (inv[(w2 >> 8) & 0xFF] << 8) | inv[w1 & 0xFF]) ^ k0,
            ((inv[w1 >> 24] << 24) | (inv[(w0 >> 16) & 0xFF] << 16) | (inv[(w3 >> 8) & 0xFF] << 8) | inv[w2 & 0xFF]) ^ k1,
            ((inv[w2 >> 24] << 24) | (inv[(w1 >> 16) & 0xFF] << 16) | (inv[(w0 >> 8) & 0xFF] << 8) | inv[w3 & 0xFF]) ^ k2,
            ((inv[w3 >> 24] << 24) | (inv[(w2 >> 16) & 0xFF] << 16) | (inv[(w1 >> 8) & 0xFF] << 8) | inv[w0 & 0xFF]) ^ k3,
        )

    def kernel(self, lanes: int) -> Callable[[int], int]:
        """The whole-buffer round function for *lanes* blocks at a time.

        Builds the round keys and masks repeated *lanes* times once, and
        returns ``encrypt(state) -> state``: the kernel described in the
        module docstring, with the blocks as one big-endian integer
        (block 0 in the most significant 16 bytes) in and out. The
        blocks travel through every round together, so the Python-level
        work per round does not grow with their number. A caller that
        steps the same lanes many times (CMAC chains run in lockstep)
        pays the build once; :meth:`encrypt_blocks` is a build plus one
        call.
        """
        size = BLOCK_SIZE * lanes
        from_bytes = int.from_bytes
        keys = [from_bytes(bytes(rk) * lanes, "big") for rk in self._round_keys]
        keep, up4, up8, up12, down4, down8, down12 = (
            from_bytes(_SHIFT_ROWS_MASKS[distance] * lanes, "big")
            for distance in (0, 4, 8, 12, -4, -8, -12)
        )
        rot1_up = from_bytes(_ROT1_UP * lanes, "big")
        rot1_wrap = from_bytes(_ROT1_WRAP * lanes, "big")
        rot2_up = from_bytes(_ROT2_UP * lanes, "big")
        rot2_wrap = from_bytes(_ROT2_WRAP * lanes, "big")
        sbox, sbox2 = _SBOX, _SBOX2
        last = self._rounds
        first_key, last_key = keys[0], keys[last]

        def encrypt(state: int) -> int:
            state ^= first_key
            for rnd in range(1, last + 1):
                # ShiftRows first: it only moves bytes, so it commutes
                # with SubBytes, and shifting the input saves shifting S
                # and 2S.
                state = (
                    (state & keep)
                    | ((state << 32) & up4) | ((state << 64) & up8) | ((state << 96) & up12)
                    | ((state >> 32) & down4) | ((state >> 64) & down8) | ((state >> 96) & down12)
                )
                raw = state.to_bytes(size, "big")
                sub = from_bytes(raw.translate(sbox), "big")
                if rnd == last:
                    break
                sub2 = from_bytes(raw.translate(sbox2), "big")
                # MixColumns gives row r of column a (rows mod 4)
                #   2a[r] ^ 3a[r+1] ^ a[r+2] ^ a[r+3]
                # and a[r+2] ^ a[r+3] is row r+2 of pair = a ^ (a moved
                # up one row), so three column rotations cover all four
                # terms.
                sub3 = sub2 ^ sub
                pair = sub ^ (((sub << 8) & rot1_up) | ((sub >> 24) & rot1_wrap))
                state = (
                    sub2
                    ^ (((sub3 << 8) & rot1_up) | ((sub3 >> 24) & rot1_wrap))
                    ^ (((pair << 16) & rot2_up) | ((pair >> 16) & rot2_wrap))
                    ^ keys[rnd]
                )
            # Final round: no MixColumns.
            return sub ^ last_key

        return encrypt

    def encrypt_blocks(self, data: bytes) -> bytes:
        """Encrypt block-aligned *data* as independent blocks (ECB).

        One pass of :meth:`kernel` over all the blocks. Output is
        byte-identical to :meth:`encrypt_block` on each 16-byte block in
        turn.
        """
        size = len(data)
        if size % BLOCK_SIZE:
            raise ValueError(f"data must be block aligned, got {size} bytes")
        encrypt = self.kernel(size // BLOCK_SIZE)
        return encrypt(int.from_bytes(data, "big")).to_bytes(size, "big")

    def _inverse_round_keys(self) -> list[bytes]:
        """Round keys of the equivalent inverse cipher, built on first use.

        The middle rounds' keys pass through InvMixColumns once, so that
        the state's InvMixColumns can run before AddRoundKey. Two threads
        that race here build the same list.
        """
        keys = self._inverse_keys
        if keys is None:
            u0, u1, u2, u3 = _U0, _U1, _U2, _U3
            keys = [bytes(self._round_keys[0])]
            for words in self._round_key_words[1 : self._rounds]:
                keys.append(
                    _PACK4.pack(
                        *[
                            u0[w >> 24] ^ u1[(w >> 16) & 0xFF] ^ u2[(w >> 8) & 0xFF] ^ u3[w & 0xFF]
                            for w in words
                        ]
                    )
                )
            keys.append(bytes(self._round_keys[self._rounds]))
            self._inverse_keys = keys
        return keys

    def decrypt_kernel(self, lanes: int) -> Callable[[int], int]:
        """The whole-buffer inverse round function for *lanes* blocks.

        The mirror of :meth:`kernel`, in the equivalent inverse cipher's
        round order (FIPS 197 §5.3.5): each round is InvShiftRows as
        seven masked shifts, InvSubBytes fused with the four
        InvMixColumns multiples as one ``bytes.translate`` each (S, 9S,
        11S, 13S, 14S of the same bytes), InvMixColumns as three column
        rotations, and AddRoundKey with InvMixColumns of the round key.
        Returns ``decrypt(state) -> state`` over the blocks as one
        big-endian integer.
        """
        size = BLOCK_SIZE * lanes
        from_bytes = int.from_bytes
        last = self._rounds
        keys = [from_bytes(rk * lanes, "big") for rk in self._inverse_round_keys()]
        keep, up4, up8, up12, down4, down8, down12 = (
            from_bytes(_INV_SHIFT_ROWS_MASKS[distance] * lanes, "big")
            for distance in (0, 4, 8, 12, -4, -8, -12)
        )
        rot1_up = from_bytes(_ROT1_UP * lanes, "big")
        rot1_wrap = from_bytes(_ROT1_WRAP * lanes, "big")
        rot2_up = from_bytes(_ROT2_UP * lanes, "big")
        rot2_wrap = from_bytes(_ROT2_WRAP * lanes, "big")
        rot3_up = from_bytes(_ROT3_UP * lanes, "big")
        rot3_wrap = from_bytes(_ROT3_WRAP * lanes, "big")
        inv, inv9, inv11, inv13, inv14 = (
            _INV_SBOX, _INV_SBOX9, _INV_SBOX11, _INV_SBOX13, _INV_SBOX14
        )
        first_key, last_key = keys[last], keys[0]

        def decrypt(state: int) -> int:
            state ^= first_key
            for rnd in range(last - 1, -1, -1):
                # InvShiftRows commutes with InvSubBytes, as ShiftRows
                # does with SubBytes in the forward kernel.
                state = (
                    (state & keep)
                    | ((state << 32) & up4) | ((state << 64) & up8) | ((state << 96) & up12)
                    | ((state >> 32) & down4) | ((state >> 64) & down8) | ((state >> 96) & down12)
                )
                raw = state.to_bytes(size, "big")
                if rnd == 0:
                    break
                # InvMixColumns gives row r of column a (rows mod 4)
                #   14a[r] ^ 11a[r+1] ^ 13a[r+2] ^ 9a[r+3]
                # with a the InvSubBytes output.
                m11 = from_bytes(raw.translate(inv11), "big")
                m13 = from_bytes(raw.translate(inv13), "big")
                m9 = from_bytes(raw.translate(inv9), "big")
                state = (
                    from_bytes(raw.translate(inv14), "big")
                    ^ (((m11 << 8) & rot1_up) | ((m11 >> 24) & rot1_wrap))
                    ^ (((m13 << 16) & rot2_up) | ((m13 >> 16) & rot2_wrap))
                    ^ (((m9 << 24) & rot3_up) | ((m9 >> 8) & rot3_wrap))
                    ^ keys[rnd]
                )
            # Final round: no InvMixColumns.
            return from_bytes(raw.translate(inv), "big") ^ last_key

        return decrypt

    def decrypt_blocks(self, data: bytes) -> bytes:
        """Decrypt block-aligned *data* as independent blocks (ECB).

        One pass of :meth:`decrypt_kernel` over all the blocks. Output
        is byte-identical to :meth:`decrypt_block` on each 16-byte block
        in turn.
        """
        size = len(data)
        if size % BLOCK_SIZE:
            raise ValueError(f"data must be block aligned, got {size} bytes")
        decrypt = self.decrypt_kernel(size // BLOCK_SIZE)
        return decrypt(int.from_bytes(data, "big")).to_bytes(size, "big")

    def keystream(self, counters: "list[int]") -> bytes:
        """Encrypt a run of 128-bit counter-block integers.

        The CTR hot path: the whole run goes through
        :meth:`encrypt_blocks` in one call. Counter values must already
        be reduced mod 2^128.
        """
        return self.encrypt_blocks(
            b"".join([counter.to_bytes(BLOCK_SIZE, "big") for counter in counters])
        )


@lru_cache(maxsize=512)
def cipher_for(key: bytes) -> AES:
    """Process-wide LRU cache of expanded ciphers, keyed by key bytes.

    The simulation's working set of AES keys is small (content keys,
    session keys, keybox device keys), while the call sites re-key
    constantly — every CMAC invocation, every CENC sample. Sharing one
    expanded :class:`AES` per key removes the key-schedule cost from
    those paths. ``lru_cache`` serialises cache updates internally, so
    the cache is safe under the parallel study runner; :class:`AES`
    instances themselves are immutable after construction and therefore
    freely shareable across threads.
    """
    return AES(key)

"""AES block cipher (FIPS 197): libcrypto's EVP interface, or pure Python.

Every mode in :mod:`repro.crypto.modes` and :mod:`repro.crypto.cmac`
gets its cipher from :func:`cipher_for`, which returns an object with
three calls (see :class:`Cipher`): ECB encryption
(:meth:`~Cipher.encrypt_blocks`), ECB decryption
(:meth:`~Cipher.decrypt_blocks`) and CBC encryption without padding
(:meth:`~Cipher.cbc_encrypt`). The CTR keystream, CBC decryption and
CMAC are built on those three. Which backend stands behind them is
chosen once per process by :func:`backend`:

* **libcrypto** (the usual case): ``EVP_aes_{128,192,256}_{ecb,cbc}``
  through ``ctypes``, in the library :mod:`repro.crypto.libcrypto`
  loads for the RSA binding too. Each call allocates its own
  ``EVP_CIPHER_CTX``, runs one ``EVP_CipherUpdate`` over the whole
  buffer and frees the context, so no native state is shared between
  threads or outlives a call. A call costs ~4-10 µs from one block to a
  few hundred. The binding is trusted only after it reproduces known
  answers: FIPS 197 C.1-C.3 and SP 800-38A F.1 (ECB, both directions),
  SP 800-38A F.2.1 (CBC) and RFC 4493's subkey block and empty-message
  tag.
* **Python** (:class:`AES`), where no library is found, a symbol is
  absent or a known answer is wrong: the round function operates on
  four 32-bit column words through fused SubBytes/ShiftRows/MixColumns
  lookup tables (the classic "T-table" formulation), one block at a
  time, ~13 µs a block to encrypt and ~25 µs to decrypt. :meth:`AES.encrypt_block` and
  :meth:`AES.decrypt_block` are also the FIPS 197 reference the tests
  compare the native backend with; lint rule ``AES006`` keeps every
  other module off them.

The Widevine key ladder reproduced in :mod:`repro.widevine.keyladder`
needs real AES so that recovered keys actually decrypt real ciphertext;
both backends give byte-identical output.

:func:`cipher_for` keeps a process-wide LRU of ciphers, keyed by key
bytes: it saves the Python key schedule on the fallback, and its
``cache_info()`` is the cipher hit ratio perfbench reports.
"""

from __future__ import annotations

import functools
import struct
from typing import Callable, Protocol

from repro.crypto.libcrypto import libcrypto

__all__ = ["AES", "BLOCK_SIZE", "Cipher", "backend", "cipher_for"]

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

_ROUNDS_BY_KEY_LEN = {16: 10, 24: 12, 32: 14}

_PACK4 = struct.Struct(">4I")


class AES:
    """The pure-Python AES cipher bound to one expanded key: the
    reference, and the fallback backend of :func:`cipher_for`.

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

    def encrypt_blocks(self, data: bytes) -> bytes:
        """ECB encryption of block-aligned *data*, one block at a time."""
        encrypt = self.encrypt_block
        blocks = range(0, _aligned(data), BLOCK_SIZE)
        return b"".join([encrypt(data[at : at + BLOCK_SIZE]) for at in blocks])

    def decrypt_blocks(self, data: bytes) -> bytes:
        """ECB decryption of block-aligned *data*, one block at a time."""
        decrypt = self.decrypt_block
        blocks = range(0, _aligned(data), BLOCK_SIZE)
        return b"".join([decrypt(data[at : at + BLOCK_SIZE]) for at in blocks])

    def cbc_encrypt(self, iv: bytes, data: bytes) -> bytes:
        """CBC encryption of block-aligned *data* under *iv*, no padding."""
        size = _aligned(data)
        previous = int.from_bytes(_checked_iv(iv), "big")
        encrypt = self.encrypt_block
        out = []
        for at in range(0, size, BLOCK_SIZE):
            block = encrypt(
                (int.from_bytes(data[at : at + BLOCK_SIZE], "big") ^ previous).to_bytes(
                    BLOCK_SIZE, "big"
                )
            )
            previous = int.from_bytes(block, "big")
            out.append(block)
        return b"".join(out)


def _aligned(data: bytes) -> int:
    """The length of *data*, which must be a whole number of blocks."""
    size = len(data)
    if size % BLOCK_SIZE:
        raise ValueError(f"data must be block aligned, got {size} bytes")
    return size


def _checked_iv(iv: bytes) -> bytes:
    if len(iv) != BLOCK_SIZE:
        raise ValueError("CBC IV must be 16 bytes")
    return iv


class Cipher(Protocol):
    """What :func:`cipher_for` returns, on either backend."""

    key: bytes

    def encrypt_blocks(self, data: bytes) -> bytes: ...

    def decrypt_blocks(self, data: bytes) -> bytes: ...

    def cbc_encrypt(self, iv: bytes, data: bytes) -> bytes: ...


_MODES = ("ecb", "cbc")


def _load_native() -> Callable[[bytes], Cipher] | None:
    """Bind AES-ECB/CBC from libcrypto's EVP interface, or None.

    Returns the class of native ciphers, built per key like :class:`AES`.
    """
    lib = libcrypto()
    if lib is None:
        return None
    import ctypes

    try:
        ctx_new = lib.EVP_CIPHER_CTX_new
        ctx_free = lib.EVP_CIPHER_CTX_free
        init = lib.EVP_CipherInit_ex
        set_padding = lib.EVP_CIPHER_CTX_set_padding
        update = lib.EVP_CipherUpdate
        getters = {
            key_len: [getattr(lib, f"EVP_aes_{8 * key_len}_{mode}") for mode in _MODES]
            for key_len in _ROUNDS_BY_KEY_LEN
        }
    except AttributeError:
        return None
    ptr, c_int, c_char_p = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
    ctx_new.argtypes, ctx_new.restype = [], ptr
    ctx_free.argtypes, ctx_free.restype = [ptr], None
    init.argtypes = [ptr, ptr, ptr, c_char_p, c_char_p, c_int]
    init.restype = c_int
    set_padding.argtypes, set_padding.restype = [ptr, c_int], c_int
    update.argtypes = [ptr, c_char_p, ctypes.POINTER(c_int), c_char_p, c_int]
    update.restype = c_int
    modes: dict[int, tuple[int, int]] = {}
    for key_len, pair in getters.items():
        for getter in pair:
            getter.argtypes, getter.restype = [], ptr
        ecb, cbc = (getter() for getter in pair)
        if not (ecb and cbc):
            return None
        modes[key_len] = (ecb, cbc)
    buffer, byref = ctypes.create_string_buffer, ctypes.byref

    def run(cipher: int, key: bytes, iv: bytes | None, data: bytes, enc: int) -> bytes:
        size = _aligned(data)
        if not size:
            return b""
        out = buffer(size + BLOCK_SIZE)
        written = c_int()
        ctx = ctx_new()
        if not ctx:
            raise MemoryError("libcrypto could not allocate a cipher context")
        try:
            if not (
                init(ctx, cipher, None, key, iv, enc)
                and set_padding(ctx, 0)
                and update(ctx, out, byref(written), data, size)
            ):
                raise ValueError("EVP_CipherUpdate failed")
        finally:
            ctx_free(ctx)
        if written.value != size:
            raise ValueError(f"EVP_CipherUpdate wrote {written.value} of {size} bytes")
        return out.raw[:size]

    class EvpAES:
        """AES-ECB/CBC through libcrypto, bound to one key."""

        __slots__ = ("key", "_ecb", "_cbc")

        def __init__(self, key: bytes):
            if len(key) not in modes:
                raise ValueError(f"AES key must be 16, 24 or 32 bytes, got {len(key)}")
            self.key = bytes(key)
            self._ecb, self._cbc = modes[len(key)]

        def encrypt_blocks(self, data: bytes) -> bytes:
            return run(self._ecb, self.key, None, data, 1)

        def decrypt_blocks(self, data: bytes) -> bytes:
            return run(self._ecb, self.key, None, data, 0)

        def cbc_encrypt(self, iv: bytes, data: bytes) -> bytes:
            return run(self._cbc, self.key, _checked_iv(iv), data, 1)

    return EvpAES


# Known answers a binding must reproduce before it is trusted, as
# (key, plaintext, ciphertext) hex: FIPS 197 C.1-C.3 and SP 800-38A
# F.1.1 ECB-AES128 (checked both ways), then SP 800-38A F.2.1
# CBC-AES128, and RFC 4493's AES-128(K, 0) and the tag of the empty
# message (one zero-IV CBC block: 0x80 0x00... XOR K2).
_FIPS197_PLAINTEXT = "00112233445566778899aabbccddeeff"
_SP800_38A_KEY = "2b7e151628aed2a6abf7158809cf4f3c"  # also RFC 4493's
_SP800_38A_PLAINTEXT = (
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
)
_ECB_ANSWERS = (
    (
        "000102030405060708090a0b0c0d0e0f",
        _FIPS197_PLAINTEXT,
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
    (
        "000102030405060708090a0b0c0d0e0f1011121314151617",
        _FIPS197_PLAINTEXT,
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        _FIPS197_PLAINTEXT,
        "8ea2b7ca516745bfeafc49904b496089",
    ),
    (
        _SP800_38A_KEY,
        _SP800_38A_PLAINTEXT,
        "3ad77bb40d7a3660a89ecaf32466ef97f5d3d58503b9699de785895a96fdbaaf"
        "43b1cd7f598ece23881b00e3ed0306887b0c785e27e8ad3f8223207104725dd4",
    ),
)
_CBC_ANSWER = (
    "000102030405060708090a0b0c0d0e0f",
    "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2"
    "73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7",
)
_RFC4493_L = "7df76b0c1ab899b33e42f047b91b546f"
_RFC4493_K2 = "f7ddac306ae266ccf90bc11ee46d513b"
_RFC4493_EMPTY_TAG = "bb1d6929e95937287fa37d129b756746"


def _known_answers_hold(make: Callable[[bytes], Cipher]) -> bool:
    """Whether ciphers built by *make* reproduce every known answer."""
    h = bytes.fromhex
    for key, plaintext, ciphertext in _ECB_ANSWERS:
        cipher = make(h(key))
        if cipher.encrypt_blocks(h(plaintext)) != h(ciphertext):
            return False
        if cipher.decrypt_blocks(h(ciphertext)) != h(plaintext):
            return False
    cipher = make(h(_SP800_38A_KEY))
    iv, ciphertext = _CBC_ANSWER
    k2 = int.from_bytes(h(_RFC4493_K2), "big")
    last = (k2 ^ (0x80 << 120)).to_bytes(BLOCK_SIZE, "big")
    return (
        cipher.cbc_encrypt(h(iv), h(_SP800_38A_PLAINTEXT)) == h(ciphertext)
        and cipher.encrypt_blocks(bytes(BLOCK_SIZE)) == h(_RFC4493_L)
        and cipher.cbc_encrypt(bytes(BLOCK_SIZE), last) == h(_RFC4493_EMPTY_TAG)
    )


@functools.cache
def backend() -> Callable[[bytes], Cipher]:
    """What :func:`cipher_for` builds its ciphers with: the libcrypto
    binding, or :class:`AES` where it cannot be loaded or fails its
    known answers. Chosen on first use, once per process."""
    native = _load_native()
    if native is None:
        return AES
    import ctypes

    try:
        if _known_answers_hold(native):
            return native
    except (ctypes.ArgumentError, MemoryError, OSError, ValueError):
        pass  # a binding that raises has failed its check too
    return AES


@functools.lru_cache(maxsize=512)
def cipher_for(key: bytes) -> Cipher:
    """The process-wide cipher for *key*, from :func:`backend`.

    The simulation's working set of AES keys is small (content keys,
    session keys, keybox device keys), while the call sites re-key
    constantly. ``lru_cache`` serialises its updates, so the cache is
    safe across threads, and the ciphers of both backends are immutable
    after construction and therefore freely shareable.
    """
    return backend()(key)

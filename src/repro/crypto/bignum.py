"""Modular exponentiation through OpenSSL's libcrypto, checked against ``pow``.

Three calls, each bound through ``ctypes`` to the libcrypto function
OpenSSL's own RSA (``rsa_ossl_mod_exp``, ``rsa_ossl_public_encrypt``)
uses for the same job. This module's one job is wrapping that foreign
code.

- :func:`modexp`: ``BN_mod_exp_mont_consttime``, constant time. For a
  secret exponent on its own: Miller-Rabin round 1 of a prime candidate.
- :func:`modexp_pair`: ``BN_mod_exp_mont_consttime_x2`` (OpenSSL 3.0 and
  later), constant time. Two exponentiations in one call: the two CRT
  halves of a private operation, or one Miller-Rabin round of both
  primes of a key. Where the CPU has AVX512-IFMA and both moduli have
  1024 bits (and bases and exponents sixteen 64-bit limbs), OpenSSL
  computes both halves in one RSAZ pass; otherwise it makes the two
  constant-time calls :func:`modexp` would.
- :func:`modexp_public`: ``BN_mod_exp_mont``, whose running time
  depends on the exponent's bits. It is for public exponents only: RSA
  encryption and signature verification with ``e = 65537``. Lint rule
  ``RSA005`` flags a private exponent (``.d``, ``.dp``, ``.dq``) passed
  to it.

On a 2-vCPU AVX512-IFMA host with libcrypto 3.0.19, the two CRT halves
of a 2048-bit private operation take about 0.42 ms through
:func:`modexp_pair`, against 0.87 ms as two :func:`modexp` calls and
9.7 ms through ``pow``; an ``e = 65537`` public operation takes about
41 us through :func:`modexp_public`, against 144 us through
:func:`modexp` and 223 us through ``pow`` (medians per call, EXPERIMENTS.md).

- The library is the one :func:`repro.crypto.libcrypto.libcrypto`
  loads, shared with the AES binding of :mod:`repro.crypto.aes`.
- Each function is bound on its first call, not at import, so a
  process that never exponentiates never imports ``ctypes`` for it.
  The binding then checks a known answer of ``pow``'s; if no library
  is found, a symbol is absent or the answer is wrong, the call falls
  back for the rest of the process: :func:`modexp` and
  :func:`modexp_public` to ``pow``, :func:`modexp_pair` to two
  :func:`modexp` calls. So a secret exponent reaches ``pow`` only where
  the constant-time binding itself failed.
- Inputs that Montgomery arithmetic cannot take also go to ``pow``: an
  even modulus, a modulus ``<= 1`` or a negative exponent.
- Every call allocates its own ``BN_CTX`` and ``BIGNUM``\\ s and frees them
  (``BN_clear_free``, which zeroes the limbs first) before it returns,
  so no native state outlives a call: threads and forked worker
  processes need no locking, and nothing leaks. ``ctypes`` releases the
  GIL for the duration of each foreign call.

Every result equals ``pow``'s; ``pow`` stays the fallback and the
tests' reference.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Callable

from repro.crypto.libcrypto import libcrypto

__all__ = [
    "backend",
    "modexp",
    "modexp_pair",
    "modexp_public",
    "pair_backend",
    "public_backend",
]

ModExp = Callable[[int, int, int], int]
ModExpPair = Callable[[int, int, int, int, int, int], tuple[int, int]]

# Known answers checked once before a native path is trusted, each as
# (arguments, sha256 of the repr of pow's answer). The digests stand in
# for the answers so that no process pays the ~35 ms of pow they take
# (tests/test_crypto_bignum.py recomputes them). The single check is a
# 2048-bit exponentiation, so a broken binding cannot pass by luck.
_CHECK_MOD = (1 << 2048) - 159  # odd
_CHECK_BASE = 0x0123456789ABCDEF << 1000
_CHECK_EXP = (1 << 2047) + 12345
_CHECK = (
    (_CHECK_BASE, _CHECK_EXP, _CHECK_MOD),
    "0b62ed9f7f5b5326a1ddd8da7e705a2306bd2dfdb791dba05bfe79e0ea5ab557",
)
# The pair's: two odd 1024-bit moduli, with bases and exponents of
# sixteen full 64-bit limbs (more than 960 bits), the operands that take
# OpenSSL's AVX512-IFMA branch where the CPU has one.
_PAIR_CHECK = (
    (0x0123456789ABCDEF << 960, (1 << 1023) + 12345, (1 << 1024) - 105)
    + ((1 << 1023) - 3, (3 << 1022) + 777, (1 << 1023) + 1155),
    "869fe13bceb0802b246dea257dbaaa0c719633cb4b8c1bf81d5f5a6868a28714",
)
# The public one: e = 65537 over the single check's modulus.
_PUBLIC_CHECK = (
    (_CHECK_BASE, 65537, _CHECK_MOD),
    "9566381f68c5993a5ebc75028fc70194277be90af81a2adc338f16dfeba5e053",
)
# OpenSSL 3.0.4's AVX512-IFMA RSAZ code computes wrong results and
# corrupts memory (CVE-2022-2274); its _x2 call is never bound.
_BROKEN_X2_VERSIONS = frozenset({0x30000040})


def _montgomery(exp: int, mod: int) -> bool:
    """Whether libcrypto's Montgomery exponentiation takes (exp, mod)."""
    return mod > 1 and mod & 1 == 1 and exp >= 0


def modexp(base: int, exp: int, mod: int) -> int:
    """``pow(base, exp, mod)``, in constant time through libcrypto when
    it can take it."""
    if not _montgomery(exp, mod):
        return pow(base, exp, mod)
    return backend()(base, exp, mod)


def modexp_pair(
    base1: int, exp1: int, mod1: int, base2: int, exp2: int, mod2: int
) -> tuple[int, int]:
    """``(modexp(base1, exp1, mod1), modexp(base2, exp2, mod2))`` in one
    constant-time libcrypto call."""
    if not (_montgomery(exp1, mod1) and _montgomery(exp2, mod2)):
        return modexp(base1, exp1, mod1), modexp(base2, exp2, mod2)
    return pair_backend()(base1, exp1, mod1, base2, exp2, mod2)


def modexp_public(base: int, exp: int, mod: int) -> int:
    """``pow(base, exp, mod)`` in variable time: for a public exponent
    only, never for a private one."""
    if not _montgomery(exp, mod):
        return pow(base, exp, mod)
    return public_backend()(base, exp, mod)


def _answer_digest(answer: int | tuple[int, int]) -> str:
    return hashlib.sha256(repr(answer).encode()).hexdigest()


def _checked(native, check):
    """*native* if it reproduces the known answer *check*, else None."""
    if native is None:
        return None
    import ctypes

    arguments, digest = check
    try:
        if _answer_digest(native(*arguments)) == digest:
            return native
    except (ctypes.ArgumentError, MemoryError, OSError, ValueError):
        pass  # a binding that raises has failed its check too
    return None


def _two_modexps(
    base1: int, exp1: int, mod1: int, base2: int, exp2: int, mod2: int
) -> tuple[int, int]:
    return modexp(base1, exp1, mod1), modexp(base2, exp2, mod2)


@functools.cache
def backend() -> ModExp:
    """The exponentiation :func:`modexp` uses for odd moduli above 1:
    the constant-time libcrypto binding, or ``pow`` when it cannot be
    loaded or fails its known-answer check."""
    return _checked(_load_native(), _CHECK) or pow


@functools.cache
def pair_backend() -> ModExpPair:
    """The call :func:`modexp_pair` uses: the ``_x2`` binding, or two
    :func:`modexp` calls when it cannot be loaded or fails its check."""
    return _checked(_load_native_pair(), _PAIR_CHECK) or _two_modexps


@functools.cache
def public_backend() -> ModExp:
    """The exponentiation :func:`modexp_public` uses: the variable-time
    libcrypto binding, or ``pow``."""
    return _checked(_load_native_public(), _PUBLIC_CHECK) or pow


class _Bn:
    """The ``BN_*`` calls every binding here shares, on one library.
    Raises AttributeError where one of them is absent."""

    def __init__(self, lib) -> None:
        import ctypes

        ptr = ctypes.c_void_p
        self.ctx_new = lib.BN_CTX_new
        self.ctx_new.argtypes, self.ctx_new.restype = [], ptr
        self.ctx_free = lib.BN_CTX_free
        self.ctx_free.argtypes, self.ctx_free.restype = [ptr], None
        self.bn_new = lib.BN_new
        self.bn_new.argtypes, self.bn_new.restype = [], ptr
        self.bin2bn = lib.BN_bin2bn
        self.bin2bn.argtypes = [ctypes.c_char_p, ctypes.c_int, ptr]
        self.bin2bn.restype = ptr
        self.bn2binpad = lib.BN_bn2binpad
        self.bn2binpad.argtypes = [ptr, ctypes.c_char_p, ctypes.c_int]
        self.bn2binpad.restype = ctypes.c_int
        self.clear_free = lib.BN_clear_free
        self.clear_free.argtypes, self.clear_free.restype = [ptr], None
        self.buffer = ctypes.create_string_buffer

    def operands(self, held: list, base: int, exp: int, mod: int):
        """``(r, a, p, m, width)`` for ``r = a^p mod m``; every BIGNUM
        goes into *held* for :meth:`free`."""
        if not 0 <= base < mod:
            base %= mod
        width = (mod.bit_length() + 7) // 8
        exp_bytes = exp.to_bytes((exp.bit_length() + 7) // 8, "big")
        held += (
            self.bn_new(),
            self.bin2bn(base.to_bytes(width, "big"), width, None),
            self.bin2bn(exp_bytes, len(exp_bytes), None),
            self.bin2bn(mod.to_bytes(width, "big"), width, None),
        )
        if not all(held[-4:]):
            raise MemoryError("libcrypto could not allocate a bignum")
        return (*held[-4:], width)

    def read(self, r, width: int) -> int:
        out = self.buffer(width)
        if self.bn2binpad(r, out, width) != width:
            raise ValueError("BN_bn2binpad: result wider than the modulus")
        return int.from_bytes(out.raw, "big")

    def free(self, held: list, ctx) -> None:
        # Both free functions accept NULL.
        for bn in held:
            self.clear_free(bn)
        self.ctx_free(ctx)


def _bind(symbol: str, argcount: int):
    """(shared calls, *symbol* returning ``int``), or None."""
    lib = libcrypto()
    if lib is None:
        return None
    import ctypes

    try:
        bn = _Bn(lib)
        function = getattr(lib, symbol)
    except AttributeError:
        return None
    function.argtypes = [ctypes.c_void_p] * argcount
    function.restype = ctypes.c_int
    return bn, function


def _load_exp(symbol: str) -> ModExp | None:
    """``r = a^p mod m`` through *symbol*, which takes
    ``(r, a, p, m, ctx, mont)``, or None."""
    bound = _bind(symbol, 6)
    if bound is None:
        return None
    bn, mod_exp = bound

    def native(base: int, exp: int, mod: int) -> int:
        held: list = []
        ctx = None
        try:
            ctx = bn.ctx_new()
            r, a, p, m, width = bn.operands(held, base, exp, mod)
            if not ctx:
                raise MemoryError("libcrypto could not allocate a BN_CTX")
            if not mod_exp(r, a, p, m, ctx, None):
                raise MemoryError(f"{symbol} failed")
            return bn.read(r, width)
        finally:
            bn.free(held, ctx)

    return native


def _load_native() -> ModExp | None:
    """Bind the constant-time ``BN_mod_exp_mont_consttime``, or None."""
    return _load_exp("BN_mod_exp_mont_consttime")


def _load_native_public() -> ModExp | None:
    """Bind the variable-time ``BN_mod_exp_mont``, or None."""
    return _load_exp("BN_mod_exp_mont")


def _load_native_pair() -> ModExpPair | None:
    """Bind ``BN_mod_exp_mont_consttime_x2``, or None: absent before
    OpenSSL 3.0, refused on a release known to compute it wrong."""
    lib = libcrypto()
    if lib is None:
        return None
    import ctypes

    try:
        version = lib.OpenSSL_version_num
    except AttributeError:
        return None
    version.argtypes, version.restype = [], ctypes.c_ulong
    if version() in _BROKEN_X2_VERSIONS:
        return None
    bound = _bind("BN_mod_exp_mont_consttime_x2", 11)
    if bound is None:
        return None
    bn, mod_exp_x2 = bound

    def native_pair(
        base1: int, exp1: int, mod1: int, base2: int, exp2: int, mod2: int
    ) -> tuple[int, int]:
        held: list = []
        ctx = None
        try:
            ctx = bn.ctx_new()
            r1, a1, p1, m1, width1 = bn.operands(held, base1, exp1, mod1)
            r2, a2, p2, m2, width2 = bn.operands(held, base2, exp2, mod2)
            if not ctx:
                raise MemoryError("libcrypto could not allocate a BN_CTX")
            if not mod_exp_x2(r1, a1, p1, m1, None, r2, a2, p2, m2, None, ctx):
                raise MemoryError("BN_mod_exp_mont_consttime_x2 failed")
            return bn.read(r1, width1), bn.read(r2, width2)
        finally:
            bn.free(held, ctx)

    return native_pair

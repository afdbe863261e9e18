"""Modular exponentiation through OpenSSL's libcrypto, checked against ``pow``.

OpenSSL's ``BN_mod_exp_mont_consttime`` computes a 2048-bit CRT private
operation about eleven times faster than the interpreter's generic
three-argument ``pow``. :func:`modexp` reaches it through ``ctypes``;
this module's one job is wrapping that foreign code.

- The library is the one :func:`repro.crypto.libcrypto.libcrypto`
  loads, shared with the AES binding of :mod:`repro.crypto.aes`.
- The functions are bound on the first call, not at import, so a
  process that never exponentiates never imports ``ctypes`` for it. The
  binding then checks one known answer against ``pow``; if no library
  is found, a symbol is absent or the answer is wrong, :func:`backend`
  is ``pow`` itself for the rest of the process.
- Inputs that Montgomery arithmetic cannot take also go to ``pow``: an
  even modulus, a modulus ``<= 1`` or a negative exponent.
- Every call allocates its own ``BN_CTX`` and ``BIGNUM``\\ s and frees them
  (``BN_clear_free``, which zeroes the limbs first) before it returns,
  so no native state outlives a call: threads and forked worker
  processes need no locking, and nothing leaks. ``ctypes`` releases the
  GIL for the duration of each foreign call.

The result equals ``pow(base, exp, mod)`` for every input; ``pow`` stays
the fallback and the tests' reference.
"""

from __future__ import annotations

import functools
from typing import Callable

from repro.crypto.libcrypto import libcrypto

__all__ = ["backend", "modexp"]

ModExp = Callable[[int, int, int], int]

# Known answer checked once before the native path is trusted: a
# 2048-bit exponentiation, so a broken binding cannot pass by luck.
_CHECK_MOD = (1 << 2048) - 159  # odd
_CHECK_BASE = 0x0123456789ABCDEF << 1000
_CHECK_EXP = (1 << 2047) + 12345


def modexp(base: int, exp: int, mod: int) -> int:
    """``pow(base, exp, mod)``, through libcrypto when it can take it."""
    if mod <= 1 or not mod & 1 or exp < 0:
        return pow(base, exp, mod)
    return backend()(base, exp, mod)


@functools.cache
def backend() -> ModExp:
    """The exponentiation :func:`modexp` uses for odd moduli above 1:
    the libcrypto binding, or ``pow`` when it cannot be loaded or fails
    its known-answer check."""
    native = _load_native()
    if native is None:
        return pow
    import ctypes

    expected = pow(_CHECK_BASE, _CHECK_EXP, _CHECK_MOD)
    try:
        if native(_CHECK_BASE, _CHECK_EXP, _CHECK_MOD) == expected:
            return native
    except (ctypes.ArgumentError, MemoryError, OSError, ValueError):
        pass  # a binding that raises has failed its check too
    return pow


def _load_native() -> ModExp | None:
    """Bind the seven ``BN_*`` functions :func:`modexp` needs, or None."""
    lib = libcrypto()
    if lib is None:
        return None
    import ctypes

    try:
        ctx_new = lib.BN_CTX_new
        bn_new = lib.BN_new
        bin2bn = lib.BN_bin2bn
        mod_exp = lib.BN_mod_exp_mont_consttime
        bn2binpad = lib.BN_bn2binpad
        clear_free = lib.BN_clear_free
        ctx_free = lib.BN_CTX_free
    except AttributeError:
        return None
    ptr = ctypes.c_void_p
    ctx_new.argtypes, ctx_new.restype = [], ptr
    bn_new.argtypes, bn_new.restype = [], ptr
    bin2bn.argtypes, bin2bn.restype = [ctypes.c_char_p, ctypes.c_int, ptr], ptr
    mod_exp.argtypes = [ptr, ptr, ptr, ptr, ptr, ptr]
    mod_exp.restype = ctypes.c_int
    bn2binpad.argtypes = [ptr, ctypes.c_char_p, ctypes.c_int]
    bn2binpad.restype = ctypes.c_int
    clear_free.argtypes, clear_free.restype = [ptr], None
    ctx_free.argtypes, ctx_free.restype = [ptr], None
    buffer = ctypes.create_string_buffer

    def native(base: int, exp: int, mod: int) -> int:
        if not 0 <= base < mod:
            base %= mod
        width = (mod.bit_length() + 7) // 8
        exp_bytes = exp.to_bytes((exp.bit_length() + 7) // 8, "big")
        ctx = a = p = m = r = None
        try:
            ctx = ctx_new()
            a = bin2bn(base.to_bytes(width, "big"), width, None)
            p = bin2bn(exp_bytes, len(exp_bytes), None)
            m = bin2bn(mod.to_bytes(width, "big"), width, None)
            r = bn_new()
            if not (ctx and a and p and m and r):
                raise MemoryError("libcrypto could not allocate a bignum")
            if not mod_exp(r, a, p, m, ctx, None):
                raise MemoryError("BN_mod_exp_mont_consttime failed")
            out = buffer(width)
            if bn2binpad(r, out, width) != width:
                raise ValueError("BN_bn2binpad: result wider than the modulus")
            return int.from_bytes(out.raw, "big")
        finally:
            # Both free functions accept NULL.
            for bn in (a, p, m, r):
                clear_free(bn)
            ctx_free(ctx)

    return native

"""The process's one handle on OpenSSL's libcrypto, for ``ctypes`` bindings.

:mod:`repro.crypto.bignum` (RSA exponentiation) and
:mod:`repro.crypto.aes` (the AES block cipher) both call into the
library this module loads. Each checks known answers before it trusts
its own binding and falls back to Python on its own; this module only
finds and opens the library.

- The library is first the one the interpreter already maps: opening
  the loaded ``_hashlib`` extension resolves libcrypto's symbols
  through its dependencies, with no search (~0.1 ms).
- Where ``_hashlib`` is not loaded, has no file or lacks those symbols, it
  is the one ``ctypes.util.find_library("crypto")`` names: on Linux an
  ``ldconfig`` subprocess, ~10 ms and the ``subprocess`` import.
- It is found once per process, whichever binding asks first; nothing
  is imported or searched at ``import repro.crypto``.
"""

from __future__ import annotations

import functools
import sys

__all__ = ["libcrypto"]

# One symbol of each binding's, which the mapped library must resolve.
_SYMBOLS = ("BN_mod_exp_mont_consttime", "EVP_CipherInit_ex")


@functools.cache
def libcrypto():
    """libcrypto as a ``ctypes.CDLL``, or None where none is found or it
    cannot be opened. Found once per process."""
    lib = _open(getattr(sys.modules.get("_hashlib"), "__file__", None))
    if lib is None or not all(hasattr(lib, symbol) for symbol in _SYMBOLS):
        import ctypes.util

        lib = _open(ctypes.util.find_library("crypto"))
    return lib


def _open(name: str | None):
    import ctypes

    try:
        return None if name is None else ctypes.CDLL(name)
    except OSError:
        return None

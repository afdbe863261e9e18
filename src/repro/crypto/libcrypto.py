"""The process's one handle on OpenSSL's libcrypto, for ``ctypes`` bindings.

:mod:`repro.crypto.bignum` (RSA exponentiation) and
:mod:`repro.crypto.aes` (the AES block cipher) both call into the
library this module loads. Each checks known answers before it trusts
its own binding and falls back to Python on its own; this module only
finds and opens the library.

- The library is the one ``ctypes.util.find_library("crypto")`` names.
  That need not be the copy ``hashlib`` has mapped: it can be another
  soname, or none where the platform has no ldconfig cache or compiler
  to search with. On Linux the search runs ``ldconfig`` in a subprocess
  (a few milliseconds, and the ``subprocess`` import), once per process
  whichever binding asks first.
- Nothing is imported or searched at ``import repro.crypto``: ``ctypes``
  is imported by the first call of :func:`libcrypto`.
"""

from __future__ import annotations

import functools

__all__ = ["libcrypto"]


@functools.cache
def libcrypto():
    """libcrypto as a ``ctypes.CDLL``, or None where none is found or it
    cannot be opened. Found once per process."""
    import ctypes
    import ctypes.util

    name = ctypes.util.find_library("crypto")
    if name is None:
        return None
    try:
        return ctypes.CDLL(name)
    except OSError:
        return None

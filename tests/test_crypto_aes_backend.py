"""repro.crypto.aes backend choice: libcrypto's EVP interface, or Python."""

from __future__ import annotations

import ctypes.util
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crypto import aes, bignum
from repro.crypto.aes import AES, cipher_for
from repro.crypto.libcrypto import libcrypto

_SRC = Path(__file__).resolve().parent.parent / "src"
_KEY = bytes(range(16))
_DATA = bytes(range(256)) * 2


@pytest.fixture
def fresh_backend():
    """Let a test re-run the library search, the binding and its check;
    restore afterwards."""
    caches = (libcrypto, aes.backend, aes.cipher_for)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _wrong(method: str) -> type[AES]:
    """The reference cipher with *method*'s output one bit off."""

    def flipped(self, *args):
        out = getattr(AES, method)(self, *args)
        return bytes([out[0] ^ 1]) + out[1:]

    return type(f"Wrong_{method}", (AES,), {method: flipped})


class TestBackendSelection:
    def test_library_found_means_native_backend(self):
        """CI must not silently run the slow path: where the loader can
        find libcrypto, the EVP binding must have loaded and passed its
        known answers."""
        if ctypes.util.find_library("crypto") is None:
            pytest.skip("no libcrypto on this platform; Python is the backend")
        assert aes.backend() is not AES
        assert type(cipher_for(_KEY)) is not AES

    def test_reference_reproduces_every_known_answer(self):
        assert aes._known_answers_hold(AES)

    @pytest.mark.parametrize("method", ["encrypt_blocks", "decrypt_blocks", "cbc_encrypt"])
    def test_wrong_known_answer_falls_back_to_python(
        self, monkeypatch, fresh_backend, method
    ):
        monkeypatch.setattr(aes, "_load_native", lambda: _wrong(method))
        assert aes.backend() is AES
        assert type(cipher_for(_KEY)) is AES

    def test_raising_binding_falls_back_to_python(self, monkeypatch, fresh_backend):
        def broken(key):
            raise MemoryError("no cipher context")

        monkeypatch.setattr(aes, "_load_native", lambda: broken)
        assert aes.backend() is AES

    def test_missing_library_falls_back_to_python(self, monkeypatch, fresh_backend):
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
        assert aes.backend() is AES
        assert cipher_for(_KEY).cbc_encrypt(_KEY, _DATA) == AES(_KEY).cbc_encrypt(
            _KEY, _DATA
        )

    def test_missing_symbol_falls_back_to_python(self, monkeypatch, fresh_backend):
        # A library that loads but lacks the EVP functions (libc).
        libc = ctypes.util.find_library("c")
        if libc is None:
            pytest.skip("no libc name to load")
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: libc)
        assert aes.backend() is AES

    def test_one_library_search_serves_both_bindings(self, monkeypatch, fresh_backend):
        searches = []
        real = ctypes.util.find_library

        def counting(name):
            searches.append(name)
            return real(name)

        monkeypatch.setattr(ctypes.util, "find_library", counting)
        bignum.backend.cache_clear()
        try:
            aes.backend()
            bignum.backend()
        finally:
            bignum.backend.cache_clear()
        assert searches == ["crypto"]

    def test_ctypes_is_imported_on_first_use_not_at_import(self):
        script = (
            "import sys\n"
            "import repro.crypto\n"
            "from repro.crypto.aes import AES\n"
            "from repro.crypto.modes import cbc_encrypt, pkcs7_pad\n"
            "assert 'ctypes' not in sys.modules\n"
            "key, iv = bytes(range(16)), bytes(16)\n"
            "assert cbc_encrypt(key, iv, b'x') == AES(key).cbc_encrypt(iv, pkcs7_pad(b'x'))\n"
            "assert 'ctypes' in sys.modules\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(_SRC)},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

"""repro.crypto.libcrypto: the mapped library first, the loader search
only where that one is missing or lacks the bindings' symbols."""

from __future__ import annotations

import ctypes.util
import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.crypto import aes, bignum
from repro.crypto.libcrypto import libcrypto

libcrypto_module = importlib.import_module("repro.crypto.libcrypto")

_SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fresh_library():
    """Let a test re-run the library lookup and every binding on it;
    restore afterwards."""
    caches = (
        libcrypto,
        aes.backend,
        aes.cipher_for,
        bignum.backend,
        bignum.pair_backend,
        bignum.public_backend,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def searches(monkeypatch):
    """Record every ``find_library`` call, answering as the real one."""
    seen: list[str] = []
    real = ctypes.util.find_library

    def counting(name):
        seen.append(name)
        return real(name)

    monkeypatch.setattr(ctypes.util, "find_library", counting)
    return seen


def _mapped_or_skip() -> str:
    path = getattr(sys.modules.get("_hashlib"), "__file__", None)
    lib = libcrypto_module._open(path)
    if lib is None or not all(hasattr(lib, s) for s in libcrypto_module._SYMBOLS):
        pytest.skip("_hashlib does not map a usable libcrypto here")
    return path


def _searched_or_skip() -> str:
    name = ctypes.util.find_library("crypto")
    if name is None:
        pytest.skip("the loader finds no libcrypto here")
    return name


class TestMappedLibrary:
    def test_mapped_library_needs_no_search(self, fresh_library, searches):
        path = _mapped_or_skip()
        lib = libcrypto()
        assert lib is not None and lib._name == path
        assert searches == []

    def test_bindings_pass_their_known_answers_on_it(self, fresh_library, searches):
        _mapped_or_skip()
        assert bignum.backend() is not pow
        assert bignum.public_backend() is not pow
        assert aes.backend() is not aes.AES
        assert searches == []

    def test_first_crypto_call_runs_no_loader_search(self):
        """No ``ctypes.util`` (and so no ``ldconfig`` subprocess) in a
        process whose ``_hashlib`` maps a usable libcrypto."""
        _mapped_or_skip()
        script = (
            "import sys\n"
            "from repro.crypto.aes import cipher_for\n"
            "from repro.crypto.bignum import modexp\n"
            "assert modexp(4, 13, 497) == 445\n"
            "cipher_for(bytes(16))\n"
            "assert 'ctypes' in sys.modules\n"
            "assert 'ctypes.util' not in sys.modules\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(_SRC)},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr


class TestSearchFallback:
    def test_absent_hashlib(self, monkeypatch, fresh_library, searches):
        name = _searched_or_skip()
        searches.clear()
        monkeypatch.setitem(sys.modules, "_hashlib", None)
        lib = libcrypto()
        assert lib is not None and lib._name == name
        assert searches == ["crypto"]
        assert bignum.backend() is not pow
        assert aes.backend() is not aes.AES

    def test_hashlib_without_a_file(self, monkeypatch, fresh_library, searches):
        name = _searched_or_skip()
        searches.clear()
        monkeypatch.setitem(sys.modules, "_hashlib", types.ModuleType("_hashlib"))
        assert libcrypto()._name == name
        assert searches == ["crypto"]

    def test_hashlib_lacking_the_symbols(self, monkeypatch, fresh_library, searches):
        # A mapped library that opens but resolves none of them (libc).
        name = _searched_or_skip()
        libc = ctypes.util.find_library("c")
        if libc is None:
            pytest.skip("no libc name to load")
        searches.clear()
        stand_in = types.ModuleType("_hashlib")
        stand_in.__file__ = libc
        monkeypatch.setitem(sys.modules, "_hashlib", stand_in)
        assert libcrypto()._name == name
        assert searches == ["crypto"]

"""repro.crypto.bignum: libcrypto modular exponentiation against pow."""

from __future__ import annotations

import ctypes.util
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import bignum
from repro.crypto.bignum import modexp

_SRC = Path(__file__).resolve().parent.parent / "src"


@st.composite
def _odd_modulus_cases(draw):
    bits = draw(st.integers(min_value=3, max_value=4096))
    mod = draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)) | 1
    width = max(1, mod.bit_length())
    exp = draw(
        st.one_of(
            st.sampled_from([0, 1]),
            st.integers(min_value=1 << (width - 1), max_value=(1 << width) - 1),
            st.integers(min_value=0, max_value=(1 << (2 * width)) - 1),
        )
    )
    base = draw(
        st.one_of(
            st.sampled_from([0, 1, mod - 1, mod, mod + 1, 2 * mod]),
            st.integers(min_value=0, max_value=mod - 1),
            st.integers(min_value=mod, max_value=mod << 64),
        )
    )
    return base, exp, mod


@pytest.fixture
def fresh_backend():
    """Let a test re-run the binding and its check; restore afterwards."""
    bignum.backend.cache_clear()
    yield
    bignum.backend.cache_clear()


class TestModexp:
    @settings(max_examples=300, deadline=None)
    @given(_odd_modulus_cases())
    def test_matches_pow_on_odd_moduli(self, case):
        base, exp, mod = case
        assert modexp(base, exp, mod) == pow(base, exp, mod)

    @pytest.mark.parametrize(
        "base,exp,mod",
        [
            (5, 3, 1 << 1024),  # even modulus
            (7, 10, 1),  # modulus 1
            (7, 10, -15),  # negative modulus
            (3, -1, 101),  # modular inverse
        ],
    )
    def test_inputs_montgomery_cannot_take_go_to_pow(
        self, monkeypatch, base, exp, mod
    ):
        def no_native():
            raise AssertionError("the native backend must not be asked")

        monkeypatch.setattr(bignum, "backend", no_native)
        assert modexp(base, exp, mod) == pow(base, exp, mod)

    def test_negative_base_is_reduced_first(self):
        mod = (1 << 127) - 1
        assert modexp(-4, mod - 2, mod) == pow(-4, mod - 2, mod)

    def test_zero_modulus_raises_like_pow(self):
        with pytest.raises(ValueError):
            modexp(3, 5, 0)


class TestBackendSelection:
    def test_library_found_means_native_backend(self):
        """CI must not silently run the slow path: where the loader can
        find libcrypto, the binding must have loaded and passed its
        known-answer check."""
        if ctypes.util.find_library("crypto") is None:
            pytest.skip("no libcrypto on this platform; pow is the backend")
        assert bignum.backend() is not pow

    def test_wrong_known_answer_falls_back_to_pow(
        self, monkeypatch, fresh_backend
    ):
        monkeypatch.setattr(
            bignum, "_load_native", lambda: lambda b, e, m: pow(b, e, m) ^ 1
        )
        assert bignum.backend() is pow

    def test_raising_binding_falls_back_to_pow(self, monkeypatch, fresh_backend):
        def broken(base, exp, mod):
            raise MemoryError("no bignum")

        monkeypatch.setattr(bignum, "_load_native", lambda: broken)
        assert bignum.backend() is pow

    def test_missing_library_falls_back_to_pow(self, monkeypatch, fresh_backend):
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
        assert bignum.backend() is pow
        mod = (1 << 521) - 1
        assert modexp(3, 1 << 300, mod) == pow(3, 1 << 300, mod)

    def test_missing_symbol_falls_back_to_pow(self, monkeypatch, fresh_backend):
        # A library that loads but lacks the BN_* functions (libc).
        libc = ctypes.util.find_library("c")
        if libc is None:
            pytest.skip("no libc name to load")
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: libc)
        assert bignum.backend() is pow

    def test_ctypes_is_imported_on_first_use_not_at_import(self):
        script = (
            "import sys\n"
            "import repro.crypto.rsa\n"
            "from repro.crypto.bignum import modexp\n"
            "assert 'ctypes' not in sys.modules\n"
            "assert modexp(4, 13, 497) == 445\n"
            "assert 'ctypes' in sys.modules\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(_SRC)},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

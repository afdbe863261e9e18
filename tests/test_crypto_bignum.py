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
from repro.crypto.bignum import modexp, modexp_pair, modexp_public
from repro.crypto.libcrypto import libcrypto

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


def _pow_pair(base1, exp1, mod1, base2, exp2, mod2):
    """The reference for modexp_pair."""
    return pow(base1, exp1, mod1), pow(base2, exp2, mod2)


_IFMA_LOW = 1 << 960  # a value above this fills sixteen 64-bit limbs


@st.composite
def _ifma_half(draw):
    """A 1024-bit odd modulus with base and exponent of sixteen limbs:
    the operands of OpenSSL's AVX512-IFMA branch."""
    mod = draw(st.integers(min_value=1 << 1023, max_value=(1 << 1024) - 1)) | 1
    base = draw(st.integers(min_value=_IFMA_LOW, max_value=mod - 1))
    exp = draw(st.integers(min_value=_IFMA_LOW, max_value=(1 << 1024) - 1))
    return base, exp, mod


@st.composite
def _narrow_half(draw):
    """A 1024-bit odd modulus whose base or exponent has at most 960
    bits: OpenSSL's plain branch."""
    base, exp, mod = draw(_ifma_half())
    narrow = st.integers(min_value=0, max_value=_IFMA_LOW - 1)
    which = draw(st.sampled_from(["base", "exp", "both"]))
    if which in ("base", "both"):
        base = draw(narrow)
    if which in ("exp", "both"):
        exp = draw(narrow)
    return base, exp, mod


@st.composite
def _sized_half(draw):
    """Test-key halves (512 bits) and others, with the edge bases."""
    bits = draw(st.sampled_from([3, 64, 512, 520, 1000, 1024, 1025, 2048]))
    mod = draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)) | 1
    base = draw(
        st.one_of(
            st.sampled_from([0, 1, mod - 1, mod, mod + 1, 2 * mod]),
            st.integers(min_value=0, max_value=mod << 64),
        )
    )
    exp = draw(
        st.one_of(
            st.just(0),
            st.integers(min_value=0, max_value=(1 << bits) - 1),
        )
    )
    return base, exp, mod


_HALVES = st.one_of(_ifma_half(), _narrow_half(), _sized_half())


@pytest.fixture
def fresh_backend():
    """Let a test re-run the library search, the bindings and their
    checks; restore afterwards."""

    def clear():
        for cached in (
            bignum.backend,
            bignum.pair_backend,
            bignum.public_backend,
            libcrypto,
        ):
            cached.cache_clear()

    clear()
    yield
    clear()


class _Without:
    """A libcrypto stand-in that lacks some symbols and passes the rest
    through; *overrides* replace symbols by Python callables."""

    def __init__(self, lib, *missing, **overrides):
        self._lib, self._missing, self._overrides = lib, missing, overrides

    def __getattr__(self, name):
        if name in self._missing:
            raise AttributeError(name)
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._lib, name)


class _FakeVersion:
    """``OpenSSL_version_num`` returning a fixed release number."""

    def __init__(self, number: int):
        self.number = number
        self.argtypes = self.restype = None

    def __call__(self) -> int:
        return self.number


def _needs_libcrypto():
    if libcrypto() is None:
        pytest.skip("no libcrypto on this platform")
    return libcrypto()


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


class TestModexpPair:
    @settings(max_examples=300, deadline=None)
    @given(_HALVES, _HALVES)
    def test_matches_pow(self, first, second):
        assert modexp_pair(*first, *second) == (pow(*first), pow(*second))

    @pytest.mark.parametrize(
        "first,second",
        [
            # Base >= modulus in each half, and a zero exponent.
            ((3 << 1030, (1 << 1023) + 5, (1 << 1024) - 105),
             (0, 0, (1 << 1023) + 1155)),
            (((1 << 1024) - 105, 1 << 1000, (1 << 1024) - 105),
             (1, (1 << 1024) - 1, (1 << 1024) - 105)),
            # Halves of unequal width: a 1024-bit and a 1025-bit modulus.
            (bignum._PAIR_CHECK[0][:3], (5 << 1000, 77, (1 << 1024) + 643)),
        ],
    )
    def test_edge_operands(self, first, second):
        assert modexp_pair(*first, *second) == (pow(*first), pow(*second))

    @pytest.mark.parametrize(
        "odd_one",
        [
            (5, 3, 1 << 1024),  # even modulus
            (7, 10, 1),  # modulus 1
            (7, 10, -15),  # negative modulus
            (3, -1, 101),  # modular inverse
        ],
    )
    def test_inputs_montgomery_cannot_take_go_to_modexp(
        self, monkeypatch, odd_one
    ):
        def no_native():
            raise AssertionError("the paired backend must not be asked")

        monkeypatch.setattr(bignum, "pair_backend", no_native)
        fine = bignum._PAIR_CHECK[0][3:]
        assert modexp_pair(*odd_one, *fine) == (pow(*odd_one), pow(*fine))
        assert modexp_pair(*fine, *odd_one) == (pow(*fine), pow(*odd_one))

    def test_known_answer_reaches_the_ifma_branch(self):
        # OpenSSL takes its AVX512-IFMA path only for 1024-bit moduli
        # with sixteen-limb bases and exponents; a check that never got
        # there would not vouch for the code that runs.
        arguments = bignum._PAIR_CHECK[0]
        for base, exp, mod in (arguments[:3], arguments[3:]):
            assert mod.bit_length() == 1024 and mod & 1
            assert 960 < base.bit_length() <= 1024 and base < mod
            assert 960 < exp.bit_length() <= 1024


class TestModexpPublic:
    @settings(max_examples=200, deadline=None)
    @given(_odd_modulus_cases())
    def test_matches_pow_on_odd_moduli(self, case):
        base, exp, mod = case
        assert modexp_public(base, exp, mod) == pow(base, exp, mod)

    @settings(max_examples=100, deadline=None)
    @given(_HALVES)
    def test_matches_pow_on_the_pair_cases(self, case):
        assert modexp_public(*case) == pow(*case)

    @pytest.mark.parametrize(
        "base,exp,mod",
        [(5, 3, 1 << 1024), (7, 10, 1), (7, 10, -15), (3, -1, 101)],
    )
    def test_inputs_montgomery_cannot_take_go_to_pow(
        self, monkeypatch, base, exp, mod
    ):
        def no_native():
            raise AssertionError("the native backend must not be asked")

        monkeypatch.setattr(bignum, "public_backend", no_native)
        assert modexp_public(base, exp, mod) == pow(base, exp, mod)

    def test_public_exponent_on_a_2048_bit_modulus(self):
        base, exp, mod = bignum._PUBLIC_CHECK[0]
        assert exp == 65537
        for b in (0, 1, base, mod - 1, mod + 2):
            assert modexp_public(b, exp, mod) == pow(b, exp, mod)


class TestBackendSelection:
    @pytest.mark.parametrize(
        "check,reference",
        [
            (bignum._CHECK, pow),
            (bignum._PAIR_CHECK, _pow_pair),
            (bignum._PUBLIC_CHECK, pow),
        ],
    )
    def test_known_answer_digests_are_pows(self, check, reference):
        arguments, digest = check
        assert bignum._answer_digest(reference(*arguments)) == digest
        assert bignum._checked(reference, check) is reference
        wrong = bignum._answer_digest(reference(*arguments[:-1], arguments[-1] + 2))
        assert wrong != digest

    def test_library_found_means_native_backend(self):
        """CI must not silently run the slow path: where the loader can
        find libcrypto, the bindings must have loaded and passed their
        known-answer checks."""
        if ctypes.util.find_library("crypto") is None:
            pytest.skip("no libcrypto on this platform; pow is the backend")
        assert bignum.backend() is not pow
        assert bignum.public_backend() is not pow
        if hasattr(libcrypto(), "BN_mod_exp_mont_consttime_x2"):
            assert bignum.pair_backend() is not bignum._two_modexps

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
        monkeypatch.setitem(sys.modules, "_hashlib", None)
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
        assert bignum.backend() is pow
        mod = (1 << 521) - 1
        assert modexp(3, 1 << 300, mod) == pow(3, 1 << 300, mod)

    def test_missing_symbol_falls_back_to_pow(self, monkeypatch, fresh_backend):
        # A library that loads but lacks the BN_* functions (libc).
        libc = ctypes.util.find_library("c")
        if libc is None:
            pytest.skip("no libc name to load")
        monkeypatch.setitem(sys.modules, "_hashlib", None)
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: libc)
        assert bignum.backend() is pow

    def test_ctypes_is_imported_on_first_use_not_at_import(self):
        script = (
            "import sys\n"
            "import repro.crypto\n"
            "import repro.crypto.rsa\n"
            "from repro.crypto.bignum import modexp, modexp_pair, modexp_public\n"
            "assert 'ctypes' not in sys.modules\n"
            "assert modexp_public(4, 13, 497) == 445\n"
            "assert 'ctypes' in sys.modules\n"
            "assert modexp_pair(4, 13, 497, 5, 3, 13) == (445, 8)\n"
            "assert modexp(4, 13, 497) == 445\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(_SRC)},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr


class TestPairFallback:
    """modexp_pair falls back to two modexp calls, which stay native."""

    def test_missing_x2_symbol(self, monkeypatch, fresh_backend):
        # OpenSSL 1.1 has no BN_mod_exp_mont_consttime_x2.
        lib = _needs_libcrypto()
        stand_in = _Without(lib, "BN_mod_exp_mont_consttime_x2")
        monkeypatch.setattr(bignum, "libcrypto", lambda: stand_in)
        assert bignum.pair_backend() is bignum._two_modexps
        assert bignum.backend() is not pow
        case = bignum._PAIR_CHECK[0]
        assert modexp_pair(*case) == _pow_pair(*case)

    def test_release_with_the_broken_ifma_code_is_refused(
        self, monkeypatch, fresh_backend
    ):
        lib = _needs_libcrypto()
        stand_in = _Without(lib, OpenSSL_version_num=_FakeVersion(0x30000040))
        monkeypatch.setattr(bignum, "libcrypto", lambda: stand_in)
        assert bignum._load_native_pair() is None
        stand_in = _Without(lib, OpenSSL_version_num=_FakeVersion(0x30000130))
        monkeypatch.setattr(bignum, "libcrypto", lambda: stand_in)
        assert bignum._load_native_pair() is not None

    def test_wrong_known_answer(self, monkeypatch, fresh_backend):
        def wrong(*args):
            first, second = _pow_pair(*args)
            return first, second ^ 1

        monkeypatch.setattr(bignum, "_load_native_pair", lambda: wrong)
        assert bignum.pair_backend() is bignum._two_modexps
        assert modexp_pair(4, 13, 497, 5, 3, 13) == (445, 8)

    def test_raising_binding(self, monkeypatch, fresh_backend):
        def broken(*args):
            raise MemoryError("no bignum")

        monkeypatch.setattr(bignum, "_load_native_pair", lambda: broken)
        assert bignum.pair_backend() is bignum._two_modexps

    def test_missing_library(self, monkeypatch, fresh_backend):
        monkeypatch.setitem(sys.modules, "_hashlib", None)
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
        assert bignum.pair_backend() is bignum._two_modexps
        assert bignum.backend() is pow
        case = bignum._PAIR_CHECK[0]
        assert modexp_pair(*case) == _pow_pair(*case)


class TestPublicFallback:
    def test_missing_symbol(self, monkeypatch, fresh_backend):
        lib = _needs_libcrypto()
        stand_in = _Without(lib, "BN_mod_exp_mont")
        monkeypatch.setattr(bignum, "libcrypto", lambda: stand_in)
        assert bignum.public_backend() is pow
        assert bignum.backend() is not pow
        case = bignum._PUBLIC_CHECK[0]
        assert modexp_public(*case) == pow(*case)

    def test_wrong_known_answer(self, monkeypatch, fresh_backend):
        monkeypatch.setattr(
            bignum, "_load_native_public", lambda: lambda b, e, m: pow(b, e, m) ^ 1
        )
        assert bignum.public_backend() is pow

    def test_raising_binding(self, monkeypatch, fresh_backend):
        def broken(base, exp, mod):
            raise MemoryError("no bignum")

        monkeypatch.setattr(bignum, "_load_native_public", lambda: broken)
        assert bignum.public_backend() is pow

    def test_missing_library(self, monkeypatch, fresh_backend):
        monkeypatch.setitem(sys.modules, "_hashlib", None)
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
        assert bignum.public_backend() is pow
        assert modexp_public(3, 65537, (1 << 521) - 1) == pow(
            3, 65537, (1 << 521) - 1
        )

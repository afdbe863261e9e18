"""The repo invariant linter: clean on the shipped tree, loud on the
seeded-violation fixtures."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import (
    RULE_IDS,
    lint_file,
    lint_paths,
    lint_paths_report,
    lint_source,
    lint_source_report,
)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "lint"

_FIXTURE_BY_RULE = {
    "REG001": FIXTURES / "reg001_unlocked_registry.py",
    "RNG002": FIXTURES / "rng002_process_rng.py",
    "CLK003": FIXTURES / "clk003_wall_clock.py",
    "LRU004": FIXTURES / "lru004_unlocked_cache.py",
    "RSA005": FIXTURES / "rsa005_full_width_private_pow.py",
    "AES006": FIXTURES / "aes006_one_block_reference.py",
}


class TestShippedTreeIsClean:
    def test_src_repro_has_zero_violations(self):
        violations = lint_paths([REPO / "src" / "repro"])
        assert violations == [], "\n".join(str(v) for v in violations)


class TestSeededFixtures:
    @pytest.mark.parametrize("rule", RULE_IDS)
    def test_each_rule_fires_on_its_fixture(self, rule):
        violations = lint_file(_FIXTURE_BY_RULE[rule])
        assert violations, f"{rule} fixture produced no violations"
        assert {v.rule for v in violations} == {rule}

    def test_reg001_points_at_the_unlocked_mutation(self):
        violations = lint_file(_FIXTURE_BY_RULE["REG001"])
        assert len(violations) == 1  # the locked mutation is not flagged
        assert "_REGISTRY" in violations[0].message

    def test_rsa005_flags_positional_and_keyword_forms_only(self):
        violations = lint_file(_FIXTURE_BY_RULE["RSA005"])
        # slow_sign and slow_sign_keywords; the modexp call on
        # RsaPrivateKey and the public-exponent pow are not flagged.
        assert [v.line for v in violations] == [15, 19]
        assert all(v.patch is None for v in violations)

    def test_rsa005_flags_crt_exponents_inside_rsa_private_key(self):
        violations = lint_file(FIXTURES / "rsa005_crt_exponent_pow.py")
        # Both CRT halves on RsaPrivateKey and the bare-modulus pow; the
        # modexp call, the two-argument pow and the public pow are not.
        assert [(v.rule, v.line) for v in violations] == [
            ("RSA005", 10),
            ("RSA005", 11),
            ("RSA005", 16),
        ]
        assert all("modexp" in v.message for v in violations)

    def test_rsa005_allows_the_bignum_module_itself(self):
        source = "def fallback(c, key):\n    return pow(c, key.dp, key.p)\n"
        assert lint_source(source, path="src/repro/crypto/bignum.py") == []
        assert [
            v.rule for v in lint_source(source, path="src/repro/crypto/rsa.py")
        ] == ["RSA005"]

    def test_rsa005_requires_the_same_key_object(self):
        source = "def f(a, b, m):\n    return pow(m, a.d, b.n)\n"
        assert lint_source(source) == []

    def test_rsa005_honours_suppressions(self):
        source = (
            "def reference(key, em):\n"
            "    return pow(em, key.d, key.n)  "
            "# lint: allow(RSA005) textbook reference for a test\n"
        )
        report = lint_source_report(source)
        assert report.violations == []
        assert [s.violation.rule for s in report.suppressed] == ["RSA005"]

    def test_aes006_flags_calls_and_aliases_only(self):
        violations = lint_file(_FIXTURE_BY_RULE["AES006"])
        # The calls in unwrap and chained and the alias in aliased; the
        # whole-buffer calls are not flagged.
        assert [v.line for v in violations] == [6, 11, 16]
        assert [v.message.split("`")[1] for v in violations] == [
            "decrypt_block",
            "decrypt_block",
            "encrypt_block",
        ]
        assert all(v.patch is None for v in violations)

    def test_aes006_allows_the_aes_module_itself(self):
        source = (
            "def reference(cipher, block):\n"
            "    return cipher.decrypt_block(cipher.encrypt_block(block))\n"
        )
        assert lint_source(source, path="src/repro/crypto/aes.py") == []
        assert [v.rule for v in lint_source(source, path="src/repro/crypto/cmac.py")] == [
            "AES006",
            "AES006",
        ]

    def test_aes006_honours_suppressions(self):
        source = (
            "def reference(cipher, block):\n"
            "    return cipher.decrypt_block(block)  "
            "# lint: allow(AES006) per-block reference for a test\n"
        )
        report = lint_source_report(source)
        assert report.violations == []
        assert [s.violation.rule for s in report.suppressed] == ["AES006"]

    def test_rng002_catches_each_forbidden_form(self):
        violations = lint_file(_FIXTURE_BY_RULE["RNG002"])
        messages = " ".join(v.message for v in violations)
        assert "os.urandom" in messages
        assert "random.random" in messages
        assert "unseeded random.Random()" in messages


class TestRuleSemantics:
    def test_mutation_under_lock_is_clean(self):
        source = (
            "import threading\n"
            "_R = {}\n"
            "_R_LOCK = threading.Lock()\n"
            "def put(k, v):\n"
            "    with _R_LOCK:\n"
            "        _R[k] = v\n"
        )
        assert lint_source(source) == []

    def test_registry_without_lock_is_not_reg001(self):
        """REG001 only governs scopes that declared a lock; a plain
        module-level dict is just a dict."""
        source = "_R = {}\ndef put(k, v):\n    _R[k] = v\n"
        assert [v.rule for v in lint_source(source)] == []

    def test_init_is_exempt(self):
        source = (
            "import threading\n"
            "from collections import OrderedDict\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._cache = OrderedDict()\n"
            "        self._cache['warm'] = 1\n"
        )
        assert lint_source(source) == []

    def test_seeded_random_is_allowed(self):
        assert lint_source("import random\nr = random.Random(42)\n") == []

    def test_clock_module_itself_may_read_wall_clock(self):
        source = "import time\ndef now():\n    return time.time()\n"
        path = "src/repro/android/clock.py"
        assert lint_source(source, path=path) == []
        assert [v.rule for v in lint_source(source, path="src/repro/x.py")] == [
            "CLK003"
        ]

    def test_syntax_error_is_reported_not_raised(self):
        violations = lint_source("def broken(:\n")
        assert [v.rule for v in violations] == ["SYNTAX"]

    def test_violations_sorted_by_line(self):
        source = (
            "import time, os\n"
            "def a():\n"
            "    return os.urandom(4)\n"
            "def b():\n"
            "    return time.time()\n"
        )
        violations = lint_source(source)
        assert [v.rule for v in violations] == ["RNG002", "CLK003"]
        assert violations[0].line < violations[1].line


class TestSuppressions:
    """`# lint: allow(RULE123) <reason>` comments waive one rule on one
    line — and every waiver is recorded in the report."""

    CLOCK_LINE = "import time\ndef now():\n    return time.time()"

    def test_same_line_suppression(self):
        source = (
            "import time\n"
            "def now():\n"
            "    return time.time()  # lint: allow(CLK003) bench needs wall time\n"
        )
        report = lint_source_report(source)
        assert report.violations == []
        assert [s.suppression.rule for s in report.suppressed] == ["CLK003"]
        assert report.suppressed[0].suppression.reason == "bench needs wall time"

    def test_preceding_comment_line_suppression(self):
        source = (
            "import time\n"
            "def now():\n"
            "    # lint: allow(CLK003) bench needs wall time\n"
            "    return time.time()\n"
        )
        report = lint_source_report(source)
        assert report.violations == []
        assert len(report.suppressed) == 1

    def test_reason_is_mandatory(self):
        source = (
            "import time\n"
            "def now():\n"
            "    return time.time()  # lint: allow(CLK003)\n"
        )
        report = lint_source_report(source)
        assert [v.rule for v in report.violations] == ["CLK003"]
        assert report.suppressed == []

    def test_wrong_rule_does_not_suppress(self):
        source = (
            "import time\n"
            "def now():\n"
            "    return time.time()  # lint: allow(RNG002) wrong rule\n"
        )
        report = lint_source_report(source)
        assert [v.rule for v in report.violations] == ["CLK003"]

    def test_suppression_is_line_scoped(self):
        """A waiver on one line does not bless the rule elsewhere."""
        source = (
            "import time\n"
            "def a():\n"
            "    return time.time()  # lint: allow(CLK003) measured on purpose\n"
            "def b():\n"
            "    return time.time()\n"
        )
        report = lint_source_report(source)
        assert [v.rule for v in report.violations] == ["CLK003"]
        assert report.violations[0].line == 5
        assert len(report.suppressed) == 1

    def test_legacy_lint_source_filters_suppressed(self):
        source = (
            "import time\n"
            "def now():\n"
            "    return time.time()  # lint: allow(CLK003) justified\n"
        )
        assert lint_source(source) == []

    def test_shipped_tree_suppressions_are_recorded(self):
        """The bus's wall-clock read is waived in place, not invisible."""
        report = lint_paths_report([REPO / "src" / "repro"])
        assert report.violations == []
        waived = {
            (Path(s.violation.path).name, s.suppression.rule)
            for s in report.suppressed
        }
        assert ("bus.py", "CLK003") in waived

    def test_aliased_clock_reference_is_flagged(self):
        """CLK003 catches bare references too — aliasing the clock
        function dodges the rule as effectively as calling it."""
        source = "import time\nclock = time.perf_counter_ns\n"
        assert [v.rule for v in lint_source(source)] == ["CLK003"]


def apply_unified_patch(source: str, patch: str) -> str:
    """Apply a full-file unified diff the way ``patch -p1`` would."""
    lines = source.splitlines()
    result: list[str] = []
    cursor = 0
    for raw in patch.splitlines():
        if raw.startswith(("---", "+++")):
            continue
        if raw.startswith("@@"):
            start = int(raw.split()[1].lstrip("-").split(",")[0])
            result.extend(lines[cursor : start - 1])
            cursor = start - 1
        elif raw.startswith("+"):
            result.append(raw[1:])
        elif raw.startswith("-"):
            assert lines[cursor] == raw[1:], "patch context mismatch"
            cursor += 1
        elif raw.startswith(" ") or raw == "":
            assert lines[cursor] == raw[1:], "patch context mismatch"
            result.append(lines[cursor])
            cursor += 1
    result.extend(lines[cursor:])
    return "\n".join(result) + "\n"


class TestAutofixPatches:
    """REG001/LRU004 violations carry a ready-to-apply unified diff;
    applying it silences the violation."""

    def test_reg001_patch_wraps_the_mutation_and_relints_clean(self):
        source = _FIXTURE_BY_RULE["REG001"].read_text()
        path = str(_FIXTURE_BY_RULE["REG001"])
        violation = lint_source(source, path=path)[0]
        assert violation.patch is not None
        assert f"a/{path}" in violation.patch
        assert "with _REGISTRY_LOCK:" in violation.patch
        fixed = apply_unified_patch(source, violation.patch)
        assert lint_source(fixed, path=path) == []

    def test_lru004_patch_declares_the_lock_and_relints_clean(self):
        source = _FIXTURE_BY_RULE["LRU004"].read_text()
        path = str(_FIXTURE_BY_RULE["LRU004"])
        violation = lint_source(source, path=path)[0]
        assert violation.patch is not None
        assert "+import threading" in violation.patch
        assert "self._entries_lock = threading.Lock()" in violation.patch
        fixed = apply_unified_patch(source, violation.patch)
        assert lint_source(fixed, path=path) == []

    def test_lru004_patch_inserts_import_below_docstring_and_future(self):
        """Every module in this repo opens with a docstring and a
        ``from __future__ import annotations``; ``import threading``
        landing above either would be a SyntaxError (or demote the
        docstring)."""
        source = (
            '"""Module docstring."""\n'
            "from __future__ import annotations\n"
            "\n"
            "from collections import OrderedDict\n"
            "\n"
            "class C:\n"
            "    def boot(self):\n"
            "        self._cache = OrderedDict()\n"
        )
        violation = lint_source(source)[0]
        assert violation.rule == "LRU004"
        fixed = apply_unified_patch(source, violation.patch)
        compile(fixed, "<fixed>", "exec")  # patched module must parse
        lines = fixed.splitlines()
        assert lines.index("import threading") > lines.index(
            "from __future__ import annotations"
        )
        assert lint_source(fixed) == []

    def test_lru004_patch_joins_existing_imports_after_future_import(self):
        source = (
            "from __future__ import annotations\n"
            "from collections import OrderedDict\n"
            "_cache = OrderedDict()\n"
        )
        violation = lint_source(source)[0]
        assert violation.rule == "LRU004"
        fixed = apply_unified_patch(source, violation.patch)
        compile(fixed, "<fixed>", "exec")
        assert fixed.splitlines()[1] == "import threading"
        assert lint_source(fixed) == []

    def test_lru004_patch_skips_the_import_when_already_present(self):
        source = (
            "import threading\n"
            "from collections import OrderedDict\n"
            "class C:\n"
            "    def boot(self):\n"
            "        self._cache = OrderedDict()\n"
        )
        violation = lint_source(source)[0]
        assert violation.rule == "LRU004"
        assert "+import threading" not in violation.patch
        fixed = apply_unified_patch(source, violation.patch)
        assert lint_source(fixed) == []

    def test_reg001_multiline_mutation_is_wrapped_whole(self):
        source = (
            "import threading\n"
            "_R = {}\n"
            "_LOCK = threading.Lock()\n"
            "def put(k):\n"
            "    _R[k] = [\n"
            "        1,\n"
            "    ]\n"
        )
        violation = lint_source(source)[0]
        fixed = apply_unified_patch(source, violation.patch)
        assert "with _LOCK:" in fixed
        assert lint_source(fixed) == []

    def test_rules_without_a_known_fix_carry_no_patch(self):
        violations = lint_source("import time\nt = time.time()\n")
        assert [v.rule for v in violations] == ["CLK003"]
        assert violations[0].patch is None

    def test_cli_lint_fix_preview_echoes_the_patch(self, capsys):
        from repro.cli import main

        path = str(_FIXTURE_BY_RULE["REG001"])
        assert main(["lint", "--fix-preview", path]) == 1
        out = capsys.readouterr().out
        assert f"+++ b/{path}" in out
        assert "+    with _REGISTRY_LOCK:" in out

    def test_cli_lint_without_flag_stays_terse(self, capsys):
        from repro.cli import main

        assert main(["lint", str(_FIXTURE_BY_RULE["REG001"])]) == 1
        assert "+++" not in capsys.readouterr().out


class TestCliTool:
    def _run(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint_repro.py"), *args],
            capture_output=True,
            text=True,
            cwd=REPO,
        )

    def test_exit_zero_on_shipped_tree(self):
        result = self._run("src/repro")
        assert result.returncode == 0, result.stdout + result.stderr

    @pytest.mark.parametrize("rule", RULE_IDS)
    def test_exit_nonzero_on_each_fixture(self, rule):
        result = self._run(str(_FIXTURE_BY_RULE[rule]))
        assert result.returncode == 1
        assert rule in result.stdout

    def test_exit_two_on_missing_path(self):
        result = self._run("does/not/exist")
        assert result.returncode == 2

    def test_fix_preview_flag_prints_patch_hunks(self):
        result = self._run("--fix-preview", str(_FIXTURE_BY_RULE["LRU004"]))
        assert result.returncode == 1
        assert "@@" in result.stdout
        assert "+        self._entries_lock = threading.Lock()" in result.stdout

    def test_suppressions_shown_in_clean_output(self, tmp_path):
        waived = tmp_path / "waived.py"
        waived.write_text(
            "import time\n"
            "def now():\n"
            "    return time.time()  # lint: allow(CLK003) timing harness\n"
        )
        result = self._run(str(waived))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "suppressed" in result.stdout
        assert "timing harness" in result.stdout

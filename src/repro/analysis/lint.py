"""Repo invariant linter: AST rules guarding the concurrency and
determinism substrate.

The study's byte-identity contract (in process or through fleet worker
processes) rests on three conventions nothing used to enforce, and the
licensing hot path on a fourth and fifth:

- shared mutable registries are mutated only under their lock
  (``REG001``), and hand-rolled LRU caches always *have* a lock
  (``LRU004``);
- every random byte comes from the seeded HMAC-DRBG, never the
  process RNG (``RNG002``);
- no wall-clock reads outside :mod:`repro.android.clock` — simulated
  time is advanced explicitly (``CLK003``);
- no private exponent (``key.d``, ``key.dp``, ``key.dq``) in a
  variable-time exponentiation (``RSA005``): not in a three-argument
  ``pow`` outside :mod:`repro.crypto.bignum` (private operations go
  through ``RsaPrivateKey``'s CRT primitive, one constant-time
  ``modexp_pair`` in libcrypto, over 20x faster than ``pow``), and not
  in ``modexp_public`` anywhere (``BN_mod_exp_mont``, whose timing
  follows the exponent's bits: for ``e`` only);
- no one-block ``encrypt_block`` / ``decrypt_block`` outside
  :mod:`repro.crypto.aes`: they are the pure-Python reference and
  fallback; everything else goes through ``cipher_for``'s whole-buffer
  calls (``encrypt_blocks``, ``decrypt_blocks``, ``cbc_encrypt``) and
  the modes built on them, which run in libcrypto (``AES006``).

Each rule is pure stdlib ``ast`` — no third-party linter dependency —
and is self-tested against seeded-violation fixtures in
``tests/fixtures/lint/``. ``tools/lint_repro.py`` (and the CI lint job)
runs the whole set over ``src/repro``.

Deliberate exceptions are suppressed in place, never globally::

    self._clock = time.perf_counter_ns  # lint: allow(CLK003) spans time real work

The comment names one rule and **must** carry a justification; a bare
``allow(CLK003)`` with no reason does not suppress. It applies to the
line it sits on, or — when the comment stands alone — to the next line.
Suppressions are not silent: every one that fires is recorded in the
:class:`LintReport` so the CI log shows what was waived and why.

REG001/LRU004 violations additionally carry a ready-to-apply
unified-diff patch (``repro lint --fix-preview``). Each patch is a
full-file diff against the **original** source, so when one file
carries several violations the patches overlap: apply one patch per
file, re-lint, and take the regenerated patch for the next violation.
"""

from __future__ import annotations

import ast
import difflib
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "LintReport",
    "LintSuppression",
    "LintViolation",
    "RULE_IDS",
    "SuppressedViolation",
    "lint_source",
    "lint_source_report",
    "lint_file",
    "lint_file_report",
    "lint_paths",
    "lint_paths_report",
]

RULE_IDS = ("REG001", "RNG002", "CLK003", "LRU004", "RSA005", "AES006")

# Modules allowed to read the wall clock: the simulation's one clock
# abstraction. Everything else must take a SimClock.
_WALL_CLOCK_ALLOWED_SUFFIXES = ("repro/android/clock.py",)
# The one module that may use the one-block AES calls: it defines them,
# as the pure-Python reference and fallback.
_ONE_BLOCK_AES_ALLOWED_SUFFIXES = ("repro/crypto/aes.py",)
_ONE_BLOCK_AES = frozenset({"encrypt_block", "decrypt_block"})
# The one module that may exponentiate with a private exponent through
# ``pow``: it wraps libcrypto's exponentiation and falls back to ``pow``.
_PRIVATE_POW_ALLOWED_SUFFIXES = ("repro/crypto/bignum.py",)
# The variable-time exponentiation: public exponents only, everywhere.
_PUBLIC_ONLY_MODEXP = "modexp_public"
_PRIVATE_EXPONENTS = frozenset({"d", "dp", "dq"})

_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "add",
        "remove",
        "discard",
        "move_to_end",
    }
)

_MUTABLE_CALLS = frozenset({"dict", "list", "set", "OrderedDict", "defaultdict"})
_LOCK_CALLS = frozenset({"Lock", "RLock"})

_FORBIDDEN_RNG = {
    "random.random",
    "random.randint",
    "random.randrange",
    "random.uniform",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.sample",
    "random.getrandbits",
    "random.randbytes",
    "os.urandom",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "secrets.randbelow",
    "secrets.choice",
    "uuid.uuid4",
}

_FORBIDDEN_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
}


@dataclass(frozen=True)
class LintViolation:
    rule: str
    path: str
    line: int
    message: str
    # Ready-to-apply unified diff fixing the violation, when the rule
    # knows the exact repair (REG001: wrap in `with <lock>:`; LRU004:
    # declare the missing lock beside the cache). ``repro lint
    # --fix-preview`` and ``tools/lint_repro.py`` echo it. Diffed
    # against the unmodified file: apply at most one patch per file,
    # then re-lint to regenerate the rest against the patched source.
    patch: str | None = None

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


# -- suppressions --------------------------------------------------------------

# `# lint: allow(RULE123) <reason>` — one rule per comment, reason
# mandatory. Multiple comments may share a line.
_SUPPRESSION_RE = re.compile(
    r"#\s*lint:\s*allow\((?P<rule>[A-Z]+\d+)\)\s*(?P<reason>[^#\n]*)"
)


@dataclass(frozen=True)
class LintSuppression:
    """One `# lint: allow(...)` comment found in a source file."""

    rule: str
    path: str
    line: int  # line the comment sits on
    reason: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: allow({self.rule}) {self.reason}"


@dataclass(frozen=True)
class SuppressedViolation:
    """A violation waived by a matching suppression comment."""

    violation: LintViolation
    suppression: LintSuppression

    def __str__(self) -> str:
        v, s = self.violation, self.suppression
        return (
            f"{v.path}:{v.line}: {v.rule} suppressed "
            f"(allow at line {s.line}: {s.reason})"
        )


@dataclass
class LintReport:
    """What the linter found *and* what it was told to overlook."""

    violations: list[LintViolation] = field(default_factory=list)
    suppressed: list[SuppressedViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def extend(self, other: "LintReport") -> None:
        self.violations.extend(other.violations)
        self.suppressed.extend(other.suppressed)


def _collect_suppressions(source: str, path: str) -> list[LintSuppression]:
    suppressions: list[LintSuppression] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        for match in _SUPPRESSION_RE.finditer(text):
            suppressions.append(
                LintSuppression(
                    rule=match.group("rule"),
                    path=path,
                    line=lineno,
                    reason=match.group("reason").strip(),
                )
            )
    return suppressions


def _covered_lines(suppression: LintSuppression, source_lines: list[str]) -> set[int]:
    """A trailing comment covers its own line; a comment standing alone
    on a line covers the statement directly below it."""
    covered = {suppression.line}
    index = suppression.line - 1
    if 0 <= index < len(source_lines) and source_lines[index].lstrip().startswith("#"):
        covered.add(suppression.line + 1)
    return covered


def _apply_suppressions(
    violations: list[LintViolation],
    suppressions: list[LintSuppression],
    source: str,
) -> LintReport:
    source_lines = source.splitlines()
    coverage: dict[tuple[str, int], LintSuppression] = {}
    for suppression in suppressions:
        if not suppression.reason:
            continue  # a waiver without a justification does not waive
        for line in _covered_lines(suppression, source_lines):
            coverage.setdefault((suppression.rule, line), suppression)
    report = LintReport()
    for violation in violations:
        suppression = coverage.get((violation.rule, violation.line))
        if suppression is None:
            report.violations.append(violation)
        else:
            report.suppressed.append(
                SuppressedViolation(violation=violation, suppression=suppression)
            )
    return report


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted-name rendering of a Name/Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return ""


def _is_mutable_literal(value: ast.AST) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return True
    if isinstance(value, ast.Call):
        name = _dotted(value.func).rsplit(".", 1)[-1]
        return name in _MUTABLE_CALLS
    return False


def _is_lock_factory(value: ast.AST) -> bool:
    if isinstance(value, ast.Call):
        name = _dotted(value.func).rsplit(".", 1)[-1]
        return name in _LOCK_CALLS
    return False


def _is_ordereddict_call(value: ast.AST) -> bool:
    return (
        isinstance(value, ast.Call)
        and _dotted(value.func).rsplit(".", 1)[-1] == "OrderedDict"
    )


def _with_holds_lock(node: ast.With) -> bool:
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        if "lock" in _dotted(expr).lower():
            return True
    return False


# -- scope harvesting ----------------------------------------------------------


@dataclass
class _Scope:
    """Registries and locks declared by one module or one class."""

    registries: set[str]  # plain names (module) or attr names (class)
    lru_caches: set[str]
    has_lock: bool
    is_class: bool
    # Lock expressions as they read at a mutation site (module names,
    # or "self.<attr>" for class scopes) — the autofix wraps mutations
    # in the first one. Empty when the scope declares no lock.
    lock_exprs: tuple[str, ...] = ()
    # cache name -> line of its declaring assignment; the LRU004
    # autofix inserts the missing lock right below it.
    cache_lines: dict[str, int] = field(default_factory=dict)


def _module_scope(tree: ast.Module) -> _Scope:
    registries: set[str] = set()
    caches: set[str] = set()
    locks: list[str] = []
    cache_lines: dict[str, int] = {}
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.AST | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        for target in targets:
            if not isinstance(target, ast.Name) or target.id == "__all__":
                continue
            if _is_lock_factory(value):
                locks.append(target.id)
            elif _is_ordereddict_call(value):
                caches.add(target.id)
                registries.add(target.id)
                cache_lines[target.id] = getattr(
                    stmt, "end_lineno", stmt.lineno
                )
            elif _is_mutable_literal(value):
                registries.add(target.id)
    return _Scope(
        registries,
        caches,
        bool(locks),
        is_class=False,
        lock_exprs=tuple(locks),
        cache_lines=cache_lines,
    )


def _class_scope(cls: ast.ClassDef) -> _Scope:
    """Instance attributes assigned anywhere in the class's methods."""
    registries: set[str] = set()
    caches: set[str] = set()
    locks: list[str] = []
    cache_lines: dict[str, int] = {}
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                if _is_lock_factory(node.value):
                    locks.append(f"self.{target.attr}")
                elif _is_ordereddict_call(node.value):
                    caches.add(target.attr)
                    registries.add(target.attr)
                    cache_lines[target.attr] = getattr(
                        node, "end_lineno", node.lineno
                    )
                elif _is_mutable_literal(node.value):
                    registries.add(target.attr)
    return _Scope(
        registries,
        caches,
        bool(locks),
        is_class=True,
        lock_exprs=tuple(locks),
        cache_lines=cache_lines,
    )


# -- autofix patches -----------------------------------------------------------


def _unified_patch(
    old_lines: list[str], new_lines: list[str], path: str
) -> str:
    """Full-file unified diff, ready for ``patch -p1`` / ``git apply``."""
    return (
        "\n".join(
            difflib.unified_diff(
                old_lines,
                new_lines,
                fromfile=f"a/{path}",
                tofile=f"b/{path}",
                lineterm="",
            )
        )
        + "\n"
    )


def _reg001_patch(
    source_lines: list[str], node: ast.AST, lock_expr: str, path: str
) -> str | None:
    """Wrap the flagged statement in ``with <lock>:``, re-indented."""
    start = getattr(node, "lineno", 0) - 1
    end = getattr(node, "end_lineno", getattr(node, "lineno", 0)) - 1
    if start < 0 or end >= len(source_lines):
        return None
    stmt = source_lines[start : end + 1]
    indent = stmt[0][: len(stmt[0]) - len(stmt[0].lstrip())]
    fixed = [f"{indent}with {lock_expr}:"] + [
        f"    {line}" if line.strip() else line for line in stmt
    ]
    new_lines = source_lines[:start] + fixed + source_lines[end + 1 :]
    return _unified_patch(source_lines, new_lines, path)


def _import_insert_index(source_lines: list[str]) -> int:
    """0-based index where ``import threading`` can legally go.

    Joining the first existing import is preferred; failing that, the
    slot just below the module docstring and any ``from __future__``
    imports — inserting above either would demote the docstring or
    raise ``SyntaxError: from __future__ imports must occur at the
    beginning of the file``.
    """
    try:
        body = ast.parse("\n".join(source_lines)).body
    except SyntaxError:
        body = []
    index = 0
    for position, node in enumerate(body):
        docstring = (
            position == 0
            and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        )
        if docstring or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            index = getattr(node, "end_lineno", node.lineno)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return node.lineno - 1
        break
    return index


def _lru004_patch(
    source_lines: list[str], scope: "_Scope", cache: str, path: str
) -> str | None:
    """Declare the missing lock on the line below the cache assignment
    (adding ``import threading`` when the module lacks it)."""
    decl_end = scope.cache_lines.get(cache)
    if decl_end is None or decl_end > len(source_lines):
        return None
    decl_line = source_lines[decl_end - 1]
    indent = decl_line[: len(decl_line) - len(decl_line.lstrip())]
    lock_name = f"self.{cache}_lock" if scope.is_class else f"{cache}_lock"
    new_lines = list(source_lines)
    new_lines.insert(decl_end, f"{indent}{lock_name} = threading.Lock()")
    has_import = any(
        re.match(r"\s*(import threading\b|from threading import )", line)
        for line in source_lines
    )
    if not has_import:
        new_lines.insert(
            _import_insert_index(source_lines), "import threading"
        )
    return _unified_patch(source_lines, new_lines, path)


# -- mutation scanning ---------------------------------------------------------


class _MutationScanner(ast.NodeVisitor):
    """Walks one function body tracking the with-lock nesting depth."""

    def __init__(
        self,
        scope: _Scope,
        path: str,
        violations: list[LintViolation],
        where: str,
        source_lines: list[str] | None = None,
    ):
        self.scope = scope
        self.path = path
        self.violations = violations
        self.where = where
        self.source_lines = source_lines or []
        self.lock_depth = 0

    # -- helpers -----------------------------------------------------------

    def _registry_name(self, node: ast.AST) -> str | None:
        """The registry this expression denotes, if tracked by scope."""
        if self.scope.is_class:
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.scope.registries
            ):
                return f"self.{node.attr}"
        elif isinstance(node, ast.Name) and node.id in self.scope.registries:
            return node.id
        return None

    def _flag(self, node: ast.AST, registry: str) -> None:
        if self.lock_depth > 0:
            return
        lock_expr = self.scope.lock_exprs[0] if self.scope.lock_exprs else None
        patch = None
        if lock_expr is not None and self.source_lines:
            patch = _reg001_patch(self.source_lines, node, lock_expr, self.path)
        self.violations.append(
            LintViolation(
                rule="REG001",
                path=self.path,
                line=getattr(node, "lineno", 0),
                message=(
                    f"shared registry {registry!r} mutated outside its lock "
                    f"in {self.where} (wrap the mutation in "
                    f"`with {lock_expr or '<lock>'}:`)"
                ),
                patch=patch,
            )
        )

    # -- visitors ----------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        held = _with_holds_lock(node)
        if held:
            self.lock_depth += 1
        self.generic_visit(node)
        if held:
            self.lock_depth -= 1

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                registry = self._registry_name(target.value)
                if registry is not None:
                    self._flag(node, registry)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Subscript):
            registry = self._registry_name(node.target.value)
            if registry is not None:
                self._flag(node, registry)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                registry = self._registry_name(target.value)
                if registry is not None:
                    self._flag(node, registry)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
        ):
            registry = self._registry_name(func.value)
            if registry is not None:
                self._flag(node, registry)
        self.generic_visit(node)


def _check_registry_locks(
    tree: ast.Module,
    path: str,
    violations: list[LintViolation],
    source_lines: list[str] | None = None,
) -> None:
    """REG001 + LRU004 over the module scope and every class scope."""
    source_lines = source_lines or []

    def scan_scope(scope: _Scope, owner: ast.AST, label: str) -> None:
        if scope.lru_caches and not scope.has_lock:
            for cache in sorted(scope.lru_caches):
                patch = (
                    _lru004_patch(source_lines, scope, cache, path)
                    if source_lines
                    else None
                )
                violations.append(
                    LintViolation(
                        rule="LRU004",
                        path=path,
                        line=getattr(owner, "lineno", 1),
                        message=(
                            f"LRU cache {cache!r} in {label} has no lock: "
                            "declare a threading.Lock() beside it and mutate "
                            "under it"
                        ),
                        patch=patch,
                    )
                )
        if not scope.has_lock or not scope.registries:
            return
        body = owner.body if isinstance(owner, (ast.Module, ast.ClassDef)) else []
        for stmt in body:
            functions = (
                [stmt]
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                else []
            )
            for func in functions:
                if func.name == "__init__":
                    continue  # construction precedes sharing
                scanner = _MutationScanner(
                    scope,
                    path,
                    violations,
                    where=f"{label}.{func.name}",
                    source_lines=source_lines,
                )
                for node in func.body:
                    scanner.visit(node)

    scan_scope(_module_scope(tree), tree, "module")
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            scan_scope(_class_scope(node), node, node.name)


def _is_private_exponent_pow(call: ast.Call) -> bool:
    """Three-argument ``pow(_, <x>.d, mod)`` (or ``.dp`` / ``.dq``),
    positional or keyword, unless ``mod`` is read off an object other
    than ``<x>`` — then the exponent is not that key's."""
    if _dotted(call.func) not in ("pow", "builtins.pow"):
        return False
    args: list[ast.AST | None] = list(call.args[:3])
    args += [None] * (3 - len(args))
    for keyword in call.keywords:
        if keyword.arg in ("exp", "mod"):
            args[1 if keyword.arg == "exp" else 2] = keyword.value
    exponent, modulus = args[1], args[2]
    if modulus is None:
        return False
    if not (
        isinstance(exponent, ast.Attribute) and exponent.attr in _PRIVATE_EXPONENTS
    ):
        return False
    return not isinstance(modulus, ast.Attribute) or ast.dump(
        exponent.value
    ) == ast.dump(modulus.value)


def _is_private_exponent_public_modexp(call: ast.Call) -> bool:
    """``modexp_public(_, <x>.d, _)`` (or ``.dp`` / ``.dq``), positional
    or keyword, whatever the modulus: a private exponent never belongs
    on the variable-time path."""
    if _dotted(call.func).rsplit(".", 1)[-1] != _PUBLIC_ONLY_MODEXP:
        return False
    exponent = call.args[1] if len(call.args) > 1 else None
    for keyword in call.keywords:
        if keyword.arg == "exp":
            exponent = keyword.value
    return isinstance(exponent, ast.Attribute) and exponent.attr in _PRIVATE_EXPONENTS


def _check_forbidden_calls(
    tree: ast.Module, path: str, violations: list[LintViolation]
) -> None:
    """RNG002 + CLK003 + RSA005 + AES006: call-pattern bans."""
    clock_allowed = path.replace("\\", "/").endswith(
        _WALL_CLOCK_ALLOWED_SUFFIXES
    )
    one_block_aes_allowed = path.replace("\\", "/").endswith(
        _ONE_BLOCK_AES_ALLOWED_SUFFIXES
    )
    private_pow_allowed = path.replace("\\", "/").endswith(
        _PRIVATE_POW_ALLOWED_SUFFIXES
    )
    # Attribute nodes serving as a call's callee are handled by the Call
    # branch; the leftovers are bare references (aliasing a clock
    # function dodges the rule just as effectively as calling it).
    call_callees = {
        id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
    }
    for node in ast.walk(tree):
        # A call or a bare reference (aliasing dodges the rule as well).
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _ONE_BLOCK_AES
            and not one_block_aes_allowed
        ):
            violations.append(
                LintViolation(
                    rule="AES006",
                    path=path,
                    line=node.lineno,
                    message=(
                        f"one-block `{node.attr}` (the Python reference) "
                        "outside repro.crypto.aes; go through cipher_for's "
                        "encrypt_blocks / decrypt_blocks / cbc_encrypt or "
                        "the modes"
                    ),
                )
            )
            continue
        if isinstance(node, ast.Attribute) and id(node) not in call_callees:
            name = _dotted(node)
            if name in _FORBIDDEN_CLOCK and not clock_allowed:
                violations.append(
                    LintViolation(
                        rule="CLK003",
                        path=path,
                        line=node.lineno,
                        message=(
                            f"wall-clock function `{name}` referenced "
                            "outside repro.android.clock; simulated "
                            "components take a SimClock"
                        ),
                    )
                )
            continue
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if _is_private_exponent_pow(node) and not private_pow_allowed:
            violations.append(
                LintViolation(
                    rule="RSA005",
                    path=path,
                    line=node.lineno,
                    message=(
                        "private-exponent `pow(_, .d/.dp/.dq, _)` outside "
                        "repro.crypto.bignum; use RsaPrivateKey's CRT "
                        "primitive (raw_decrypt / pss_sign / oaep_decrypt) "
                        "or bignum.modexp"
                    ),
                )
            )
        elif _is_private_exponent_public_modexp(node):
            violations.append(
                LintViolation(
                    rule="RSA005",
                    path=path,
                    line=node.lineno,
                    message=(
                        "private exponent `.d/.dp/.dq` in the variable-time "
                        "`modexp_public`; use RsaPrivateKey's CRT primitive "
                        "or the constant-time bignum.modexp / modexp_pair"
                    ),
                )
            )
        elif name in _FORBIDDEN_RNG:
            violations.append(
                LintViolation(
                    rule="RNG002",
                    path=path,
                    line=node.lineno,
                    message=(
                        f"process-level RNG `{name}` breaks study "
                        "determinism; draw from repro.crypto.rng.derive_rng"
                    ),
                )
            )
        elif name in ("random.Random", "Random") and not (
            node.args or node.keywords
        ):
            violations.append(
                LintViolation(
                    rule="RNG002",
                    path=path,
                    line=node.lineno,
                    message=(
                        "unseeded random.Random() breaks study determinism; "
                        "seed it or use repro.crypto.rng.derive_rng"
                    ),
                )
            )
        elif name in _FORBIDDEN_CLOCK and not clock_allowed:
            violations.append(
                LintViolation(
                    rule="CLK003",
                    path=path,
                    line=node.lineno,
                    message=(
                        f"wall-clock read `{name}` outside repro.android."
                        "clock; simulated components take a SimClock"
                    ),
                )
            )


# -- entry points --------------------------------------------------------------


def lint_source_report(source: str, path: str = "<string>") -> LintReport:
    """Lint one Python source text, honouring ``# lint: allow`` comments."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return LintReport(
            violations=[
                LintViolation(
                    rule="SYNTAX",
                    path=path,
                    line=exc.lineno or 0,
                    message=f"unparsable: {exc.msg}",
                )
            ]
        )
    violations: list[LintViolation] = []
    _check_registry_locks(tree, path, violations, source.splitlines())
    _check_forbidden_calls(tree, path, violations)
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return _apply_suppressions(
        violations, _collect_suppressions(source, path), source
    )


def lint_source(source: str, path: str = "<string>") -> list[LintViolation]:
    """Lint one Python source text (unsuppressed violations only)."""
    return lint_source_report(source, path).violations


def lint_file_report(path: str | Path) -> LintReport:
    path = Path(path)
    return lint_source_report(path.read_text(encoding="utf-8"), str(path))


def lint_file(path: str | Path) -> list[LintViolation]:
    return lint_file_report(path).violations


def lint_paths_report(paths: list[str | Path]) -> LintReport:
    """Lint files and/or directory trees (``*.py``, sorted walk)."""
    report = LintReport()
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for file in sorted(entry.rglob("*.py")):
                report.extend(lint_file_report(file))
        else:
            report.extend(lint_file_report(entry))
    return report


def lint_paths(paths: list[str | Path]) -> list[LintViolation]:
    return lint_paths_report(paths).violations

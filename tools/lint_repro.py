#!/usr/bin/env python3
"""Run the repo invariant linter (repro.analysis.lint) over a tree.

    python tools/lint_repro.py [--fix-preview] [PATH ...]

Rules: REG001 (registry mutated outside its lock), RNG002 (process
RNG), CLK003 (wall clock outside repro.android.clock), LRU004 (LRU
cache without a lock), RSA005 (a private exponent ``key.d`` /
``key.dp`` / ``key.dq`` in a three-argument ``pow`` outside
repro.crypto.bignum, or in the variable-time ``modexp_public``
anywhere), AES006 (one-block
``encrypt_block`` / ``decrypt_block`` outside repro.crypto.aes).

Defaults to ``src/repro`` relative to the repository root. Exits 0 when
clean, 1 when any violation is found (this is what the CI lint job
gates on), 2 on usage errors. ``--fix-preview`` prints the
ready-to-apply unified-diff patch next to each REG001/LRU004 violation
that carries one. Patches are diffed against the original file, so a
file with several violations needs them applied one at a time with a
re-lint (regenerating the remaining patches) in between.
"""

from __future__ import annotations

import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.analysis.lint import lint_paths_report  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    fix_preview = "--fix-preview" in argv
    argv = [arg for arg in argv if arg != "--fix-preview"]
    paths = [Path(p) for p in argv] or [_REPO_ROOT / "src" / "repro"]
    for path in paths:
        if not path.exists():
            print(f"lint_repro: no such path: {path}", file=sys.stderr)
            return 2
    report = lint_paths_report(list(paths))
    for violation in report.violations:
        print(violation)
        if fix_preview and violation.patch:
            print(violation.patch.rstrip("\n"))
    for suppressed in report.suppressed:
        print(suppressed)
    if report.violations:
        print(f"{len(report.violations)} violation(s)")
        return 1
    if report.suppressed:
        print(f"lint_repro: clean ({len(report.suppressed)} suppression(s))")
    else:
        print("lint_repro: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

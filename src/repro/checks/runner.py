"""File discovery, noqa filtering, and reporting for ``repro-lint``.

The runner walks the requested paths, parses each ``*.py`` file once, runs
every registered rule (see :mod:`repro.checks.rules`), drops violations
suppressed by a same-line ``# repro: noqa[Rxxx]`` comment, and renders a
text or ``--json`` report.  The exit code is a bitmask with one bit per
rule that fired (R001 -> 1, R002 -> 2, ..., R013 -> 4096), so CI logs
show *which* rule class regressed without parsing output; the bit after
the last rule's (:data:`PARSE_ERROR_BIT`, derived from the rule count so
a new rule can never alias it) marks files that failed to parse.  POSIX
exit statuses are 8-bit, so
:func:`main` clamps any mask >= 256 to 255 for the process exit — the
full mask lives in the JSON report's ``exit_code`` field.  (Exit code 2
is also argparse's usage-error code; treat bits as meaningful only when
the run itself printed a report.)
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .rules import RULE_SUMMARIES, RULES, FileContext, Violation

#: Same-line suppression: ``# repro: noqa[R001]`` or ``[R001,R004]``; an
#: optional trailing justification is encouraged (`` — reason``).
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Z0-9,\s]+)\]")

#: Directories never linted (caches, VCS metadata).
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", ".hypothesis"}

#: Exit-code bit for files that failed to parse: one past the last rule's.
PARSE_ERROR_BIT = 1 << len(RULES)


@dataclass
class LintReport:
    """Aggregate result of one lint run."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    errors: list[str] = field(default_factory=list)  # unparsable files

    @property
    def exit_code(self) -> int:
        code = 0
        for v in self.violations:
            code |= 1 << (int(v.rule[1:]) - 1)
        if self.errors:
            # Kept clear of every rule bit — and note a raw mask no longer
            # fits a POSIX exit status; main() clamps it.
            code |= PARSE_ERROR_BIT
        return code

    def rule_counts(self) -> dict[str, int]:
        counts = {rule_id: 0 for rule_id in RULES}
        for v in self.violations:
            counts[v.rule] += 1
        return counts

    def to_json(self) -> dict:
        return {
            "schema": "repro.lint-report/1",
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "errors": list(self.errors),
            "rules": {
                rule_id: {"summary": RULE_SUMMARIES[rule_id], "count": count}
                for rule_id, count in self.rule_counts().items()
            },
            "violations": [
                {
                    "rule": v.rule,
                    "path": v.path,
                    "line": v.line,
                    "col": v.col,
                    "message": v.message,
                }
                for v in self.violations
            ],
            "exit_code": self.exit_code,
        }


def _noqa_rules(line: str) -> set[str]:
    match = _NOQA_RE.search(line)
    if not match:
        return set()
    return {part.strip() for part in match.group(1).split(",") if part.strip()}


def _simulated_scope(filename: str) -> bool:
    """True for library code under ``src/repro`` (R002's scope).

    Two exemptions only: tests and benchmarks may time themselves.
    :mod:`repro.parallel` — the real-parallel process backend — reads the
    wall clock *on purpose*, but it is no longer blanket-exempt: each
    deliberate timing site there licenses itself with a per-line
    ``# repro: noqa[R002]`` and a justification, so any *new* clock read
    in parallel code trips the rule until a human signs it off.
    :mod:`repro.obs` merely consumes measured times and gets no escape
    hatch at all.  (R008 shares this scope outright: since the backend
    grew retry machinery, ``parallel/`` retry loops are in scope and the
    deliberate unbounded ones license themselves with ``noqa[R008]``.)
    """
    parts = set(Path(filename).parts)
    return "repro" in parts and not ({"tests", "benchmarks"} & parts)


def _realtime_scope(filename: str) -> bool:
    """True under any ``parallel/`` directory (package *and* its tests).

    The real-parallel backend's collectives
    (``WorkerLink.bcast``/``allgather``/...) are plain blocking methods,
    not SimComm generators — R004's name-based heuristic must not demand
    ``yield from`` there, nor in the tests that drive them.  R011 is
    confined to the scope (exchange offsets only exist in the real
    backend); R008 used to skip it but no longer does — the backend's
    retry/degradation loops are exactly what the rule exists to bound.
    """
    return "parallel" in Path(filename).parts


def _library_scope(filename: str) -> bool:
    """True for any ``src/repro`` library file (R009–R013's scope).

    Unlike ``_simulated_scope`` this never grew subpackage carve-outs:
    the shm-discipline rules apply to the whole library, the parallel
    package most of all.
    """
    parts = set(Path(filename).parts)
    return "repro" in parts and not ({"tests", "benchmarks"} & parts)


def lint_source(
    source: str,
    filename: str = "<string>",
    *,
    select: set[str] | None = None,
) -> tuple[list[Violation], int]:
    """Lint one source string; returns (violations, suppressed count).

    ``select`` restricts the run to a subset of rule IDs (default: all).
    Violations carrying a same-line ``# repro: noqa[Rxxx]`` for their rule
    are filtered out and counted as suppressed.
    """
    tree = ast.parse(source, filename=filename)
    ctx = FileContext(
        path=filename,
        simulated=_simulated_scope(filename),
        realtime=_realtime_scope(filename),
        library=_library_scope(filename),
    )
    lines = source.splitlines()
    kept: list[Violation] = []
    suppressed = 0
    for rule_id, rule in RULES.items():
        if select is not None and rule_id not in select:
            continue
        for violation in rule(tree, ctx):
            line = lines[violation.line - 1] if violation.line <= len(lines) else ""
            if violation.rule in _noqa_rules(line):
                suppressed += 1
            else:
                kept.append(violation)
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return kept, suppressed


def lint_file(
    path: str | Path, *, select: set[str] | None = None
) -> tuple[list[Violation], int]:
    """Lint one file on disk; returns (violations, suppressed count)."""
    path = Path(path)
    return lint_source(path.read_text(), str(path), select=select)


def iter_python_files(paths: list[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if not (_SKIP_DIRS & set(p.parts))
            )
        else:
            out.append(path)
    return out


def lint_paths(
    paths: list[str | Path], *, select: set[str] | None = None
) -> LintReport:
    """Lint every ``*.py`` under ``paths``; returns the aggregate report."""
    report = LintReport()
    for path in iter_python_files(paths):
        try:
            violations, suppressed = lint_file(path, select=select)
        except SyntaxError as exc:
            report.errors.append(f"{path}: {exc.msg} (line {exc.lineno})")
            continue
        report.files_checked += 1
        report.violations.extend(violations)
        report.suppressed += suppressed
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checks",
        description="repro-lint: repo-specific determinism & comm-API checks.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a machine-readable report"
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, fn in RULES.items():
            print(f"{rule_id}  {RULE_SUMMARIES[rule_id]}")
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"      {doc}")
        return 0

    select = None
    if args.select:
        select = {part.strip() for part in args.select.split(",") if part.strip()}
        unknown = select - set(RULES)
        if unknown:
            parser.error(f"unknown rules: {sorted(unknown)}")

    report = lint_paths(list(args.paths), select=select)

    # POSIX exit statuses are 8-bit: a mask >= 256 (R009+, or the parse
    # bit) would silently wrap — 4096 % 256 == 0 reads as *clean*.  Clamp
    # here (not in __main__: the ``repro-lint`` console script calls this
    # function directly); the JSON report keeps the full mask.
    def clamp(code: int) -> int:
        return code if code < 256 else 255

    if args.json:
        print(json.dumps(report.to_json(), indent=2))
        return clamp(report.exit_code)

    for violation in report.violations:
        print(violation.render())
    for error in report.errors:
        print(f"parse error: {error}", file=sys.stderr)
    counts = {k: v for k, v in report.rule_counts().items() if v}
    summary = (
        ", ".join(f"{rule_id}: {n}" for rule_id, n in sorted(counts.items()))
        or "clean"
    )
    print(
        f"repro-lint: {report.files_checked} files, "
        f"{len(report.violations)} violation(s) "
        f"({summary}), {report.suppressed} suppressed"
    )
    return clamp(report.exit_code)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

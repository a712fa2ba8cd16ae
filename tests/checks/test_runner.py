"""Runner behavior: noqa suppression, exit-code bitmask, JSON, discovery.

Also the repo-level gate: ``repro-lint`` over ``src`` and ``tests`` must be
clean — the same invocation CI runs as a hard gate.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.checks import RULES, lint_paths, lint_source
from repro.checks.runner import PARSE_ERROR_BIT, LintReport, main

REPO = Path(__file__).resolve().parents[2]


class TestNoqa:
    def test_same_line_noqa_suppresses(self):
        source = "import time\nt = time.time()  # repro: noqa[R002] — test fixture\n"
        violations, suppressed = lint_source(source, "src/repro/m.py")
        assert violations == []
        assert suppressed == 1

    def test_noqa_for_other_rule_does_not_suppress(self):
        source = "import time\nt = time.time()  # repro: noqa[R001]\n"
        violations, _ = lint_source(source, "src/repro/m.py")
        assert [v.rule for v in violations] == ["R002"]

    def test_multi_rule_noqa(self):
        source = (
            "import time, random\n"
            "t = time.time() + random.random()  # repro: noqa[R001,R002] — fixture\n"
        )
        violations, suppressed = lint_source(source, "src/repro/m.py")
        assert violations == []
        assert suppressed == 2


class TestExitCodes:
    def test_bitmask_one_bit_per_rule(self):
        from repro.checks.rules import Violation

        report = LintReport(
            violations=[
                Violation("R001", "f.py", 1, 0, "m"),
                Violation("R004", "f.py", 2, 0, "m"),
            ]
        )
        assert report.exit_code == (1 << 0) | (1 << 3)

    def test_clean_report_is_zero(self):
        assert LintReport().exit_code == 0

    def test_parse_error_sets_high_bit(self):
        # One past the last rule's bit, so rule bits and the parse-error
        # marker never alias.
        report = LintReport(errors=["f.py: bad syntax (line 1)"])
        assert report.exit_code == PARSE_ERROR_BIT == 1 << len(RULES)

    def test_r012_bit_distinct_from_parse_errors(self):
        from repro.checks.rules import Violation

        report = LintReport(
            violations=[Violation("R012", "f.py", 1, 0, "m")],
            errors=["g.py: bad syntax (line 1)"],
        )
        assert report.exit_code == (1 << 11) | PARSE_ERROR_BIT

    def test_no_rule_bit_is_the_parse_error_bit(self):
        from repro.checks.rules import Violation

        bits = [
            LintReport(violations=[Violation(rule_id, "f.py", 1, 0, "m")]).exit_code
            for rule_id in RULES
        ]
        assert len(set(bits)) == len(RULES)
        assert PARSE_ERROR_BIT not in bits
        assert all(bit < PARSE_ERROR_BIT for bit in bits)

    def test_main_clamps_process_exit_to_eight_bits(self, tmp_path, capsys):
        # R009's bit alone is 256 == 0 mod 256: without the clamp the
        # repro-lint console script would exit 0 on a real violation.
        bad = tmp_path / "bad.py"
        bad.write_text("def f(arena, lease):\n    arena.view(lease)\n")
        fake = tmp_path / "src" / "repro" / "parallel"
        fake.mkdir(parents=True)
        target = fake / "mod.py"
        target.write_text(bad.read_text())
        code = main([str(target), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1 << 8  # full mask in the report
        assert code == 255  # clamped for the 8-bit process status

    def test_parse_error_exit_does_not_wrap_to_zero(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        code = main([str(tmp_path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == PARSE_ERROR_BIT
        assert code == 255


class TestRunner:
    def test_lint_paths_over_tree(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "bad.py").write_text(
            "import random\nx = random.random()\n"
        )
        (tmp_path / "pkg" / "good.py").write_text("x = 1\n")
        report = lint_paths([tmp_path])
        assert report.files_checked == 2
        assert [v.rule for v in report.violations] == ["R001"]

    def test_json_output_shape(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(a=[]):\n    return a\n")
        code = main([str(bad), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.lint-report/1"
        assert payload["rules"]["R007"]["count"] == 1
        assert payload["exit_code"] == code == 1 << 6

    def test_select_restricts_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\ndef f(a=[]):\n    return random.random()\n")
        assert main([str(bad), "--select", "R007"]) == 1 << 6

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R002", "R003", "R004", "R005", "R006",
                        "R007", "R008", "R009", "R010", "R011", "R012", "R013"):
            assert rule_id in out

    def test_unparsable_file_reported_not_fatal(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        (tmp_path / "fine.py").write_text("x = 1\n")
        report = lint_paths([tmp_path])
        assert report.files_checked == 1
        assert len(report.errors) == 1


class TestRepoIsClean:
    def test_src_and_tests_lint_clean(self):
        """The CI gate: the whole repo passes its own linter."""
        report = lint_paths([REPO / "src", REPO / "tests"])
        assert report.errors == []
        assert report.violations == [], "\n".join(
            v.render() for v in report.violations
        )

    def test_module_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.checks", "src", "tests"],
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "repro-lint" in proc.stdout

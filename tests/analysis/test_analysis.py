"""Tests for the analysis package: calibration and snapshot regression."""

import pytest

from repro.analysis import run_checks, summarize, thread_efficiency_profile


class TestCalibration:
    @pytest.fixture(scope="class")
    def checks(self):
        return run_checks(real_keys=1 << 14)

    def test_all_checks_pass(self, checks):
        failing = [c.name for c in checks if not c.ok]
        assert not failing, f"calibration drifted: {failing}"

    def test_summary_mentions_every_check(self, checks):
        text = summarize(checks)
        for c in checks:
            assert c.name in text

    def test_thread_efficiency_profile(self):
        prof = thread_efficiency_profile()
        assert prof[1] == 1.0
        assert prof[32] < prof[8] < prof[1]
        assert prof[32] > 0.5


class TestRegressionComparison:
    def test_identical_snapshots_ok(self):
        from repro.analysis.regression import compare

        snap = {"fig5": {"series": {"uniform": {"y": [1.0, 0.5]}}}}
        report = compare(snap, snap)
        assert report.ok
        assert report.compared_leaves == 2

    def test_within_tolerance_passes(self):
        from repro.analysis.regression import compare

        base = {"x": 1.00}
        cur = {"x": 1.05}
        assert compare(base, cur, tolerance=0.1).ok
        assert not compare(base, cur, tolerance=0.01).ok

    def test_drift_reported_with_path(self):
        from repro.analysis.regression import compare

        report = compare({"a": {"b": [1.0, 2.0]}}, {"a": {"b": [1.0, 4.0]}})
        assert len(report.drifts) == 1
        assert report.drifts[0].path == "a.b[1]"
        assert report.drifts[0].relative == pytest.approx(1.0)

    def test_structural_changes(self):
        from repro.analysis.regression import compare

        report = compare({"a": 1, "b": 2}, {"a": 1, "c": 3})
        assert "b" in report.missing
        assert "c" in report.added
        assert not report.ok

    def test_list_length_mismatch(self):
        from repro.analysis.regression import compare

        report = compare({"xs": [1, 2, 3]}, {"xs": [1, 2]})
        assert not report.ok

    def test_bool_compared_exactly(self):
        from repro.analysis.regression import compare

        assert not compare({"flag": True}, {"flag": False}).ok
        assert compare({"flag": True}, {"flag": True}).ok

    def test_string_mismatch_structural(self):
        from repro.analysis.regression import compare

        report = compare({"name": "x"}, {"name": "y"})
        assert not report.ok

    def test_cli_roundtrip(self, tmp_path, capsys):
        import json

        from repro.analysis.regression import main

        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps({"fig": {"total": 1.0}}))
        cur.write_text(json.dumps({"fig": {"total": 1.02}}))
        assert main([str(base), str(cur), "--tolerance", "0.1"]) == 0
        cur.write_text(json.dumps({"fig": {"total": 2.0}}))
        assert main([str(base), str(cur), "--tolerance", "0.1"]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out

    def test_end_to_end_with_real_snapshot(self, capsys):
        """A real --json snapshot diffed against itself is clean."""
        import json

        from repro.analysis.regression import compare
        from repro.experiments.cli import main as cli_main

        assert cli_main(["fig4", "--scale", "smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert compare(payload, payload).ok

    def test_invalid_tolerance(self):
        from repro.analysis.regression import compare

        with pytest.raises(ValueError):
            compare({}, {}, tolerance=-1)

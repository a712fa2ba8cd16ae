"""ShmSan end-to-end: clean golden runs stay clean and bit-identical, and
every seeded invariant mutation is reported with rank/step/byte-range
diagnostics — the detector's own regression suite."""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.checks.hb import PARENT_RANK
from repro.core.api import partition_input
from repro.core.local_backend import local_sample_sort
from repro.parallel import (
    MUTATIONS,
    ProcessBackend,
    RealFaultPlan,
    ShmSan,
    WorkerCrashedError,
    active_shm_sanitizer,
    shm_sanitize,
)
from repro.parallel.shmsan import analyze_log

REPO = pathlib.Path(__file__).resolve().parents[2]
GOLDEN_PATH = REPO / "tests" / "golden" / "sim_golden_p16.json"

RACE_KINDS = {"write-write-race", "read-write-race"}


def _blocks(p=4, n=20_000, seed=7):
    data = np.random.default_rng(seed).integers(0, 1 << 40, n).astype(np.int64)
    return data, list(partition_input(data, p)[0])


def _assert_bit_identical(reference, run):
    for rank, out in enumerate(run.outputs):
        np.testing.assert_array_equal(out.keys, reference.per_processor[rank])
    np.testing.assert_array_equal(run.splitters, reference.splitters)


def _kinds(san):
    return {v.kind for v in san.report.violations}


def _paths(run):
    return {report.local_sort_path for report in run.reports}


class TestCleanRuns:
    def test_sanitized_run_is_bit_identical_and_clean(self):
        _, blocks = _blocks()
        reference = local_sample_sort(blocks)
        with ProcessBackend(sanitize=True) as backend:
            run = backend.sort_blocks(blocks)
            san = backend.sanitizer
        _assert_bit_identical(reference, run)
        assert _paths(run) == {"through"}  # sanitized jobs take the word path too
        assert san.report.ok, san.report.summary()
        assert san.report.runs == 1
        # input + keys + index + proc leases (for 8-byte keys the word
        # stream is the key lease itself), all four ranks flushing.
        assert san.report.counts["leases_tracked"] == 4
        assert san.report.counts["accesses_recorded"] > 4

    def test_sanitizer_accumulates_across_sorts(self):
        _, blocks = _blocks(n=4_000)
        san = ShmSan()
        with ProcessBackend(sanitize=san) as backend:
            backend.sort_blocks(blocks)
            backend.sort_blocks(blocks)
        assert san.report.runs == 2
        assert san.report.ok, san.report.summary()

    def test_ambient_scope_attaches_sanitizer(self):
        _, blocks = _blocks(n=4_000)
        assert active_shm_sanitizer() is None
        with shm_sanitize() as san:
            assert active_shm_sanitizer() is san
            with ProcessBackend() as backend:
                backend.sort_blocks(blocks)
        assert active_shm_sanitizer() is None
        assert san.report.runs == 1
        assert san.report.ok, san.report.summary()

    def test_sanitize_false_opts_out_of_ambient(self):
        _, blocks = _blocks(n=4_000)
        with shm_sanitize() as san:
            with ProcessBackend(sanitize=False) as backend:
                backend.sort_blocks(blocks)
        assert san.report.runs == 0
        assert san.report.counts["accesses_recorded"] == 0

    def test_unsanitized_backend_records_nothing(self):
        _, blocks = _blocks(n=4_000)
        with ProcessBackend() as backend:
            backend.sort_blocks(blocks)
            assert backend.sanitizer is None


class TestMutations:
    """Each seeded invariant break must be caught, with usable diagnostics."""

    def test_mutation_names_are_validated(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            ProcessBackend(mutate="not-a-mutation")

    def test_offset_off_by_one_reports_mismatch_with_coordinates(self):
        _, blocks = _blocks()
        with ProcessBackend(
            sanitize=True, mutate="offset-off-by-one", mutate_rank=1
        ) as backend:
            backend.sort_blocks(blocks)
            san = backend.sanitizer
        assert "offset-mismatch" in _kinds(san), san.report.summary()
        mismatches = [
            v for v in san.report.violations if v.kind == "offset-mismatch"
        ]
        # The mutant rank is named, with the step and both byte ranges.
        assert {v.rank for v in mismatches} == {1}
        for v in mismatches:
            assert v.details["src"] == 1
            assert v.details["step"] == 5
            actual = v.details["actual_bytes"]
            expected = v.details["expected_bytes"]
            assert actual != expected
            assert actual[1] - actual[0] == expected[1] - expected[0]

    def test_skip_merge_barrier_reports_a_race_with_the_mutant(self):
        _, blocks = _blocks()
        with ProcessBackend(
            sanitize=True, mutate="skip-merge-barrier", mutate_rank=2
        ) as backend:
            backend.sort_blocks(blocks)
            san = backend.sanitizer
        races = [v for v in san.report.violations if v.kind in RACE_KINDS]
        assert races, san.report.summary()
        # The unordered pair always involves the rank that skipped the
        # barrier; the report pinpoints the overlapping byte ranges.
        for v in races:
            assert 2 in (v.details["a"]["rank"], v.details["b"]["rank"])
            assert v.details["overlap_bytes"][0] < v.details["overlap_bytes"][1]

    def test_double_lease_reports_aliasing(self):
        _, blocks = _blocks(n=4_000)
        with ProcessBackend(sanitize=True, mutate="double-lease") as backend:
            backend.sort_blocks(blocks)
            san = backend.sanitizer
        aliased = [
            v for v in san.report.violations if v.kind == "overlapping-lease"
        ]
        assert aliased, san.report.summary()
        assert aliased[0].rank == PARENT_RANK
        assert "double-lease-alias" in aliased[0].details["roles"]

    def test_stale_view_reports_use_after_release(self):
        _, blocks = _blocks(n=4_000)
        with ProcessBackend(sanitize=True, mutate="stale-view") as backend:
            backend.sort_blocks(blocks)
            san = backend.sanitizer
        stale = [v for v in san.report.violations if v.kind == "stale-view"]
        assert stale, san.report.summary()
        assert stale[0].rank == PARENT_RANK
        assert stale[0].details["label"] == "stale-input-probe"

    def test_relet_pinned_reports_the_result_the_job_overwrites(self, tmp_path):
        _, blocks = _blocks(n=4_000)
        with ProcessBackend(sanitize=True, mutate="relet-pinned") as backend:
            held = backend.sort_blocks(blocks)
            san = backend.sanitizer
            assert san.report.ok, san.report.summary()  # nothing pinned yet
            san.dump_log(tmp_path / "held.json")
            backend.sort_blocks(blocks)
        segment_of = {
            lease["role"]: lease["segment"]
            for lease in json.loads((tmp_path / "held.json").read_text())["leases"]
        }
        aliased = [
            v for v in san.report.violations if v.kind == "overlapping-lease"
        ]
        assert {v.kind for v in san.report.violations} == {"overlapping-lease"}
        assert all(v.rank == PARENT_RANK for v in aliased)
        # Same shapes, so the arena that forgot its pins hands every output
        # stream of the second job the segment the first result still reads.
        assert [v.details["roles"] for v in aliased] == [
            ["pinned-keys", "keys"],
            ["pinned-index", "index"],
            ["pinned-proc", "proc"],
        ]
        assert [v.details["segment"] for v in aliased] == [
            segment_of[role] for role in ("keys", "index", "proc")
        ]
        for v in aliased:
            assert v.details["a_bytes"] == v.details["b_bytes"]
        del held

    def test_pinned_leases_stay_live_only_as_long_as_the_result(self):
        """Held: later jobs get other bytes.  Dropped: same bytes, clean."""
        _, blocks = _blocks(n=4_000)
        san = ShmSan()
        with ProcessBackend(sanitize=san) as backend:
            held = backend.sort_blocks(blocks)
            backend.sort_blocks(blocks)
            allocations = backend.arena.allocations
            del held
            for _ in range(3):  # closed loop: each result dies before the next job
                backend.sort_blocks(blocks)
            assert backend.arena.allocations == allocations
        assert san.report.runs == 5
        assert san.report.ok, san.report.summary()

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_every_mutation_in_the_catalog_is_detected(self, mutation):
        _, blocks = _blocks(n=8_000)
        with ProcessBackend(sanitize=True, mutate=mutation) as backend:
            held = backend.sort_blocks(blocks)  # relet-pinned needs a pin to ignore
            run = backend.sort_blocks(blocks)
            san = backend.sanitizer
        del held
        # The worker-side mutations act in steps 5-6 of the word path.
        assert _paths(run) == {"through"}
        assert not san.report.ok, f"mutation {mutation!r} escaped ShmSan"


class TestWordPathStreams:
    """Which streams a job exchanged is the job's to say, not the analyzer's."""

    def _sanitized(self, data, tmp_path, p=4, **kwargs):
        blocks = list(partition_input(data, p)[0])
        san = ShmSan()
        with ProcessBackend(sanitize=san, **kwargs) as backend:
            run = backend.sort_blocks(blocks)
        san.dump_log(tmp_path / "log.json")
        doc = json.loads((tmp_path / "log.json").read_text())
        return run, san, doc, {access[7] for access in doc["accesses"]}

    def test_narrow_keys_exchange_a_word_segment_of_their_own(self, tmp_path):
        data = np.random.default_rng(3).integers(-(1 << 30), 1 << 30, 8_000).astype(np.int32)
        run, san, doc, labels = self._sanitized(data, tmp_path)
        assert _paths(run) == {"through"}
        assert san.report.ok, san.report.summary()
        assert san.report.counts["leases_tracked"] == 5  # + the int64 word stream
        assert doc["exchanged"] == ["words"]
        assert {"exchange-write", "merge-read", "merge-write", "index-write",
                "proc-write", "key-write"} <= labels
        assert analyze_log(doc)[0] == []
        words = next(lease for lease in doc["leases"] if lease["role"] == "words")
        writes = [a for a in doc["accesses"] if a[7] == "exchange-write"]
        assert writes and {a[0] for a in writes} == {words["segment"]}
        # The index lease is output-only now; saying otherwise is an error.
        doc["exchanged"] = ["keys", "index"]
        assert {v.kind for v in analyze_log(doc)[0]} == {"missing-exchange-write"}

    def test_offset_mutation_is_red_on_the_word_segment(self, tmp_path):
        data = np.random.default_rng(3).integers(0, 1 << 30, 8_000).astype(np.int32)
        run, san, doc, _ = self._sanitized(
            data, tmp_path, mutate="offset-off-by-one", mutate_rank=1
        )
        assert _paths(run) == {"through"}
        words = next(lease for lease in doc["leases"] if lease["role"] == "words")
        mismatches = [v for v in san.report.violations if v.kind == "offset-mismatch"]
        assert mismatches and {v.details["segment"] for v in mismatches} == {words["segment"]}
        assert {v.rank for v in mismatches} == {1}

    def test_float_refill_reads_the_input_lease_and_stays_clean(self, tmp_path):
        rng = np.random.default_rng(4)
        data = np.floor(rng.exponential(50, 8_000)) * rng.choice([-1.0, 1.0], 8_000)
        data[::7], data[3::11] = -0.0, -np.nan
        run, san, doc, labels = self._sanitized(data, tmp_path)
        assert _paths(run) == {"through"}
        assert san.report.ok, san.report.summary()
        assert doc["exchanged"] == ["keys"]  # 8-byte keys decode in place
        assert "refill-read" in labels
        reference = local_sample_sort(list(partition_input(data, 4)[0]))
        for out, expected in zip(run.outputs, reference.per_processor):
            assert out.keys.tobytes() == expected.tobytes()

    def test_frame_miss_exchanges_keys_and_indices_as_before(self, tmp_path):
        data = np.random.default_rng(5).normal(size=8_000)  # full-mantissa float64
        run, san, doc, labels = self._sanitized(data, tmp_path)
        assert _paths(run) == {"stable"}
        assert san.report.ok, san.report.summary()
        assert doc["exchanged"] == ["keys", "index"]
        assert "index-write" not in labels and "refill-read" not in labels


class TestCrashedRuns:
    def test_crash_flushes_partial_log_and_notes_it(self):
        _, blocks = _blocks()
        backend = ProcessBackend(
            sanitize=True,
            chaos=RealFaultPlan.from_spec("kill=2@6-merge"),
            retry=False,
            timeout_seconds=30.0,
        )
        try:
            with pytest.raises(WorkerCrashedError):
                backend.sort_blocks(blocks)
            san = backend.sanitizer
        finally:
            backend.close()
        partial = [n for n in san.report.notes if n["kind"] == "partial-run"]
        assert len(partial) == 1
        assert partial[0]["crashed_rank"] == 2
        assert partial[0]["last_step"] == "5-exchange"
        # Heartbeat piggybacking flushed the input reads and exchange
        # writes of every other rank before the crash tore the run down.
        by_rank = partial[0]["accesses_by_rank"]
        assert set(by_rank) >= {"0", "1", "3"}
        assert all(count > 0 for count in by_rank.values())
        # Completeness checks need the full run; races/bounds still ran.
        skipped = [
            n for n in san.report.notes if n["kind"] == "offset-check-skipped"
        ]
        assert skipped


class TestOfflineLog:
    def test_dump_and_reanalyze_round_trip(self, tmp_path):
        _, blocks = _blocks(n=4_000)
        san = ShmSan()
        with ProcessBackend(sanitize=san) as backend:
            backend.sort_blocks(blocks)
        log_path = tmp_path / "shmsan_log.json"
        san.dump_log(log_path)
        doc = json.loads(log_path.read_text())
        assert doc["schema"] == "repro.shmsan-log/1"
        assert doc["complete"] is True
        assert len(doc["accesses"]) == san.report.counts["accesses_recorded"]
        violations, _ = analyze_log(doc)
        assert violations == []

    def test_mutated_log_reanalyzes_red(self, tmp_path):
        _, blocks = _blocks(n=8_000)
        san = ShmSan()
        with ProcessBackend(
            sanitize=san, mutate="offset-off-by-one", mutate_rank=1
        ) as backend:
            backend.sort_blocks(blocks)
        log_path = tmp_path / "shmsan_log.json"
        san.dump_log(log_path)
        violations, _ = analyze_log(json.loads(log_path.read_text()))
        assert any(v.kind == "offset-mismatch" for v in violations)


class TestCli:
    """The ``python -m repro.parallel.shmsan`` entry CI gates on."""

    def _run(self, *extra, cwd=REPO):
        return subprocess.run(
            [sys.executable, "-m", "repro.parallel.shmsan",
             "--golden", str(GOLDEN_PATH), "--ranks", "4", "--keys", "6000",
             *extra],
            cwd=cwd,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )

    def test_golden_replay_is_green(self, tmp_path):
        report_path = tmp_path / "shmsan_report.json"
        proc = self._run("--report-out", str(report_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "bit-identical and violation-free" in proc.stdout
        report = json.loads(report_path.read_text())
        assert report["schema"] == "repro.shmsan-report/1"
        assert report["ok"] is True
        assert report["oracle_bit_identical"] is True

    def test_mutation_probe_is_red(self):
        proc = self._run("--mutate", "offset-off-by-one")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "DETECTED" in proc.stdout
        assert "offset-mismatch" in proc.stdout

    def test_relet_pinned_probe_holds_a_result_to_relet(self):
        # One job pins nothing worth re-letting: the probe runs two.
        proc = self._run("--mutate", "relet-pinned")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "DETECTED" in proc.stdout
        assert "aliases live lease 'pinned-keys'" in proc.stdout

    def test_held_stream_crosses_the_pin_budget_green(self):
        proc = self._run("--jobs", "8")  # the CLI holds every run to the end
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "8 sanitized golden job(s) bit-identical" in proc.stdout

    def test_log_out_then_offline_analysis(self, tmp_path):
        log_path = tmp_path / "log.json"
        proc = self._run("--log-out", str(log_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        offline = subprocess.run(
            [sys.executable, "-m", "repro.parallel.shmsan",
             "--log", str(log_path)],
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert offline.returncode == 0, offline.stdout + offline.stderr
        assert "0 violation(s)" in offline.stdout

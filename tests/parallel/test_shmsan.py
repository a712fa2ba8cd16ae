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
from repro.faults import FaultPlan, inject_faults
from repro.parallel import (
    MUTATIONS,
    ProcessBackend,
    ShmSan,
    WorkerCrashedError,
    active_shm_sanitizer,
    shm_sanitize,
)
from repro.parallel.shmsan import analyze_log

REPO = pathlib.Path(__file__).resolve().parents[2]

RACE_KINDS = {"write-write-race", "read-write-race"}


def _blocks(p=4, n=20_000, seed=7):
    data = np.random.default_rng(seed).integers(0, 1 << 40, n).astype(np.int64)
    return data, list(partition_input(data, p)[0])


#: Keys of each word-path dtype that pack over their staged block: wide
#: int64 keys (int64 words), and exact float64 and float32 keys, integral
#: and without −0.0 or NaN payloads, whose stored codes take int32 words.
STAGED_PACKS = {
    "int64": lambda rng, n: rng.integers(0, 1 << 40, n).astype(np.int64),
    "float64": lambda rng, n: rng.integers(-8, 8, n).astype(np.float64),
    "float32": lambda rng, n: rng.integers(-8, 8, n).astype(np.float32),
}


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
        with shm_sanitize() as san, ProcessBackend() as backend:
            run = backend.sort_blocks(blocks)
        _assert_bit_identical(reference, run)
        assert _paths(run) == {"through"}  # sanitized jobs take the word path too
        assert san.report.ok, san.report.summary()
        assert san.report.runs == 1
        # input + keys + index leases (for 8-byte keys the word stream is
        # the key lease itself) + the control region's slots, all four
        # ranks flushing.
        assert san.report.counts["leases_tracked"] == 4
        assert san.report.counts["accesses_recorded"] > 4

    def test_sanitizer_accumulates_across_sorts(self):
        _, blocks = _blocks(n=4_000)
        san = ShmSan()
        with shm_sanitize(san), ProcessBackend() as backend:
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

    def test_unsanitized_backend_records_nothing(self):
        _, blocks = _blocks(n=4_000)
        with ProcessBackend() as backend:
            backend.sort_blocks(blocks)
            assert active_shm_sanitizer() is None


class TestMutations:
    """Each seeded invariant break must be caught, with usable diagnostics."""

    def test_mutation_names_are_validated(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            ShmSan(mutate="not-a-mutation")

    def test_offset_off_by_one_reports_mismatch_with_coordinates(self):
        _, blocks = _blocks()
        with shm_sanitize(ShmSan("offset-off-by-one", 1)) as san, ProcessBackend() as backend:
            backend.sort_blocks(blocks)
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
        with shm_sanitize(ShmSan("skip-merge-barrier", 2)) as san, ProcessBackend() as backend:
            backend.sort_blocks(blocks)
        races = [v for v in san.report.violations if v.kind in RACE_KINDS]
        assert races, san.report.summary()
        # The unordered pair always involves the rank that skipped the
        # barrier; the report pinpoints the overlapping byte ranges.
        for v in races:
            assert 2 in (v.details["a"]["rank"], v.details["b"]["rank"])
            assert v.details["overlap_bytes"][0] < v.details["overlap_bytes"][1]

    def test_read_slot_before_barrier_reports_a_race_on_the_control_slots(self):
        _, blocks = _blocks()
        with shm_sanitize(ShmSan("read-slot-before-barrier", 3)) as san, ProcessBackend() as backend:
            backend.sort_blocks(blocks)
        races = [v for v in san.report.violations if v.kind == "read-write-race"]
        assert races, san.report.summary()
        for v in races:
            assert {v.details["a"]["label"], v.details["b"]["label"]} == {"slot-read", "slot-write"}
            reader = next(s for s in (v.details["a"], v.details["b"]) if s["label"] == "slot-read")
            assert reader["rank"] == 3

    @pytest.mark.parametrize("mutation", ["skip-merge-barrier", "read-slot-before-barrier"])
    def test_a_mutated_job_leaves_the_pool_clean_for_the_next(self, mutation):
        """The control region carries nothing from a mutated job into the
        next: a clean job on the same generation is bit-identical to the
        oracle and adds no finding."""
        _, blocks = _blocks()
        reference = local_sample_sort(blocks)
        with ProcessBackend() as backend:
            with shm_sanitize(ShmSan(mutation, 2)) as san:
                backend.sort_blocks(blocks)
            assert san.report.violations, f"mutation {mutation!r} escaped ShmSan"
            pids = backend.worker_pids
            with shm_sanitize() as clean:
                run = backend.sort_blocks(blocks)
            assert backend.worker_pids == pids
        assert clean.report.ok, clean.report.summary()
        _assert_bit_identical(reference, run)

    @pytest.mark.parametrize("dtype", STAGED_PACKS)
    def test_pack_past_block_reports_a_race_in_the_next_rank_block(self, dtype):
        data = STAGED_PACKS[dtype](np.random.default_rng(7), 20_000)
        blocks = list(partition_input(data, 4)[0])
        with shm_sanitize(ShmSan("pack-past-block", 1)) as san, ProcessBackend() as backend:
            run = backend.sort_blocks(blocks)
        word_bytes = run.reports[0].bytes_per_key
        assert _paths(run) == {"through"} and word_bytes == (8 if dtype == "int64" else 4)
        races = [v for v in san.report.violations if v.kind in RACE_KINDS]
        assert races and {v.kind for v in races} == {"write-write-race"}, san.report.summary()
        # Rank 1's extra word is the first of rank 2's staged block, which
        # rank 2 packs in the same epoch: one word's overlap, in step 1.
        for v in races:
            a, b = v.details["a"], v.details["b"]
            assert {a["rank"], b["rank"]} == {1, 2}
            assert {a["label"], b["label"]} == {"step-1-pack"}
            lo, hi = v.details["overlap_bytes"]
            assert hi - lo == word_bytes

    def test_double_lease_reports_aliasing(self):
        _, blocks = _blocks(n=4_000)
        with shm_sanitize(ShmSan("double-lease")) as san, ProcessBackend() as backend:
            backend.sort_blocks(blocks)
        aliased = [
            v for v in san.report.violations if v.kind == "overlapping-lease"
        ]
        assert aliased, san.report.summary()
        assert aliased[0].rank == PARENT_RANK
        assert "double-lease-alias" in aliased[0].details["roles"]

    def test_stale_view_reports_use_after_release(self):
        _, blocks = _blocks(n=4_000)
        with shm_sanitize(ShmSan("stale-view")) as san, ProcessBackend() as backend:
            backend.sort_blocks(blocks)
        stale = [v for v in san.report.violations if v.kind == "stale-view"]
        assert stale, san.report.summary()
        assert stale[0].rank == PARENT_RANK
        assert stale[0].details["label"] == "stale-input-probe"

    def test_relet_pinned_reports_the_result_the_job_overwrites(self, tmp_path):
        _, blocks = _blocks(n=4_000)
        with shm_sanitize(ShmSan("relet-pinned")) as san, ProcessBackend() as backend:
            held = backend.sort_blocks(blocks)
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
        ]
        assert [v.details["segment"] for v in aliased] == [
            segment_of[role] for role in ("keys", "index")
        ]
        for v in aliased:
            assert v.details["a_bytes"] == v.details["b_bytes"]
        del held

    def test_pinned_leases_stay_live_only_as_long_as_the_result(self):
        """Held: later jobs get other bytes.  Dropped: same bytes, clean."""
        _, blocks = _blocks(n=4_000)
        san = ShmSan()
        with shm_sanitize(san), ProcessBackend() as backend:
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
        with shm_sanitize(ShmSan(mutation)) as san, ProcessBackend() as backend:
            held = backend.sort_blocks(blocks)  # relet-pinned needs a pin to ignore
            run = backend.sort_blocks(blocks)
        del held
        # The worker-side mutations act in steps 1, 5 and 6 of the word path.
        assert _paths(run) == {"through"}
        assert not san.report.ok, f"mutation {mutation!r} escaped ShmSan"

    @pytest.mark.parametrize(
        "mutation, kinds",
        [("offset-off-by-one", {"offset-mismatch"}), ("skip-merge-barrier", RACE_KINDS)],
        ids=["offset-off-by-one", "skip-merge-barrier"],
    )
    def test_exchange_mutations_are_caught_on_both_keys_and_perm_streams(
        self, mutation, kinds, tmp_path
    ):
        # Full-mantissa float64 keys miss the key frame: keys and the
        # permutation cross the exchange as two streams, and the accesses
        # the data path declares must cover both.
        data = np.random.default_rng(5).normal(size=8_000)
        blocks = list(partition_input(data, 4)[0])
        with shm_sanitize(ShmSan(mutation, 1)) as san, ProcessBackend() as backend:
            run = backend.sort_blocks(blocks)
        san.dump_log(tmp_path / "log.json")
        doc = json.loads((tmp_path / "log.json").read_text())
        assert "through" not in _paths(run)
        assert doc["exchanged"] == ["keys", "index"]
        streams = {lease["segment"] for lease in doc["leases"] if lease["role"] in doc["exchanged"]}
        caught = {v.details["segment"] for v in san.report.violations if v.kind in kinds}
        assert len(streams) == 2 and caught == streams, san.report.summary()


class TestWordPathStreams:
    """Which streams a job exchanged is the job's to say, not the analyzer's."""

    def _sanitized(self, data, tmp_path, p=4, san=None):
        blocks = list(partition_input(data, p)[0])
        san = san or ShmSan()
        with shm_sanitize(san), ProcessBackend() as backend:
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
        assert {"exchange-write", "merge-read", "merge-write", "index-write", "key-write"} <= labels
        assert analyze_log(doc)[0] == []
        words = next(lease for lease in doc["leases"] if lease["role"] == "words")
        writes = [a for a in doc["accesses"] if a[7] == "exchange-write"]
        assert writes and {a[0] for a in writes} == {words["segment"]}
        # The index lease is output-only now; saying otherwise is an error.
        doc["exchanged"] = ["keys", "index"]
        assert {v.kind for v in analyze_log(doc)[0]} == {"missing-exchange-write"}

    def test_offset_mutation_is_red_on_the_word_segment(self, tmp_path):
        data = np.random.default_rng(3).integers(0, 1 << 30, 8_000).astype(np.int32)
        run, san, doc, _ = self._sanitized(data, tmp_path, san=ShmSan("offset-off-by-one", 1))
        assert _paths(run) == {"through"}
        words = next(lease for lease in doc["leases"] if lease["role"] == "words")
        mismatches = [v for v in san.report.violations if v.kind == "offset-mismatch"]
        assert mismatches and {v.details["segment"] for v in mismatches} == {words["segment"]}
        assert {v.rank for v in mismatches} == {1}

    def test_narrow_frame_exchanges_int32_words_through_the_index_lease(self, tmp_path):
        # [0, 1000) in 8,000 keys: 10 code + 13 position bits, int32 words.
        data = np.random.default_rng(6).integers(0, 1000, 8_000)
        run, san, doc, labels = self._sanitized(data, tmp_path)
        assert _paths(run) == {"through"}
        assert san.report.ok, san.report.summary()
        assert san.report.counts["leases_tracked"] == 4  # no word segment of its own
        assert doc["exchanged"] == ["index"]
        assert {"exchange-write", "merge-read", "merge-write", "index-write", "key-write"} <= labels
        index = next(lease for lease in doc["leases"] if lease["role"] == "index")
        writes = [a for a in doc["accesses"] if a[7] == "exchange-write"]
        assert writes and {a[0] for a in writes} == {index["segment"]}
        reference = local_sample_sort(list(partition_input(data, 4)[0]))
        for out, keys, prov in zip(run.outputs, reference.per_processor, reference.provenance):
            assert out.keys.tobytes() == keys.tobytes()
            assert out.provenance.origin_index.tobytes() == prov.origin_index.tobytes()

    def test_offset_mutation_is_red_on_the_narrow_index_segment(self, tmp_path):
        data = np.random.default_rng(6).integers(0, 1000, 8_000)
        run, san, doc, _ = self._sanitized(data, tmp_path, san=ShmSan("offset-off-by-one", 1))
        assert _paths(run) == {"through"}
        index = next(lease for lease in doc["leases"] if lease["role"] == "index")
        mismatches = [v for v in san.report.violations if v.kind == "offset-mismatch"]
        assert mismatches and {v.details["segment"] for v in mismatches} == {index["segment"]}
        assert {v.rank for v in mismatches} == {1}

    def test_float_refill_reads_the_input_lease_and_stays_clean(self, tmp_path):
        # −0.0 and negative NaNs: the frame refills, so the words take the
        # workers' scratch and the staged input stays the refill source.
        rng = np.random.default_rng(4)
        data = np.floor(rng.exponential(50, 8_000)) * rng.choice([-1.0, 1.0], 8_000)
        data[::7], data[3::11] = -0.0, -np.nan
        run, san, doc, labels = self._sanitized(data, tmp_path)
        assert _paths(run) == {"through"}
        assert san.report.ok, san.report.summary()
        assert doc["exchanged"] == ["keys"]  # 8-byte keys decode in place
        assert "refill-read" in labels and "step-1-pack" not in labels
        reference = local_sample_sort(list(partition_input(data, 4)[0]))
        for out, expected in zip(run.outputs, reference.per_processor):
            assert out.keys.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "dtype, high, word_bytes",
        [("int64", 1 << 40, 8), ("int64", 1_000, 4), ("float64", 64, 4), ("float32", 64, 4)],
    )
    def test_int_keys_log_their_pack_over_their_own_staged_block(
        self, tmp_path, dtype, high, word_bytes
    ):
        # Int keys and exact float keys alike: the words go over the block.
        data = np.random.default_rng(8).integers(0, high, 8_000).astype(dtype)
        run, san, doc, labels = self._sanitized(data, tmp_path)
        assert _paths(run) == {"through"} and run.reports[0].bytes_per_key == word_bytes
        assert san.report.ok, san.report.summary()
        assert "refill-read" not in labels
        source = next(lease for lease in doc["leases"] if lease["role"] == "input")
        packs = sorted((a[4], a[1], a[2], a[3], a[5]) for a in doc["accesses"] if a[7] == "step-1-pack")
        base, key_bytes = source["byte_lo"], data.itemsize
        # One write per rank, in step 1, over the first len(block) words
        # of its own slice: half the slice for int32 words of 8-byte keys.
        assert packs == [
            (rank, base + 2_000 * key_bytes * rank, base + 2_000 * (key_bytes * rank + word_bytes), "w", 1)
            for rank in range(4)
        ]
        assert all(a[0] == source["segment"] for a in doc["accesses"] if a[7] == "step-1-pack")

    def test_frame_miss_exchanges_keys_and_indices_as_before(self, tmp_path):
        data = np.random.default_rng(5).normal(size=8_000)  # full-mantissa float64
        run, san, doc, labels = self._sanitized(data, tmp_path)
        assert _paths(run) == {"stable"}
        assert san.report.ok, san.report.summary()
        assert doc["exchanged"] == ["keys", "index"]
        assert "index-write" not in labels and "refill-read" not in labels
        assert "step-1-pack" not in labels


class TestCrashedRuns:
    def test_crash_flushes_partial_log_and_notes_it(self):
        _, blocks = _blocks()
        with (
            inject_faults(FaultPlan.from_spec("kill=2@6-merge")),
            shm_sanitize() as san,
            ProcessBackend(retry=False, timeout_seconds=30.0) as backend,
            pytest.raises(WorkerCrashedError),
        ):
            backend.sort_blocks(blocks)
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
        with shm_sanitize(san), ProcessBackend() as backend:
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
        san = ShmSan("offset-off-by-one", 1)
        with shm_sanitize(san), ProcessBackend() as backend:
            backend.sort_blocks(blocks)
        log_path = tmp_path / "shmsan_log.json"
        san.dump_log(log_path)
        violations, _ = analyze_log(json.loads(log_path.read_text()))
        assert any(v.kind == "offset-mismatch" for v in violations)


class TestCli:
    """The ``python -m repro.parallel.shmsan`` entry CI gates on."""

    def _run(self, *extra, cwd=REPO, golden="p16"):
        return subprocess.run(
            [sys.executable, "-m", "repro.parallel.shmsan",
             "--golden", golden, "--ranks", "4", "--keys", "6000",
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

    def test_float_golden_replays_its_float_keys(self, tmp_path):
        # The f64 golden's keys miss the frame: keys + perm, input intact.
        report_path, log_path = tmp_path / "shmsan_report.json", tmp_path / "log.json"
        proc = self._run(
            "--report-out", str(report_path), "--log-out", str(log_path), golden="p16_f64"
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(report_path.read_text())
        assert report["workload"]["dtype"] == "float64"
        assert report["ok"] is True and report["oracle_bit_identical"] is True
        log = json.loads(log_path.read_text())
        assert log["exchanged"] == ["keys", "index"]
        assert "step-1-pack" not in {access[7] for access in log["accesses"]}

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

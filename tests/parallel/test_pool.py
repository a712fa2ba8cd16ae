"""Persistent worker-pool semantics: one generation of rank processes
serves a stream of jobs bit-identically to the oracle, with warm arenas,
per-job epoch reset, crash-respawn recovery, and exact splitter-cache
reuse."""

import gc
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core.api import DistributedSorter, partition_input
from repro.core.local_backend import local_sample_sort
from repro.obs.context import capture
from repro.obs.report import RunReport
from repro.parallel import (
    PoolClosedError,
    ProcessBackend,
    RealFaultPlan,
    RetryPolicy,
    WorkerCrashedError,
)
from repro.parallel.backend import MAX_PINNED_RESULTS
from repro.parallel.shmsan import shm_sanitize
from repro.parallel.tracing import use_progress
from repro.workloads import right_skewed

REPO = pathlib.Path(__file__).resolve().parents[2]


def _blocks(n, p, seed=7, kind="uniform", dtype=np.int64):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        data = rng.integers(0, 1 << 40, n).astype(dtype)
    elif kind == "duplicate_heavy":
        data = rng.integers(0, 50, n).astype(dtype)
    elif kind == "near_sorted":
        data = np.sort(rng.integers(0, 1 << 30, n).astype(dtype))
        data[: n // 50], data[-(n // 50):] = (
            data[-(n // 50):].copy(),
            data[: n // 50].copy(),
        )
    else:  # pragma: no cover - test bug
        raise ValueError(kind)
    return list(partition_input(data, p)[0])


def _assert_bit_identical(reference, run):
    for rank, out in enumerate(run.outputs):
        ref_keys = reference.per_processor[rank]
        assert out.keys.dtype == ref_keys.dtype
        np.testing.assert_array_equal(out.keys, ref_keys)
    np.testing.assert_array_equal(run.splitters, reference.splitters)


def _assert_bytes_equal_to_oracle(run, blocks):
    """Keys and both provenance columns, as bytes, against the oracle."""
    reference = local_sample_sort(blocks)
    for out, keys, prov in zip(
        run.outputs, reference.per_processor, reference.provenance
    ):
        assert out.keys.tobytes() == keys.tobytes()
        assert out.provenance.origin_proc.tobytes() == prov.origin_proc.tobytes()
        assert out.provenance.origin_index.tobytes() == prov.origin_index.tobytes()


def _shm_entries():
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _is_pinned(run):
    """Every array of the result is a view of shared memory, not a copy."""
    arrays = [a for out in run.outputs for a in (
        out.keys, out.provenance.origin_proc, out.provenance.origin_index
    )]
    owned = {a.flags.owndata for a in arrays}
    assert len(owned) == 1
    return owned == {False}


class TestPoolStreaming:
    def test_multi_job_bit_identity_through_one_generation(self):
        """>= 3 jobs of different sizes/dtypes/distributions, one pool."""
        jobs = [
            _blocks(20_000, 4, seed=1, kind="uniform"),
            _blocks(9_000, 4, seed=2, kind="duplicate_heavy"),
            _blocks(30_000, 4, seed=3, kind="near_sorted"),
            _blocks(12_000, 4, seed=4, kind="uniform", dtype=np.uint32),
        ]
        with ProcessBackend() as backend:
            first_pids = None
            for i, blocks in enumerate(jobs):
                reference = local_sample_sort(blocks)
                run = backend.sort_blocks(blocks)
                _assert_bit_identical(reference, run)
                assert run.job_id == i
                if first_pids is None:
                    first_pids = backend.worker_pids
                else:
                    # Same generation served every job: no respawn happened.
                    assert backend.worker_pids == first_pids
            stats = backend.stats
        assert stats["pool_spawns"] == 1
        assert stats["respawns"] == 0
        assert stats["jobs_completed"] == len(jobs)

    def test_arena_and_attachments_stay_warm_across_jobs(self):
        blocks = _blocks(20_000, 4)
        with ProcessBackend() as backend:
            backend.sort_blocks(blocks)
            allocations = backend.arena.allocations
            for _ in range(2):
                backend.sort_blocks(blocks)
            # Steady state: no new shm segments parent-side (workers reuse
            # their name->mapping cache, which this stability implies).
            assert backend.arena.allocations == allocations

    def test_pool_resizes_for_a_different_processor_count(self):
        with ProcessBackend() as backend:
            backend.sort_blocks(_blocks(8_000, 2))
            assert backend.pool_size == 2
            run = backend.sort_blocks(_blocks(8_000, 4))
            assert backend.pool_size == 4
            assert len(run.outputs) == 4
            assert backend.stats["pool_spawns"] == 2

    def test_closed_pool_refuses_jobs(self):
        backend = ProcessBackend()
        backend.sort_blocks(_blocks(4_000, 2))
        backend.close()
        with pytest.raises(PoolClosedError):
            backend.sort_blocks(_blocks(4_000, 2))

    def test_double_close_is_a_no_op(self):
        backend = ProcessBackend()
        backend.sort_blocks(_blocks(4_000, 2))
        backend.close()
        backend.close()  # idempotent: no error, no double-teardown
        with pytest.raises(PoolClosedError):
            backend.sort_blocks(_blocks(4_000, 2))

    def test_close_mid_job_drains_gracefully(self):
        """close() racing an in-flight job defers teardown to the job.

        The in-flight sort must complete bit-identically (shared memory
        is not yanked from under live workers), the deferred close must
        then actually retire the generation, and no worker process may
        outlive it.
        """
        blocks = _blocks(20_000, 4)
        reference = local_sample_sort(blocks)
        backend = ProcessBackend()
        backend.sort_blocks(blocks)  # warm the pool
        pids = [pid for pid in backend.worker_pids if pid is not None]
        closed_during = []

        def close_on_first_heartbeat(rank, step, rows):
            if not closed_during:
                closed_during.append(True)
                backend.close()

        with use_progress(close_on_first_heartbeat):
            run = backend.sort_blocks(blocks)
        _assert_bit_identical(reference, run)
        # The deferred close ran in the job's cleanup: pool retired.
        assert backend.worker_pids == []
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # ESRCH: no orphaned workers
        with pytest.raises(PoolClosedError):
            backend.sort_blocks(blocks)


class TestSplitterCache:
    def test_recurring_dataset_hits_the_cache_bit_identically(self):
        blocks = _blocks(16_000, 4)
        reference = local_sample_sort(blocks)
        with ProcessBackend() as backend:
            cold = backend.sort_blocks(blocks)
            hit = backend.sort_blocks(blocks)
            stats = backend.stats["splitter_cache"]
        assert cold.splitter_cache == "cold"
        assert hit.splitter_cache == "hit"
        assert stats["hits"] == 1 and stats["cold"] == 1
        _assert_bit_identical(reference, cold)
        _assert_bit_identical(reference, hit)

    def test_recurring_duplicate_heavy_dataset_hits(self):
        """The inputs the paper is about recur like any other: an exact
        fingerprint match is a hit however the investigator must split it."""
        blocks = list(partition_input(right_skewed(200_000, seed=7), 4)[0])
        with ProcessBackend() as backend:
            backend.sort_blocks(blocks)
            hit = backend.sort_blocks(blocks)
            resampled = backend.sort_blocks(blocks, force_resample=True)
        assert hit.splitter_cache == "hit"
        assert resampled.splitter_cache == "fallback-forced"
        assert len(set(hit.splitters.tolist())) < 3  # a tie spans splitters
        for run in (hit, resampled):
            _assert_bit_identical(local_sample_sort(blocks), run)
            _assert_bytes_equal_to_oracle(run, blocks)

    def test_different_distribution_misses(self):
        with ProcessBackend() as backend:
            backend.sort_blocks(_blocks(16_000, 4, kind="uniform"))
            run = backend.sort_blocks(
                _blocks(16_000, 4, kind="duplicate_heavy")
            )
        assert run.splitter_cache == "miss"

    def test_forced_fallback_resamples_bit_identically(self):
        blocks = _blocks(16_000, 4)
        reference = local_sample_sort(blocks)
        with ProcessBackend() as backend:
            backend.sort_blocks(blocks)
            run = backend.sort_blocks(blocks, force_resample=True)
            _assert_bit_identical(reference, run)
            stats = backend.stats["splitter_cache"]
        assert run.splitter_cache == "fallback-forced"
        assert stats["fallbacks"] == 1


class TestCrashRecovery:
    def test_crash_mid_stream_respawns_and_continues(self):
        blocks = _blocks(20_000, 4)
        reference = local_sample_sort(blocks)
        with ProcessBackend(
            chaos=RealFaultPlan.from_spec("kill=2@5-exchange:1"),
            retry=False,
            timeout_seconds=30.0,
        ) as backend:
            backend.sort_blocks(blocks)
            doomed_pids = backend.worker_pids
            with pytest.raises(WorkerCrashedError) as excinfo:
                backend.sort_blocks(blocks)
            assert excinfo.value.rank == 2
            assert excinfo.value.job_id == 1
            # The next job respawns a fresh generation and completes.
            run = backend.sort_blocks(blocks)
            _assert_bit_identical(reference, run)
            assert backend.worker_pids != doomed_pids
            stats = backend.stats
        assert stats["respawns"] == 1
        assert stats["jobs_completed"] == 2


class TestPooledObservability:
    def test_sanitized_pooled_jobs_have_no_epoch_bleed(self):
        """ShmSan sees one clean run per job — per-job epoch reset works."""
        jobs = [
            _blocks(12_000, 4, seed=s, kind=k)
            for s, k in ((1, "uniform"), (2, "duplicate_heavy"), (1, "uniform"))
        ]
        with shm_sanitize() as san:
            with ProcessBackend() as backend:
                for blocks in jobs:
                    backend.sort_blocks(blocks)
        assert san.report.runs == len(jobs)
        assert san.report.ok, san.report.summary()

    def test_traced_pooled_jobs_carry_their_job_ids(self):
        blocks = _blocks(12_000, 4)
        with capture(name="pool-trace") as cap:
            with ProcessBackend() as backend:
                run1 = backend.sort_blocks(blocks)
                run2 = backend.sort_blocks(blocks)
        assert len(cap.sessions) == 2
        assert run2.job_id == run1.job_id + 1
        for run in (run1, run2):
            assert all(r.trace.job_id == run.job_id for r in run.reports)
        report = RunReport.from_backend_run(run2, tracer=cap.sessions[-1].tracer)
        breakdown = report.step_breakdown()
        assert len(breakdown) == 6
        assert sum(breakdown.values()) > 0.0


class TestSorterPool:
    def test_sort_many_streams_through_one_pool(self):
        rng = np.random.default_rng(3)
        datasets = [
            rng.integers(0, 1 << 40, n).astype(np.int64)
            for n in (9_000, 4_000, 15_000)
        ]
        sorter = DistributedSorter(num_processors=4, backend="process")
        with sorter.pool() as pool:
            results = pool.sort_many(datasets)
            stats = pool.stats
        for data, result in zip(datasets, results):
            assert result.is_globally_sorted()
            np.testing.assert_array_equal(result.to_array(), np.sort(data))
        assert stats["pool_spawns"] == 1
        assert stats["jobs_completed"] == len(datasets)

    def test_sort_many_simnet_matches_process_pool(self):
        rng = np.random.default_rng(4)
        datasets = [rng.integers(0, 1 << 30, 6_000).astype(np.int64) for _ in range(2)]
        sim = DistributedSorter(num_processors=4).sort_many(datasets)
        real = DistributedSorter(num_processors=4, backend="process").sort_many(
            datasets
        )
        for s, r in zip(sim, real):
            for rank in range(4):
                np.testing.assert_array_equal(
                    s.per_processor[rank], r.per_processor[rank]
                )


class TestHeldResults:
    """Results are views of the job's own leases: they stay where step 6
    left them, survive later jobs and the pool, and cost bounded resources."""

    def test_results_held_past_the_budget_are_copies_and_all_stay_intact(self):
        kinds = ("uniform", "duplicate_heavy", "near_sorted")
        jobs = [
            _blocks(20_000, 4, seed=seed, kind=kinds[seed % 3])
            for seed in range(MAX_PINNED_RESULTS + 3)
        ]
        shm_before = _shm_entries()
        with ProcessBackend() as backend:
            held, footprint = [], []
            for blocks in jobs:
                held.append(backend.sort_blocks(blocks))
                footprint.append(
                    (
                        _open_fds(),
                        len(_shm_entries() - shm_before),
                        backend.arena.pooled_bytes(),
                    )
                )
            stats = backend.stats
            # Compared after the last job: no later job wrote into an
            # earlier result.
            for run, blocks in zip(held, jobs):
                _assert_bytes_equal_to_oracle(run, blocks)
        assert [_is_pinned(run) for run in held] == (
            [True] * MAX_PINNED_RESULTS + [False] * 3
        )
        assert stats["results_pinned"] == MAX_PINNED_RESULTS
        assert stats["results_copied"] == 3
        # Driver fds, /dev/shm names and pooled bytes grow with the pinned
        # results only: from the first copied job on they are flat.
        assert all(
            before < after
            for before, after in zip(
                footprint[MAX_PINNED_RESULTS - 1], footprint[MAX_PINNED_RESULTS]
            )
        )
        assert len(set(footprint[MAX_PINNED_RESULTS:])) == 1
        assert _shm_entries() == shm_before

    def test_rebinding_loop_is_zero_copy_and_allocation_flat(self):
        jobs = [_blocks(20_000, 4, seed=seed) for seed in range(6)]
        with ProcessBackend() as backend:
            r = backend.sort_blocks(jobs[0])
            r = backend.sort_blocks(jobs[1])  # the previous result is still alive
            allocations = backend.arena.allocations
            for blocks in jobs[2:]:
                r = backend.sort_blocks(blocks)
                assert _is_pinned(r)
                _assert_bytes_equal_to_oracle(r, blocks)
            assert backend.arena.allocations == allocations
            assert backend.stats["results_copied"] == 0
            assert backend.stats["results_pinned"] == len(jobs)
            # Closed loop: nothing held, so nothing stays out of the pool.
            del r
            assert backend.arena.pinned_segments == 0
            assert backend.arena.live_leases == 0

    def test_results_outlive_their_pool(self):
        blocks = _blocks(20_000, 4)
        shm_before, fds_before = _shm_entries(), _open_fds()
        backend = ProcessBackend()
        run = backend.sort_blocks(blocks)
        assert _is_pinned(run)
        backend.close()
        assert _shm_entries() == shm_before  # unlinked, whatever is held
        _assert_bytes_equal_to_oracle(run, blocks)
        del backend
        gc.collect()
        _assert_bytes_equal_to_oracle(run, blocks)
        keys = run.outputs[0].keys
        keys[:] = 0  # still mapped: writable views of memory the result owns
        assert not keys.any()
        del run, keys
        assert _open_fds() == fds_before  # the last view unmapped the segments

    def test_driver_may_exit_with_results_alive(self):
        script = (
            "import numpy as np\n"
            "from repro.core.api import partition_input\n"
            "from repro.parallel import ProcessBackend\n"
            "data = np.random.default_rng(1).integers(0, 1 << 40, 20_000)\n"
            "blocks = list(partition_input(data, 2)[0])\n"
            "with ProcessBackend() as backend:\n"
            "    held = [backend.sort_blocks(blocks) for _ in range(2)]\n"
            "keys = np.concatenate([out.keys for out in held[1].outputs])\n"
            "assert np.array_equal(keys, np.sort(data))\n"
            "print('alive', len(held))\n"
        )
        shm_before = _shm_entries()
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "alive 2\n"
        assert proc.stderr == ""  # no BufferError / "Exception ignored" noise
        assert _shm_entries() == shm_before

    def test_one_shot_sorter_and_long_streams_match_numpy(self):
        rng = np.random.default_rng(5)
        sorter = DistributedSorter(num_processors=4, backend="process")
        data = rng.integers(0, 1 << 40, 30_000).astype(np.int64)
        result = sorter.sort(data)  # its pool is closed by the time we read
        np.testing.assert_array_equal(result.to_array(), np.sort(data))
        np.testing.assert_array_equal(result.gather_values(data), np.sort(data))
        datasets = [
            rng.integers(0, 1 << 40, 5_000 + 500 * i).astype(np.int64)
            for i in range(3 * MAX_PINNED_RESULTS)
        ]
        with sorter.pool() as pool:
            results = pool.sort_many(datasets)
            stats = pool.stats
        for data, result in zip(datasets, results):
            np.testing.assert_array_equal(result.to_array(), np.sort(data))
        assert stats["results_pinned"] == MAX_PINNED_RESULTS
        assert stats["results_copied"] == 2 * MAX_PINNED_RESULTS

    @pytest.mark.parametrize(
        "spec, survivors", [("kill=1@6-merge:0", None), ("poison=2", (0, 1, 3))]
    )
    def test_recovered_jobs_return_pinned_results(self, spec, survivors):
        blocks = _blocks(20_000, 4)
        retry = RetryPolicy(backoff_seconds=0.001, backoff_cap_seconds=0.01)
        with ProcessBackend(
            chaos=RealFaultPlan.from_spec(spec, seed=7), retry=retry
        ) as backend:
            run = backend.sort_blocks(blocks)
            later = backend.sort_blocks(_blocks(20_000, 4, seed=8))
            stats = backend.stats
        assert run.retries >= 1 and run.survivors == survivors
        assert stats["results_copied"] == 0
        if survivors is None:
            assert _is_pinned(run)
            _assert_bytes_equal_to_oracle(run, blocks)
            return
        # Degraded: compared on the plan the survivors executed, with
        # origin_proc renumbered back by _expand_degraded (a fresh array;
        # keys and origin_index are still the job's own leases).
        replanned = list(partition_input(np.concatenate(blocks), len(survivors))[0])
        reference = local_sample_sort(replanned)
        for slot, rank in enumerate(survivors):
            out = run.outputs[rank]
            assert not out.keys.flags.owndata
            assert not out.provenance.origin_index.flags.owndata
            assert out.keys.tobytes() == reference.per_processor[slot].tobytes()
            prov = reference.provenance[slot]
            assert out.provenance.origin_index.tobytes() == prov.origin_index.tobytes()
            np.testing.assert_array_equal(
                out.provenance.origin_proc, np.asarray(survivors)[prov.origin_proc]
            )
        assert run.outputs[2] is None
        del later

    def test_a_failed_job_leaves_nothing_pinned(self):
        blocks = _blocks(20_000, 4)
        with ProcessBackend(
            chaos=RealFaultPlan.from_spec("kill=2@6-merge:1"),
            retry=False,
            timeout_seconds=30.0,
        ) as backend:
            backend.sort_blocks(blocks)  # result dropped: closed loop
            with pytest.raises(WorkerCrashedError):
                backend.sort_blocks(blocks)
            assert backend.arena.pinned_segments == 0
            assert backend.arena.live_leases == 0
            allocations = backend.arena.allocations
            run = backend.sort_blocks(blocks)
            _assert_bytes_equal_to_oracle(run, blocks)
            assert backend.arena.allocations == allocations
            assert backend.stats["results_pinned"] == 2

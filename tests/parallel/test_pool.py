"""Persistent worker-pool semantics: one generation of rank processes
serves a stream of jobs bit-identically to the oracle, with warm arenas,
per-job epoch reset, crash-respawn recovery, and exact splitter-cache
reuse."""

import os

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
    WorkerCrashedError,
)
from repro.parallel.shmsan import shm_sanitize


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

        backend._progress = close_on_first_heartbeat
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

    def test_cache_disabled_stays_cold(self):
        blocks = _blocks(16_000, 4)
        with ProcessBackend(splitter_cache=False) as backend:
            backend.sort_blocks(blocks)
            run = backend.sort_blocks(blocks)
        assert run.splitter_cache == "cold"


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

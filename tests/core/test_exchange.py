"""Tests for step 5: the asynchronous all-to-all redistribution."""

import numpy as np
import pytest

from repro.core import exchange_partitions
from repro.core.steps import partition_block
from repro.pgxd import PgxdConfig
from repro.simnet import NetworkModel, Simulator


def run_exchange(per_rank_keys, splitters, config=None):
    config = config or PgxdConfig()
    size = len(per_rank_keys)
    sim = Simulator(size, NetworkModel())

    def program(proc):
        keys = np.sort(np.asarray(per_rank_keys[proc.rank]))
        perm = np.argsort(np.asarray(per_rank_keys[proc.rank]), kind="stable")
        part = partition_block(keys, np.asarray(splitters), size, True)
        result = yield from exchange_partitions(proc, keys, perm, part, config)
        return result

    sim.add_program(program)
    metrics = sim.run()
    return sim.results(), metrics


class TestExchange:
    def test_keys_routed_by_splitter_ranges(self):
        per_rank = [[1, 15, 25], [2, 12, 28], [3, 18, 22]]
        results, _ = run_exchange(per_rank, [10, 20])
        # Rank 0 receives all keys < 10, rank 1 keys in [10,20), rank 2 rest.
        all0 = np.sort(np.concatenate(results[0].key_runs))
        all1 = np.sort(np.concatenate(results[1].key_runs))
        all2 = np.sort(np.concatenate(results[2].key_runs))
        np.testing.assert_array_equal(all0, [1, 2, 3])
        np.testing.assert_array_equal(all1, [12, 15, 18])
        np.testing.assert_array_equal(all2, [22, 25, 28])

    def test_runs_arrive_sorted(self):
        rng = np.random.default_rng(5)
        per_rank = [rng.integers(0, 100, 200) for _ in range(4)]
        results, _ = run_exchange(per_rank, [25, 50, 75])
        for res in results:
            for run in res.key_runs:
                assert np.all(np.diff(run) >= 0)

    def test_counts_matrix_consistent(self):
        rng = np.random.default_rng(6)
        per_rank = [rng.integers(0, 100, 100) for _ in range(3)]
        results, _ = run_exchange(per_rank, [33, 66])
        for r, res in enumerate(results):
            np.testing.assert_array_equal(res.counts_matrix, results[0].counts_matrix)
            got = sum(len(run) for run in res.key_runs)
            assert got == res.received_total(r)
        assert results[0].counts_matrix.sum() == 300

    def test_index_runs_align_with_key_runs(self):
        rng = np.random.default_rng(7)
        per_rank = [rng.integers(0, 50, 80) for _ in range(3)]
        results, _ = run_exchange(per_rank, [20, 40])
        for res in results:
            for src, (krun, irun) in enumerate(zip(res.key_runs, res.index_runs)):
                assert len(krun) == len(irun)
                original = np.asarray(per_rank[src])
                np.testing.assert_array_equal(original[irun], krun)

    def test_empty_partitions(self):
        # All keys below the first splitter: ranks 1,2 receive nothing.
        per_rank = [[1, 2], [3], [0]]
        results, _ = run_exchange(per_rank, [100, 200])
        assert sum(len(r) for r in results[1].key_runs) == 0
        assert sum(len(r) for r in results[2].key_runs) == 0
        assert sum(len(r) for r in results[0].key_runs) == 4

    def test_multi_chunk_transfers(self):
        cfg = PgxdConfig(read_buffer_bytes=64)  # tiny buffers -> many chunks
        rng = np.random.default_rng(8)
        per_rank = [rng.integers(0, 90, 300) for _ in range(3)]
        results, metrics = run_exchange(per_rank, [30, 60], config=cfg)
        total = sum(sum(len(r) for r in res.key_runs) for res in results)
        assert total == 900
        # Keys + index chunks with 8-per-chunk granularity: many messages.
        assert metrics.messages > 50

    def test_async_sends_overlap(self):
        """Async messaging must not be slower than blocking sends."""
        rng = np.random.default_rng(9)
        per_rank = [rng.integers(0, 100, 20_000) for _ in range(4)]
        _, m_async = run_exchange(per_rank, [25, 50, 75], PgxdConfig(async_messaging=True))
        _, m_sync = run_exchange(per_rank, [25, 50, 75], PgxdConfig(async_messaging=False))
        assert m_async.makespan <= m_sync.makespan

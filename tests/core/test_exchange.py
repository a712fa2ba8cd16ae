"""Tests for step 5: the asynchronous all-to-all redistribution."""

from typing import NamedTuple

import numpy as np
import pytest

from repro.core import exchange_partitions
from repro.core.datapath import lay_out, local_sort
from repro.core.splitters import splitter_array
from repro.core.steps import partition_block
from repro.pgxd import PgxdConfig
from repro.simnet import NetworkModel, Simulator


class Received(NamedTuple):
    """One rank's step-5 outcome once step 6 landed it: one key run and one
    index run per source, views of the rank's region of the streams."""

    counts_matrix: np.ndarray
    key_runs: list
    index_runs: list


def landed(result, storage, rank):
    result.land()
    counts = result.counts_matrix[:, rank]
    bounds = result.region.start + np.concatenate(([0], np.cumsum(counts)))
    spans = list(zip(bounds[:-1], bounds[1:]))
    return Received(
        result.counts_matrix,
        [storage.keys[lo:hi] for lo, hi in spans],
        [storage.index[lo:hi] for lo, hi in spans],
    )


def run_exchange(per_rank_keys, splitters, config=None):
    """Step 5 of a keys + perm job over ``per_rank_keys``, one rank each,
    landed as step 6 lands it."""
    config = config or PgxdConfig()
    size = len(per_rank_keys)
    sim = Simulator(size, NetworkModel())
    blocks = [np.asarray(keys) for keys in per_rank_keys]
    bounds = np.cumsum([0, *map(len, blocks)])
    storage = lay_out(bounds, blocks[0].dtype, lambda _r, n, dt: np.empty(n, dt), np.ndarray.view)

    def program(proc):
        path = local_sort(None, storage, proc.rank, blocks[proc.rank], None)
        # Distinct splitters, each sampled once: Figure 3a's cuts.
        part = partition_block(path.sorted_block, splitter_array(splitters, 1, 1), size, proc.rank, True)
        result = yield from exchange_partitions(proc, path, part, config)
        return result

    sim.add_program(program)
    metrics = sim.run()
    return [landed(res, storage, rank) for rank, res in enumerate(sim.results())], metrics


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
            assert got == res.counts_matrix[:, r].sum()
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


class TestSubPhaseMarks:
    def test_only_a_traced_sort_marks_the_exchange_sub_phases(self, monkeypatch):
        """The announce/send/drain Marks feed only a tracer, so an untraced
        sort yields none: its engine sees no ``Mark`` call at all."""
        from repro import distributed_sort
        from repro.obs import capture
        from repro.simnet import engine
        from repro.simnet.calls import Mark

        labels, handler = [], engine._CALL_HANDLERS[Mark]

        def counting(sim, rank, state, call):
            labels.append(call.label)
            return handler(sim, rank, state, call)

        monkeypatch.setitem(engine._CALL_HANDLERS, Mark, counting)
        keys = np.random.default_rng(3).integers(0, 1 << 40, 40_000)
        distributed_sort(keys, num_processors=16)
        assert labels == []
        with capture():
            distributed_sort(keys, num_processors=16)
        assert sum(label.startswith("exchange:") for label in labels) == 16 * 6

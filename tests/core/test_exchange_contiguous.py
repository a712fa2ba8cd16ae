"""Offset-addressed exchange reassembly: buffers, views, one dtype per stream."""

import numpy as np
import pytest

from repro.core import exchange_partitions
from repro.core.datapath import lay_out, local_sort
from repro.core.steps import partition_block
from repro.pgxd import PgxdConfig
from repro.simnet import NetworkModel, Simulator
from repro.simnet.errors import ProcessFailure


def run_exchange(per_rank_keys, splitters):
    """Step 5 of a keys + perm job; returns the results and its storage."""
    config = PgxdConfig()
    size = len(per_rank_keys)
    sim = Simulator(size, NetworkModel())
    blocks = [np.asarray(keys) for keys in per_rank_keys]
    bounds = np.cumsum([0, *map(len, blocks)])
    storage = lay_out(bounds, blocks[0].dtype, lambda _r, n, dt: np.empty(n, dt), np.ndarray.view)

    def program(proc):
        path = local_sort(None, storage, proc.rank, blocks[proc.rank], None)
        part = partition_block(path.sorted_block, np.asarray(splitters), size, True)
        result = yield from exchange_partitions(proc, path, part, config)
        return result

    sim.add_program(program)
    sim.run()
    return sim.results(), storage


class TestContiguousReassembly:
    def test_runs_are_views_into_one_stream_buffer(self):
        rng = np.random.default_rng(21)
        per_rank = [rng.integers(0, 100, 150) for _ in range(4)]
        results, _ = run_exchange(per_rank, [25, 50, 75])
        for res in results:
            assert res.key_buffer is not None and res.index_buffer is not None
            for run, idx in zip(res.key_runs, res.index_runs):
                if len(run):
                    assert np.shares_memory(run, res.key_buffer)
                    assert np.shares_memory(idx, res.index_buffer)

    def test_run_offsets_delimit_each_source_region(self):
        rng = np.random.default_rng(22)
        per_rank = [rng.integers(0, 100, 120) for _ in range(3)]
        results, _ = run_exchange(per_rank, [40, 70])
        for rank, res in enumerate(results):
            expected = np.concatenate(
                ([0], np.cumsum(res.counts_matrix[:, rank]))
            )
            np.testing.assert_array_equal(res.run_offsets, expected)
            bounds = res.run_offsets
            for src, run in enumerate(res.key_runs):
                np.testing.assert_array_equal(
                    run, res.key_buffer[bounds[src] : bounds[src + 1]]
                )

    def test_runs_land_in_the_job_streams_at_the_rank_region(self):
        rng = np.random.default_rng(23)
        per_rank = [rng.integers(0, 100, 80) for _ in range(3)]
        results, storage = run_exchange(per_rank, [33, 66])
        base = 0
        for rank, res in enumerate(results):
            # Every rank below this one receives first; nothing is staged.
            total = int(res.counts_matrix[:, rank].sum())
            assert np.shares_memory(res.key_buffer, storage.keys)
            assert np.shares_memory(res.index_buffer, storage.index)
            assert res.key_buffer.tobytes() == storage.keys[base : base + total].tobytes()
            assert res.index_buffer.tobytes() == storage.index[base : base + total].tobytes()
            base += total
        assert base == len(storage.keys)


class TestOneDtypePerStream:
    def test_other_dtype_sender_is_rejected(self):
        # int64 chunks written into an int32 stream would be cast silently
        # by concatenate(out=); callers promote first (the API does).
        per_rank = [
            np.array([1, 40, 80], dtype=np.int32),
            np.array([2, 41, 81], dtype=np.int64),
            np.array([3, 42, 82], dtype=np.int64),
        ]
        with pytest.raises(ProcessFailure, match="promote the blocks"):
            run_exchange(per_rank, [35, 70])

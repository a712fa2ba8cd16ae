"""Offset-addressed exchange reassembly: buffers, views, one dtype per stream."""

import numpy as np
import pytest

from repro.core import exchange_partitions
from repro.core.scratch import ScratchArena
from repro.core.steps import partition_block
from repro.pgxd import PgxdConfig
from repro.simnet import NetworkModel, Simulator
from repro.simnet.errors import ProcessFailure


def run_exchange(per_rank_keys, splitters, use_scratch=False):
    config = PgxdConfig()
    size = len(per_rank_keys)
    sim = Simulator(size, NetworkModel())
    arenas = [ScratchArena() for _ in range(size)] if use_scratch else [None] * size

    def program(proc):
        keys = np.sort(np.asarray(per_rank_keys[proc.rank]))
        perm = np.argsort(np.asarray(per_rank_keys[proc.rank]), kind="stable")
        part = partition_block(keys, np.asarray(splitters), size, True)
        result = yield from exchange_partitions(
            proc,
            keys,
            perm,
            part,
            config,
            scratch=arenas[proc.rank],
        )
        return result

    sim.add_program(program)
    sim.run()
    return sim.results(), arenas


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

    def test_scratch_arena_supplies_and_reuses_the_buffers(self):
        rng = np.random.default_rng(23)
        per_rank = [rng.integers(0, 100, 80) for _ in range(3)]
        results, arenas = run_exchange(per_rank, [33, 66], use_scratch=True)
        for res, arena in zip(results, arenas):
            # The stream buffers are live leases of arena storage.
            assert arena.live_leases > 0
            assert arena.pooled_bytes() >= res.key_buffer.nbytes
            allocations = arena.allocations
            arena.release_all()
            # A second lease of the same shape must come from the warm
            # pool — no allocator call, same underlying storage.
            again = arena.take(len(res.key_buffer), res.key_buffer.dtype)
            assert arena.allocations == allocations
            assert np.shares_memory(again, res.key_buffer)
            arena.release_all()


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

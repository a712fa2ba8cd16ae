"""Offset-addressed exchange reassembly: buffers, views, one dtype per stream."""

import numpy as np
import pytest

from repro.core import exchange_partitions
from repro.core.datapath import THROUGH, lay_out, local_sort
from repro.core.packsort import block_stats, derive_key_frame
from repro.core.splitters import splitter_array
from repro.core.steps import partition_block
from repro.pgxd import PgxdConfig
from repro.simnet import NetworkModel, Simulator
from repro.simnet.errors import ProcessFailure


def run_exchange(per_rank_keys, splitters, frame=None, storage=None):
    """Step 5 of a job over ``per_rank_keys`` (keys + perm, or words under
    ``frame``); returns each rank's ``(path, result)`` and the storage."""
    config = PgxdConfig()
    size = len(per_rank_keys)
    sim = Simulator(size, NetworkModel())
    blocks = [np.asarray(keys) for keys in per_rank_keys]
    bounds = np.cumsum([0, *map(len, blocks)])
    if storage is None:
        storage = lay_out(bounds, blocks[0].dtype, lambda _r, n, dt: np.empty(n, dt), np.ndarray.view)

    def program(proc):
        block = blocks[proc.rank]
        words = None if frame is None else np.empty(len(block), frame.word_dtype)
        path = local_sort(frame, storage, proc.rank, block, words)
        # Distinct splitters, each sampled once: Figure 3a's cuts.
        part = partition_block(path.sorted_block, splitter_array(splitters, 1, 1), size, proc.rank, True)
        result = yield from exchange_partitions(proc, path, part, config)
        return path, result

    sim.add_program(program)
    sim.run()
    return sim.results(), storage


def _streams(storage):
    """Every array of the job's storage step 5 could write, bases first."""
    return [storage.keys, storage.index, storage.words]


class TestContiguousReassembly:
    def test_runs_are_views_into_one_stream_buffer(self):
        rng = np.random.default_rng(21)
        per_rank = [rng.integers(0, 100, 150) for _ in range(4)]
        results, storage = run_exchange(per_rank, [25, 50, 75])
        for path, res in results:
            assert [stream for stream, _ in res.arrivals] == [storage.keys, storage.index]
            for (stream, chunks), (_role, _stream, payload) in zip(res.arrivals, path.streams):
                assert stream is _stream
                # Chunks are views of the senders' payloads; nothing is staged.
                assert all(not np.shares_memory(chunk, stream) for chunk in chunks)
            res.land()
            for stream, chunks in res.arrivals:
                region = stream[res.region]
                assert region.tobytes() == np.concatenate(chunks).tobytes()

    def test_run_offsets_delimit_each_source_region(self):
        rng = np.random.default_rng(22)
        per_rank = [rng.integers(0, 100, 120) for _ in range(3)]
        results, storage = run_exchange(per_rank, [40, 70])
        for rank, (_path, res) in enumerate(results):
            counts = res.counts_matrix[:, rank]
            base = int(res.counts_matrix[:, :rank].sum())
            assert res.region == slice(base, base + int(counts.sum()))
            res.land()
            bounds = base + np.concatenate(([0], np.cumsum(counts)))
            for src, keys in enumerate(per_rank):
                # The slice of the sender's sorted block cut for this rank.
                lo = int(res.counts_matrix[src, :rank].sum())
                mine = np.sort(keys, kind="stable")[lo : lo + counts[src]]
                np.testing.assert_array_equal(storage.keys[bounds[src] : bounds[src + 1]], mine)

    def test_runs_land_in_the_job_streams_at_the_rank_region(self):
        rng = np.random.default_rng(23)
        per_rank = [rng.integers(0, 100, 80) for _ in range(3)]
        results, storage = run_exchange(per_rank, [33, 66])
        base = 0
        for rank, (_path, res) in enumerate(results):
            # Every rank below this one receives first; nothing is staged.
            total = int(res.counts_matrix[:, rank].sum())
            assert res.region == slice(base, base + total)
            res.land()
            keys, index = (np.concatenate(chunks) for _, chunks in res.arrivals)
            assert keys.tobytes() == storage.keys[base : base + total].tobytes()
            assert index.tobytes() == storage.index[base : base + total].tobytes()
            base += total
        assert base == len(storage.keys)

    @pytest.mark.parametrize("frame_fits", [False, True], ids=["keys+perm", "words"])
    def test_the_event_loop_lands_no_key(self, frame_fits):
        """Step 5 writes nothing into the job's streams: over read-only
        streams it completes, and the runs appear once step 6 lands them."""
        rng = np.random.default_rng(24)
        per_rank = [rng.integers(0, 100, 90) for _ in range(3)]
        frame = None
        if frame_fits:
            stats = [block_stats(keys) for keys in per_rank]
            frame = derive_key_frame(stats, per_rank[0].dtype)
        bounds = np.cumsum([0, *map(len, per_rank)])
        storage = lay_out(bounds, np.int64, lambda _r, n, dt: np.full(n, -1, dt), np.ndarray.view)
        for array in _streams(storage):
            array.setflags(write=False)
        results, _ = run_exchange(per_rank, [33, 66], frame, storage)
        assert all((array == -1).all() for array in _streams(storage))
        assert {path.label == THROUGH for path, _ in results} == {frame_fits}
        for array in _streams(storage):
            array.setflags(write=True)
        for rank, (path, res) in enumerate(results):
            res.land()
            path.merge(res.region.start, res.region.stop, res.counts_matrix[:, rank].tolist())
        np.testing.assert_array_equal(storage.keys, np.sort(np.concatenate(per_rank)))


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

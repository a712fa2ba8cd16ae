"""SharedArena: pooling, lease/attach round trips, cross-process visibility."""

import gc
import multiprocessing
import os

import numpy as np
import pytest

from repro.parallel import SharedArena, attach
from repro.parallel.arena import MIN_SEGMENT_BYTES


def _child_square(lease, out_lease):
    """Read one lease, write element-wise squares into another."""
    src = attach(lease)
    dst = attach(out_lease)
    try:
        dst.array[:] = src.array * src.array
    finally:
        src.close()
        dst.close()


class TestLeasing:
    def test_lease_view_round_trip(self):
        with SharedArena() as arena:
            lease = arena.lease(1000, np.int64)
            view = arena.view(lease)
            view[:] = np.arange(1000)
            again = arena.view(lease)
            np.testing.assert_array_equal(again, np.arange(1000))
            assert lease.nbytes == 8000

    def test_attach_sees_parent_writes_and_vice_versa(self):
        ctx = multiprocessing.get_context()
        with SharedArena() as arena:
            lease = arena.lease(512, np.int64)
            out = arena.lease(512, np.int64)
            arena.view(lease)[:] = np.arange(512)
            proc = ctx.Process(target=_child_square, args=(lease, out))
            proc.start()
            proc.join()
            assert proc.exitcode == 0
            np.testing.assert_array_equal(arena.view(out), np.arange(512) ** 2)

    def test_zero_length_lease(self):
        with SharedArena() as arena:
            lease = arena.lease(0, np.float64)
            assert arena.view(lease).shape == (0,)

    def test_negative_length_rejected(self):
        with SharedArena() as arena:
            with pytest.raises(ValueError):
                arena.lease(-1, np.int64)

    def test_view_of_foreign_lease_rejected(self):
        with SharedArena() as arena, SharedArena() as other:
            lease = other.lease(10, np.int64)
            with pytest.raises(KeyError):
                arena.view(lease)


class TestPooling:
    def test_release_all_reuses_segments(self):
        with SharedArena() as arena:
            arena.lease(100_000, np.int64)
            arena.lease(100_000, np.int32)
            allocs = arena.allocations
            assert allocs == 2
            for _ in range(5):
                arena.release_all()
                arena.lease(100_000, np.int64)
                arena.lease(100_000, np.int32)
            assert arena.allocations == allocs

    def test_small_leases_share_min_segment_sizing(self):
        with SharedArena() as arena:
            lease = arena.lease(4, np.int64)
            arena.release_all()
            # A later, larger-but-still-tiny lease fits the same segment.
            again = arena.lease(1024, np.int64)
            assert again.name == lease.name
            assert arena.allocations == 1
            assert arena.pooled_bytes() >= MIN_SEGMENT_BYTES

    def test_geometric_growth(self):
        """A miss allocates the request's power-of-two class — whatever
        the pool already holds, so the footprint follows the leases."""
        with SharedArena() as arena:
            arena.lease(MIN_SEGMENT_BYTES, np.uint8)
            arena.lease(5 * MIN_SEGMENT_BYTES, np.uint8)
            assert arena.allocations == 2
            assert arena.pooled_bytes() == (1 + 8) * MIN_SEGMENT_BYTES
            # A small request that misses is not sized after the big one.
            arena.lease(100, np.uint8)
            assert arena.pooled_bytes() == (1 + 8 + 1) * MIN_SEGMENT_BYTES
            arena.release_all()
            # Anything up to a segment's class is served from the pool,
            # smallest fit first.
            arena.lease(2 * MIN_SEGMENT_BYTES, np.uint8)
            arena.lease(MIN_SEGMENT_BYTES, np.uint8)
            arena.lease(MIN_SEGMENT_BYTES - 1, np.uint8)
            assert arena.allocations == 3

    def test_one_jobs_leases_do_not_compound(self):
        """input + keys + index + proc of one job: under 2x what was leased
        (each segment used to double the largest before it: 15x)."""
        n = 1_000_000
        with SharedArena() as arena:
            for dtype in (np.int64, np.int64, np.int32, np.int16):
                arena.lease(n, dtype)
            assert arena.pooled_bytes() < 2 * arena.leased_bytes
            arena.release_all()
            arena.lease(n, np.int32)  # a narrower job fits what is pooled
            assert arena.allocations == 4

    def test_live_lease_counter(self):
        with SharedArena() as arena:
            arena.lease(10, np.int64)
            arena.lease(10, np.int64)
            assert arena.live_leases == 2
            arena.release_all()
            assert arena.live_leases == 0


class TestPinning:
    def test_pinned_segment_is_out_of_the_pool_until_its_views_die(self):
        with SharedArena() as arena:
            lease = arena.lease(1000, np.int64)
            other = arena.lease(1000, np.int64)
            root = arena.pin(lease)
            root[:] = np.arange(1000)
            part = root[10:20].view(np.int32)[::2]  # any view of a view
            del root
            arena.release_all()
            assert arena.pinned_segments == arena.live_leases == 1
            assert arena.leased_bytes == arena.pinned_bytes == 8000
            again = [arena.lease(1000, np.int64) for _ in range(2)]
            assert lease.name not in {a.name for a in again}
            assert other.name in {a.name for a in again}
            arena.view(again[0])[:] = -1
            arena.view(again[1])[:] = -1
            np.testing.assert_array_equal(part, np.arange(10, 20))
            del part  # the last view: back in the pool, no unmap
            assert arena.pinned_segments == 0
            arena.release_all()
            names = {arena.lease(1000, np.int64).name for _ in range(3)}
            assert lease.name in names
            assert arena.allocations == 3

    def test_close_unlinks_a_pinned_segment_but_leaves_it_mapped(self):
        from multiprocessing import shared_memory

        def fds():
            return len(os.listdir("/proc/self/fd"))

        gc.collect()  # earlier tests' cyclic garbage may hold fds
        before = fds()
        arena = SharedArena()
        lease = arena.lease(100_000, np.int64)
        arena.lease(100_000, np.int64)
        part = arena.pin(lease)[5:]
        part[:] = 7
        arena.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=lease.name)
        assert fds() > before  # still mapped: readable and writable
        part += 1
        assert int(part.sum()) == 8 * len(part)
        del part  # the unpin of a closed arena unmaps
        assert fds() == before

    def test_samples_report_what_is_still_pinned(self):
        samples = []
        with SharedArena() as arena:
            arena.on_sample = lambda name, value: samples.append((name, value))
            root = arena.pin(arena.lease(1000, np.int64))
            arena.lease(1000, np.int32)
            arena.release_all()
            assert samples[-2:] == [
                ("arena.leased_bytes", 8000.0),
                ("arena.pinned_bytes", 8000.0),
            ]
            del root
            arena.release_all()
            assert samples[-2:] == [
                ("arena.leased_bytes", 0.0),
                ("arena.pinned_bytes", 0.0),
            ]


class TestLifetime:
    def test_close_is_idempotent_and_final(self):
        arena = SharedArena()
        arena.lease(100, np.int64)
        arena.close()
        arena.close()
        with pytest.raises(ValueError):
            arena.lease(1, np.int64)

    def test_context_manager_closes(self):
        with SharedArena() as arena:
            lease = arena.lease(100, np.int64)
            name = lease.name
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

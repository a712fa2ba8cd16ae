"""Reusable scratch buffers for the sort data plane.

Fresh numpy arrays per job fault fresh pages on every sort.  A
:class:`ScratchArena` keeps a small pool of dtype-keyed blocks alive:
temporaries are *leased* as views of cached blocks and returned wholesale
with :meth:`ScratchArena.release_all`.  Blocks grow geometrically, so
steady-state operation performs no allocator calls at all.

Arenas outlive runs.  :data:`ARENAS` is the process's free list, so
repeated sorts — every dataset of ``sort_many``, and every separate
``distributed_sort`` of a sweep — reuse warm storage instead of faulting
fresh pages.  A checked-out arena belongs to the one job of one run; a
run started meanwhile (nested, or on another thread) checks out different
arenas.

Leases are views of shared storage: anything that outlives the arena cycle
(returned keys, stored provenance) must be a fresh array, never a lease —
the next run that checks the arena out writes over it.  They have one
lifetime, the job's: a simulated word-path job
(:class:`~repro.core.sorter.SortJob`) leases its step-1 words (int32 or
int64, as its key frame says), its int64 word stream when keys are
narrower than 8 bytes, and, only when its frame refills, a copy of the
input, from one arena checked out at the first rank's step-1 sort
through the run's :class:`~repro.pgxd.runtime.KernelPool` and checked in
once every rank's step-6 kernel finished; a frame miss leases nothing.
Peers read a job's sends from that job's storage.  A pooled worker's
words go over its staged input whenever a word is no wider than a key
and the frame does not refill; its private arena serves the rest — a
refilling frame's words and int64 words of keys narrower than 8 bytes —
for one job at a time, too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Smallest block the arena allocates; avoids churn from tiny leases.
MIN_BLOCK_ELEMENTS = 1024


@dataclass
class _Block:
    storage: np.ndarray
    in_use: bool = False

    @property
    def capacity(self) -> int:
        return len(self.storage)


@dataclass(eq=False)  # an arena is its identity: pools find and remove it by ``is``
class ScratchArena:
    """Pool of reusable numpy blocks, keyed by dtype.

    ``take(n, dtype)`` leases a length-``n`` view of a cached block (the
    contents are uninitialized, like ``np.empty``); ``release_all`` returns
    every outstanding lease to the pool without freeing the storage.
    ``allocations`` counts real ``np.empty`` calls, which is what the tests
    pin down: a second identical cycle must not allocate.
    """

    _pools: dict[np.dtype, list[_Block]] = field(default_factory=dict)
    #: Real allocator calls performed so far (test/diagnostic hook).
    allocations: int = 0
    #: Leases handed out since the last release_all (diagnostic hook).
    live_leases: int = 0

    def take(self, n: int, dtype) -> np.ndarray:
        """Lease an uninitialized length-``n`` view of pooled storage."""
        if n < 0:
            raise ValueError("lease length must be >= 0")
        dtype = np.dtype(dtype)
        pool = self._pools.setdefault(dtype, [])
        best: _Block | None = None
        for block in pool:
            if not block.in_use and block.capacity >= n:
                if best is None or block.capacity < best.capacity:
                    best = block
        if best is None:
            largest = max((b.capacity for b in pool), default=0)
            capacity = max(n, 2 * largest, MIN_BLOCK_ELEMENTS)
            best = _Block(np.empty(capacity, dtype=dtype))
            self.allocations += 1
            pool.append(best)
        best.in_use = True
        self.live_leases += 1
        return best.storage[:n]

    def release_all(self) -> None:
        """Return every lease to the pool (the storage stays warm)."""
        for pool in self._pools.values():
            for block in pool:
                block.in_use = False
        self.live_leases = 0

    def pooled_bytes(self) -> int:
        """Total bytes of storage the arena keeps alive."""
        return sum(
            int(b.storage.nbytes) for pool in self._pools.values() for b in pool
        )


class ArenaPool:
    """Free list of arenas shared by every run in the process.

    ``checkout`` hands out an arena no one else holds (the last one checked
    in, or a fresh one when the list runs dry); ``checkin`` releases its
    leases and returns it, so the next job of the same shape gets an arena
    already sized for exactly its leases.  ``list.pop`` and
    ``list.append`` are atomic, so runs on different threads never draw
    the same arena.
    """

    def __init__(self) -> None:
        #: Checked-in arenas; the last one is handed out first.
        self.idle: list[ScratchArena] = []

    def checkout(self) -> ScratchArena:
        try:
            return self.idle.pop()
        except IndexError:
            return ScratchArena()

    def checkin(self, arena: ScratchArena) -> None:
        arena.release_all()
        self.idle.append(arena)


#: The process's arena pool; :class:`~repro.pgxd.runtime.KernelPool` lends
#: every simulated job's storage from it.
ARENAS = ArenaPool()

"""Reusable scratch buffers for the sort data plane.

The real data movement of the sort (receive-buffer reassembly, merge
temporaries, provenance staging) used to allocate fresh numpy arrays on
every call, so a p-rank sort paid O(p) allocator round-trips per machine
per dataset.  A :class:`ScratchArena` keeps a small pool of dtype-keyed
blocks alive on each :class:`~repro.pgxd.runtime.Machine`: temporaries are
*leased* as views of cached blocks and returned wholesale with
:meth:`ScratchArena.release_all` once the step that needed them is done.
Blocks grow geometrically, so steady-state operation performs no allocator
calls at all.

Arenas outlive runs.  :data:`ARENAS` is the process's free list: a
simulated run checks out one arena per machine and checks them back in
when it ends, so repeated sorts — every dataset of ``sort_multi``, and
every separate ``distributed_sort`` of a sweep — reuse warm storage
instead of faulting fresh pages.  A checked-out arena belongs to exactly
one machine of one run; a run started meanwhile (nested, or on another
thread) checks out different arenas.

Leases are views of shared storage: anything that outlives the arena cycle
(returned keys, stored provenance) must be a fresh array, never a lease —
the next run that checks the arena out writes over it.  The data-plane
convention is that leases live from step 5 (exchange reassembly) to the end
of step 6 (merge), where the machine program calls ``release_all``.
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


@dataclass
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
    #: The blocks of the last two :meth:`hold` leases, oldest first.
    _held: list[_Block] = field(default_factory=list)

    def take(self, n: int, dtype) -> np.ndarray:
        """Lease an uninitialized length-``n`` view of pooled storage."""
        return self._lease(n, dtype).storage[:n]

    def hold(self, n: int, dtype) -> np.ndarray:
        """Lease like :meth:`take`, but kept through :meth:`release_all` until
        the next hold but one, or the arena's checkin."""
        for block in self._held[:-1]:
            block.in_use = False
        self._held = [*self._held[-1:], self._lease(n, dtype)]
        return self._held[-1].storage[:n]

    def _lease(self, n: int, dtype) -> _Block:
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
        return best

    def release_all(self) -> None:
        """Return every lease but the held ones to the pool (storage stays warm)."""
        for pool in self._pools.values():
            for block in pool:
                block.in_use = any(block is kept for kept in self._held)
        self.live_leases = len(self._held)

    def pooled_bytes(self) -> int:
        """Total bytes of storage the arena keeps alive."""
        return sum(
            int(b.storage.nbytes) for pool in self._pools.values() for b in pool
        )


class ArenaPool:
    """Free list of arenas shared by every run in the process.

    ``checkout(count)`` hands out ``count`` arenas no one else holds (warm
    ones first, fresh ones when the list runs dry); ``checkin`` releases
    their leases and returns them.  The list is a stack and ``checkin``
    pushes in reverse, so a run that checks in what it checked out leaves
    the list as it found it: the next run of the same shape gets the same
    arena on the same rank, sized for exactly its leases.  ``list.pop`` and
    ``list.append`` are atomic, so runs on different threads never draw
    the same arena.
    """

    def __init__(self) -> None:
        #: Checked-in arenas; the last one is handed out first.
        self.idle: list[ScratchArena] = []

    def checkout(self, count: int) -> list[ScratchArena]:
        return [self._pop() for _ in range(count)]

    def checkin(self, arenas: list[ScratchArena]) -> None:
        for arena in reversed(arenas):
            arena._held.clear()  # the run is over: nobody reads its sends
            arena.release_all()
            self.idle.append(arena)

    def _pop(self) -> ScratchArena:
        try:
            return self.idle.pop()
        except IndexError:
            return ScratchArena()


#: The process's arena pool; :class:`~repro.pgxd.runtime.PgxdRuntime` leases
#: every machine's scratch from it.
ARENAS = ArenaPool()

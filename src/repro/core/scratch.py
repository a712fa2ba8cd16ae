"""Reusable scratch buffers for the sort data plane.

The real data movement of the sort (receive-buffer reassembly, merge
temporaries, provenance staging) used to allocate fresh numpy arrays on
every call, so a p-rank sort paid O(p) allocator round-trips per machine
per dataset.  A :class:`ScratchArena` keeps a small pool of dtype-keyed
blocks alive on each :class:`~repro.pgxd.runtime.Machine`: temporaries are
*leased* as views of cached blocks and returned wholesale with
:meth:`ScratchArena.release_all` once the step that needed them is done.
Blocks grow geometrically, so steady-state operation (repeated sorts on one
machine, every dataset of ``sort_multi``) performs no allocator calls at
all.

Leases are views of shared storage: anything that outlives the arena cycle
(returned keys, stored provenance) must be a fresh array, never a lease.
The data-plane convention is that leases live from step 5 (exchange
reassembly) to the end of step 6 (merge), where the machine program calls
``release_all``.
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
        """Return every lease to the pool (storage stays warm)."""
        for pool in self._pools.values():
            for block in pool:
                block.in_use = False
        self.live_leases = 0

    def pooled_bytes(self) -> int:
        """Total bytes of storage the arena keeps alive."""
        return sum(
            int(b.storage.nbytes) for pool in self._pools.values() for b in pool
        )


"""Cross-process shared-memory arena: pooled blocks leased as numpy arrays.

This is :class:`repro.core.scratch.ScratchArena`'s idea taken across the
process boundary.  The driver (parent) owns a pool of
:mod:`multiprocessing.shared_memory` segments; data-plane buffers — input
blocks, the all-to-all exchange streams, merged output — are *leased* as
numpy views of pooled segments and returned wholesale with
:meth:`SharedArena.release_all` once a sort completes.  Segments come in
power-of-two size classes and are reused across sorts, so a backend that
sorts many datasets performs no shm system calls in steady state.

A lease is described by a small picklable :class:`ShmLease` (segment name,
dtype, length) that travels to workers over the control pipe; workers map
the same physical pages with :func:`attach` — no data ever crosses a pipe.

Three invariants make the arena the persistent pool's warm store:
segments survive ``release_all`` (only :meth:`SharedArena.close` unlinks);
a named segment is **never resized** — growth allocates a new segment
under a new name; and a **pinned** segment (:meth:`SharedArena.pin`) is
out of the pool until its result dies — ``close()`` unlinks it but does
not unmap it.  A pooled worker can therefore cache its attachments by
segment name across jobs (:class:`repro.parallel.worker.SegmentCache`):
whatever leases a later job's specs describe, a cached name still maps
the right pages, and steady-state jobs run with zero shm system calls on
both sides of the process boundary.

Pinning is how a sort's merged output leaves the arena without a copy:
the caller's arrays are slices of one root array over the lease, and the
segment returns to the pool when the last of them is collected.  It must
stay *mapped* that long whatever happens to the arena, because
``np.ndarray(buffer=shm.buf)`` takes no buffer export (its ``.base`` is
the ``mmap``): ``SharedMemory.close()`` under a live view succeeds
silently and the next read of the view is a segfault.

Ownership contract: the parent creates and unlinks every segment; workers
only ever attach and close.  On POSIX the resource-tracker process is
shared between parent and workers (its fd travels through both fork and
spawn), so a worker's attach re-registering the segment is a harmless
set-add and the parent's ``unlink`` performs the single real unregister —
workers must never call ``resource_tracker.unregister`` themselves, which
would strip the parent's leak protection and make its unlink race the
tracker.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

#: Smallest segment the arena allocates (bytes); avoids churn from tiny
#: leases the way ``ScratchArena.MIN_BLOCK_ELEMENTS`` does in-process.
MIN_SEGMENT_BYTES = 1 << 16


@dataclass(frozen=True)
class ShmLease:
    """Picklable descriptor of one leased numpy region.

    ``name`` identifies the shared segment; the region is ``length``
    elements of ``dtype`` starting at ``offset_bytes``.  Sending a lease to
    a worker conveys *access*, not ownership.
    """

    name: str
    dtype: np.dtype
    length: int
    offset_bytes: int = 0

    @property
    def nbytes(self) -> int:
        return int(self.length) * np.dtype(self.dtype).itemsize


@dataclass
class _Segment:
    shm: shared_memory.SharedMemory
    #: Bytes out on lease (0 = free); a segment backs one lease at a time.
    leased: int = 0
    #: Live result roots over the lease (:meth:`SharedArena.pin`).
    pins: int = 0
    #: The arena closed (and unlinked) under a pin: the unpin unmaps.
    orphaned: bool = False

    @property
    def capacity(self) -> int:
        return self.shm.size


def _lease_array(shm: shared_memory.SharedMemory, lease: ShmLease) -> np.ndarray:
    """The numpy array a lease describes, over one mapping of its segment."""
    return np.ndarray(
        lease.length,
        dtype=np.dtype(lease.dtype),
        buffer=shm.buf,
        offset=lease.offset_bytes,
    )


def _unpin(seg: _Segment) -> None:
    """Finalizer of a pinned root array: the last view of a result died."""
    seg.pins -= 1
    if seg.pins:
        return
    seg.leased = 0  # back in the pool
    if seg.orphaned:
        seg.shm.close()


class SharedArena:
    """Parent-side pool of shared-memory segments with lease semantics.

    Mirrors the in-process scratch arena: ``lease(n, dtype)`` hands out a
    region backed by a pooled segment (picking the smallest free segment
    that fits, creating one of the request's size class otherwise) and
    ``release_all`` returns every lease that is not pinned without
    freeing pages.  ``close`` unlinks everything; the arena is also a
    context manager.
    """

    def __init__(self) -> None:
        self._segments: list[_Segment] = []
        #: Real shm segment creations so far (tests pin pooling on this).
        self.allocations = 0
        #: Observability hook: ``on_sample(name, value)`` fires on lease
        #: grants, segment growth, and ``release_all`` (None when untraced
        #: — the repository's guard pattern).
        self.on_sample = None
        self._closed = False

    # ------------------------------------------------------------ counters

    @property
    def live_leases(self) -> int:
        """Leases currently out (pinned ones included)."""
        return sum(1 for seg in self._segments if seg.leased)

    @property
    def leased_bytes(self) -> int:
        """Bytes currently out on lease (pinned ones included)."""
        return sum(seg.leased for seg in self._segments)

    @property
    def pinned_segments(self) -> int:
        """Segments a live result keeps out of the pool."""
        return sum(1 for seg in self._segments if seg.pins)

    @property
    def pinned_bytes(self) -> int:
        """The part of :attr:`leased_bytes` that ``release_all`` skips."""
        return sum(seg.leased for seg in self._segments if seg.pins)

    def pooled_bytes(self) -> int:
        """Total bytes of shared storage the arena keeps alive."""
        return sum(s.capacity for s in self._segments)

    def _sample_leases(self) -> None:
        if self.on_sample is not None:
            self.on_sample("arena.leased_bytes", float(self.leased_bytes))
            self.on_sample("arena.pinned_bytes", float(self.pinned_bytes))

    # ------------------------------------------------------------ leasing

    def lease(self, length: int, dtype) -> ShmLease:
        """Lease ``length`` elements of ``dtype`` from pooled shm storage.

        Contents are uninitialized, like ``np.empty``.  The returned
        descriptor may be pickled to workers; pair it with :func:`attach`
        (worker) or :meth:`view` (parent) to get the numpy array.
        """
        if self._closed:
            raise ValueError("arena is closed")
        if length < 0:
            raise ValueError("lease length must be >= 0")
        dtype = np.dtype(dtype)
        nbytes = max(int(length) * dtype.itemsize, 1)
        best: _Segment | None = None
        for seg in self._segments:
            if not seg.leased and seg.capacity >= nbytes:
                if best is None or seg.capacity < best.capacity:
                    best = seg
        if best is None:
            # Sized for the request that missed, rounded up to its
            # power-of-two class: requests of similar size share segments
            # and the pool's footprint follows what was actually leased.
            capacity = max(1 << (nbytes - 1).bit_length(), MIN_SEGMENT_BYTES)
            best = _Segment(shared_memory.SharedMemory(create=True, size=capacity))
            self.allocations += 1
            self._segments.append(best)
            if self.on_sample is not None:
                self.on_sample("arena.pooled_bytes", float(self.pooled_bytes()))
        best.leased = nbytes
        self._sample_leases()
        return ShmLease(name=best.shm.name, dtype=dtype, length=int(length))

    def _segment(self, lease: ShmLease) -> _Segment:
        for seg in self._segments:
            if seg.shm.name == lease.name:
                return seg
        raise KeyError(f"lease names unknown segment {lease.name!r}")

    def view(self, lease: ShmLease) -> np.ndarray:
        """Parent-side numpy view of a lease issued by this arena."""
        return _lease_array(self._segment(lease).shm, lease)

    def pin(self, lease: ShmLease) -> np.ndarray:
        """Give the lease's bytes to a result that outlives the job.

        Returns the *root* array over the lease.  numpy collapses the
        ``.base`` of every slice and dtype view taken from it to this one
        object, so it is collected exactly when the last view of the
        result is — and only then does the segment return to the pool
        (or, if the arena closed meanwhile, get unmapped).  Until then
        ``release_all`` skips it and :meth:`lease` cannot choose it.
        """
        seg = self._segment(lease)
        root = _lease_array(seg.shm, lease)
        seg.pins += 1
        # Not at exit: by then the pages are unlinked (or the resource
        # tracker's to reap) and nothing will lease the segment again.
        weakref.finalize(root, _unpin, seg).atexit = False
        return root

    def release_all(self) -> None:
        """Return every unpinned lease to the pool (segments stay mapped)."""
        for seg in self._segments:
            if not seg.pins:
                seg.leased = 0
        self._sample_leases()

    # ------------------------------------------------------------ lifetime

    def close(self) -> None:
        """Unlink every segment; unmap all but the pinned ones.  Idempotent.

        ``/dev/shm`` holds none of the arena's names once this returns,
        whatever the caller still holds: a pinned segment stays mapped
        (its pages live on anonymously) and its unpin unmaps it.
        """
        if self._closed:
            return
        self._closed = True
        for seg in self._segments:
            seg.orphaned = True
            if not seg.pins:
                seg.shm.close()
            try:
                seg.shm.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort leak guard
        try:
            self.close()
        except Exception:  # repro: noqa[R006] — raising from __del__ at interpreter teardown is worse than a leaked segment the tracker reaps
            pass


@dataclass
class AttachedLease:
    """Worker-side mapping of a :class:`ShmLease`.

    Keeps the :class:`~multiprocessing.shared_memory.SharedMemory` handle
    alive for as long as ``array`` is in use; ``close`` unmaps (never
    unlinks — the parent owns the pages).
    """

    array: np.ndarray
    _shm: shared_memory.SharedMemory = field(repr=False)

    def close(self) -> None:
        self.array = None  # drop the buffer reference before unmapping
        self._shm.close()


def attach(lease: ShmLease) -> AttachedLease:
    """Map an existing lease in this (worker) process.

    Attaching re-registers the segment with the (shared) resource tracker;
    that is a set-add no-op, and deliberately left in place — see the
    ownership contract in the module docstring.
    """
    shm = shared_memory.SharedMemory(name=lease.name)
    return AttachedLease(array=_lease_array(shm, lease), _shm=shm)

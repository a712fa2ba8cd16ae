"""The pool's three data paths, each chosen once per job and said once.

What a pooled worker sorts in step 1, writes in step 5 and merges in
step 6 is one decision, taken in step 1 by :func:`choose_data_path` and
carried from there as one :class:`DataPath`:

* the **word path** — provenance rides inside the key.  Every rank
  allgathers its block's ``(code_min, code_max, code_or, len)``, all
  derive the same :class:`~repro.core.packsort.KeyFrame`, and each packs
  ``(code << shift) | (rank << idx_bits) | index`` into unique int64
  words, sorts them, and decodes the sorted keys once for steps 2–4 (the
  sample bytes, hence fingerprints and splitters, are unchanged).  Step 5
  moves word slices, 8 B/key and nothing else.  Step 6 sorts the rank's
  region **in place in shared memory** — words from different ranks
  compare as ``(key, rank, index)``, the stable merge order, and they are
  unique, so no permutation exists to apply — and unpacks once, straight
  into the output leases (8-byte keys in place: their word stream *is*
  the key lease).  The two lossy float codes (±0.0, NaN payloads) are
  refilled from the input lease through the provenance just unpacked;
* **keys + perm** — the frame does not fit, or the codec has no code for
  the dtype: the simulated sorter's own kernels run, keys and an int32
  permutation cross the exchange as two streams, and the merged region is
  stored back over them;
* **values only** — no provenance: ``np.sort``, one key stream, the
  region sorted in place like the words.

A path *declares* what the driver needs to know about it — the lease
roles its step 5 wrote, the bytes each key cost on the wire — and both
ride home on the :class:`~repro.parallel.worker.WorkerReport`, so nothing
downstream re-derives the decision from the label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..checks.hb import KEYS_AND_PERM
from ..core.packsort import (
    block_code_stats,
    decode_keys,
    derive_key_frame,
    order_preserving_codes,
    pack_words,
    sort_runs_in_place,
    unpack_provenance,
)
from ..core.scratch import ScratchArena
from ..core.steps import merge_received, sort_block
from .arena import ShmLease
from .collectives import WorkerLink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .worker import JobSpec

#: ``local_sort_path`` of the word path, the fastest of the labels (see
#: :attr:`~repro.parallel.worker.WorkerReport.local_sort_path`).
THROUGH = "through"

#: A shared-memory access: ``(lease, lo, hi, kind, label)``, in elements.
Access = tuple[ShmLease, int, int, str, str]


def surfaced_sort_path(label: str | None) -> str | None:
    """The label a run report shows: only off the fastest path, so a slow
    job explains itself and fast reports keep their schema."""
    return None if label == THROUGH else label


@dataclass
class JobViews:
    """One rank's mapped views of a job's leases, one per
    :class:`~repro.parallel.worker.JobSpec` ``*_lease`` field (``input`` is
    the whole staged input; for 8-byte keys ``words`` is ``keys``' bytes)."""

    input: np.ndarray
    keys: np.ndarray
    index: np.ndarray | None
    proc: np.ndarray | None
    words: np.ndarray | None


@dataclass
class DataPath:
    """What one job sorts, exchanges and merges on one rank."""

    #: This rank's :attr:`WorkerReport.local_sort_path`.
    label: str | None
    #: Lease roles step 5 writes: one run per (src, dst) on exactly these.
    exchanged: tuple[str, ...]
    #: The rank's sorted keys, read by steps 2–4.
    sorted_keys: np.ndarray
    #: Step 5's streams: ``(shared stream, its lease, sorted payload)``.
    streams: list[tuple[np.ndarray, ShmLease, np.ndarray]]
    #: Step 6: ``merge(base, stop, run_lengths)`` merges the rank's region
    #: of the streams into the job's output leases and returns the
    #: accesses made beyond reading and rewriting the streams themselves.
    merge: Callable[[int, int, list[int]], list[Access]]

    @property
    def bytes_per_key(self) -> int:
        return sum(payload.dtype.itemsize for _s, _l, payload in self.streams)


def choose_data_path(
    plan: "JobSpec",
    rank: int,
    link: WorkerLink,
    views: JobViews,
    block: np.ndarray,
    scratch: ScratchArena,
) -> DataPath:
    """Step 1: pick the job's data path and run its local sort.  Every rank
    takes the same branch: the frame comes from the same gathered statistics
    (one allgather, waited inside step 1), the rest from the job spec."""
    frame = None
    if views.words is not None:
        codes = order_preserving_codes(block)
        frame = derive_key_frame(
            link.allgather(block_code_stats(codes, block.dtype.kind == "f")),
            block.dtype,
            plan.size,
        )
        if frame is not None:
            # Step-1 temporaries come from the worker's warm scratch pool:
            # 16 bytes/key of fresh pages per job would be the op's
            # largest page-fault bill.
            words = pack_words(
                codes, frame, rank, out=scratch.take(len(block), np.int64)
            )
        del codes  # 8 bytes/key that would otherwise sit under the sort
    if frame is not None:
        return _word_path(plan, views, frame, words, scratch)
    if plan.options.track_provenance:
        return _keys_perm_path(plan, views, block, scratch)
    return _values_path(plan, views, block)


def _word_path(plan, views, frame, words, scratch) -> DataPath:
    block_starts = np.asarray(plan.block_bounds, dtype=np.int64)
    words.sort()
    sorted_keys = scratch.take(len(words), views.input.dtype)
    decode_keys(words, frame, sorted_keys, views.input, block_starts)

    def merge(base, stop, run_lengths):
        region = views.words[base:stop]
        sort_runs_in_place(region, run_lengths)
        unpack_provenance(region, frame, views.index[base:stop], views.proc[base:stop])
        refilled = decode_keys(
            region, frame, views.keys[base:stop], views.input, block_starts
        )
        accesses = [
            (plan.index_lease, base, stop, "w", "index-write"),
            (plan.proc_lease, base, stop, "w", "proc-write"),
            (plan.key_lease, base, stop, "w", "key-write"),
        ]
        if refilled:
            accesses.append((plan.input_lease, 0, len(views.input), "r", "refill-read"))
        return accesses

    aliased = plan.word_lease.name == plan.key_lease.name
    return DataPath(
        THROUGH,
        ("keys",) if aliased else ("words",),
        sorted_keys,
        [(views.words, plan.word_lease, words)],
        merge,
    )


def _keys_perm_path(plan, views, block, scratch) -> DataPath:
    sorted_keys, perm, label = sort_block(block, True)

    def merge(base, stop, run_lengths):
        outcome = merge_received(
            views.keys[base:stop],
            views.index[base:stop],
            run_lengths,
            plan.options.balanced_merge,
            scratch=scratch,
        )
        views.keys[base:stop] = outcome.keys
        views.index[base:stop] = outcome.aux[0]
        views.proc[base:stop] = outcome.aux[1]
        return [(plan.proc_lease, base, stop, "w", "proc-write")]

    streams = [
        (views.keys, plan.key_lease, sorted_keys),
        (views.index, plan.index_lease, perm),
    ]
    return DataPath(label, KEYS_AND_PERM, sorted_keys, streams, merge)


def _values_path(plan, views, block) -> DataPath:
    sorted_keys = sort_block(block, False)[0]

    def merge(base, stop, run_lengths):
        sort_runs_in_place(views.keys[base:stop], run_lengths)
        return []

    streams = [(views.keys, plan.key_lease, sorted_keys)]
    return DataPath(None, ("keys",), sorted_keys, streams, merge)

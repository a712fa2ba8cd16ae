"""The pool's two data paths, each chosen once per job and said once.

What a pooled worker sorts in step 1, writes in step 5 and merges in
step 6 is one decision, taken in step 1 by :func:`choose_data_path` and
carried from there as one :class:`DataPath`:

* the **word path** — provenance rides inside the key.  Every rank
  allgathers its block's ``(code_min, code_max, code_or, len)``, all
  derive the same :class:`~repro.core.packsort.KeyFrame`, and each packs
  ``(code << shift) | (rank << idx_bits) | index`` into unique int64
  words and sorts them.  Nothing is decoded for steps 2–4: they read the
  block as :class:`~repro.core.packsort.SortedWords`, which decodes only
  the sampled words (bit for bit, so fingerprints and splitters are
  unchanged) and ranks splitters against the words themselves.  Step 5
  moves word slices, 8 B/key and nothing else.  Step 6 sorts the rank's
  region **in place in shared memory** — words from different ranks
  compare as ``(key, rank, index)``, the stable merge order, and they are
  unique, so no permutation exists to apply — and unpacks once, the one
  decode of every key, straight into the output leases (8-byte keys in
  place: their word stream *is* the key lease).  The two lossy float
  codes (±0.0, NaN payloads) are refilled from the input lease through
  the provenance in the word;
* **keys + perm** — the frame does not fit, or the codec has no code for
  the dtype: the simulated sorter's own kernels run, keys and an int32
  permutation cross the exchange as two streams, and the merged region is
  stored back over them.

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
    SortedWords,
    code_and_stats,
    derive_key_frame,
    pack_words,
    sort_runs_in_place,
    unpack_words,
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


def surfaced_sort_path(label: str) -> str | None:
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
    index: np.ndarray
    proc: np.ndarray
    #: ``None`` when the codec has no code for the key dtype.
    words: np.ndarray | None


@dataclass
class DataPath:
    """What one job sorts, exchanges and merges on one rank."""

    #: This rank's :attr:`WorkerReport.local_sort_path`.
    label: str
    #: Lease roles step 5 writes: one run per (src, dst) on exactly these.
    exchanged: tuple[str, ...]
    #: What steps 2–4 read (``take``, ``searchsorted``, ``len``, ``dtype``):
    #: the rank's sorted keys or, on the word path, its sorted words.
    sorted_block: np.ndarray | SortedWords
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
    (one allgather, waited inside step 1)."""
    if views.words is not None:
        # The one block-sized step-1 temporary, from the worker's warm
        # scratch pool: fresh pages per job would be the op's largest
        # page-fault bill.  Codes, then words, then sorted words live in it.
        lease = scratch.take(len(block), np.int64)
        codes, stats = code_and_stats(block, lease)
        frame = derive_key_frame(link.allgather(stats), block.dtype, plan.size)
        if frame is not None:
            words = pack_words(codes, frame, rank, lease)
            return _word_path(plan, views, frame, words)
    return _keys_perm_path(plan, views, block, scratch)


def _word_path(plan, views, frame, words) -> DataPath:
    block_starts = np.asarray(plan.block_bounds, dtype=np.int64)
    words.sort()

    def merge(base, stop, run_lengths):
        region = views.words[base:stop]
        sort_runs_in_place(region, run_lengths)
        refilled = unpack_words(
            region, frame, views.input, block_starts,
            views.keys[base:stop], views.index[base:stop], views.proc[base:stop],
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
        SortedWords(words, frame, views.input, block_starts),
        [(views.words, plan.word_lease, words)],
        merge,
    )


def _keys_perm_path(plan, views, block, scratch) -> DataPath:
    sorted_keys, perm, label = sort_block(block)

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

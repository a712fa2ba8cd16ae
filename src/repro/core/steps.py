"""The step kernels every substrate shares: arrays in, arrays out.

One body per step — :func:`sort_block` (1), :func:`draw_samples` (2),
:func:`agree_splitters` (3), :func:`partition_block` (4; 2–4 read sorted
keys and packed words alike), :func:`merge_received` (6); step 5 is pure
movement, the word path's steps 1 and 6 are :mod:`repro.core.packsort`
kernels, and :mod:`repro.core.datapath` says which run.  They hold no
clocks and
move no data between ranks — the simulated sorter and the process pool
supply movement, timing and hooks around them.  The
oracle (:mod:`repro.core.local_backend`) calls the step 2–4 kernels too,
and deliberately shares no sort or merge code with what it checks.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..pgxd.config import PgxdConfig
from .balanced_merge import flat_kway_merge
from .investigator import compute_rank_cuts, slices_from_cuts
from .packsort import SortedWords, stable_sort_with_order
from .sampling import sample_count, select_regular_samples
from .splitters import merge_samples, select_splitters

#: A key's index in its block, and its origin position in a job of fewer
#: than 2^31 keys: half an int64's footprint.
INDEX_DTYPE = np.dtype(np.int32)


def sort_block(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
    """Step 1 of the keys + perm path: ``(sorted_keys, perm, path)``.

    The stable kernel of :mod:`repro.core.packsort` runs (``path`` names
    which: ``"packed"``/``"stable"``) and ``perm`` is its order as
    :data:`INDEX_DTYPE`.
    """
    sorted_keys, order, path = stable_sort_with_order(block)
    return sorted_keys, order.astype(INDEX_DTYPE), path


def draw_samples(
    sorted_block: np.ndarray | SortedWords,
    config: PgxdConfig,
    p: int,
    sample_factor: float,
) -> np.ndarray:
    """Step 2: the regular samples one rank sends to the Master.

    ``sample_factor`` × the paper's ``256KB / p`` bytes of keys, taken on
    the regular grid of the sorted block (section IV-B).
    """
    count = sample_count(config, p, sorted_block.dtype.itemsize, sample_factor)
    return select_regular_samples(sorted_block, count)


def sample_bytes(config: PgxdConfig, p: int, itemsize: int, sample_factor: float) -> int:
    """The most bytes of samples :func:`draw_samples` hands one rank for
    the Master (what the pool's control slots are sized from)."""
    return sample_count(config, p, itemsize, sample_factor) * itemsize


def agree_splitters(gathered: Sequence[np.ndarray], p: int) -> np.ndarray:
    """Step 3, on the Master: merge every rank's samples, pick ``p - 1``."""
    return select_splitters(merge_samples(gathered), p)


class BlockPartition(NamedTuple):
    """Step 4's outcome: where each destination's keys sit in the block."""

    #: ``slices[dst]`` = this rank's sorted keys bound for ``dst``.
    slices: list[slice]
    #: ``counts[dst]`` = ``len`` of that slice (this rank's counts-matrix row).
    counts: np.ndarray
    #: Binary searches spent (what the cost model charges).
    searches: int


def partition_block(
    sorted_keys: np.ndarray,
    splitters: np.ndarray | None,
    p: int,
    rank: int,
    investigator: bool,
) -> BlockPartition:
    """Step 4: cut rank ``rank``'s sorted block against the splitters, once."""
    cut = compute_rank_cuts(sorted_keys, splitters, p, rank=rank, investigator=investigator)
    slices = slices_from_cuts(cut.cuts, len(sorted_keys))
    counts = np.array([sl.stop - sl.start for sl in slices], dtype=np.int64)
    return BlockPartition(slices, counts, cut.searches)


def merge_received(
    keys: np.ndarray,
    index: np.ndarray,
    run_lengths: Sequence[int],
    block_starts: Sequence[int],
) -> None:
    """Step 6 of the keys + perm path: merge the received runs where they lie.

    ``keys`` holds one sorted run per source back to back (``run_lengths``),
    ``index`` the origin indices aligned with it.  Run ``i`` came from rank
    ``i``, whose block starts at ``block_starts[i]`` in the job's input:
    adding that turns each index into the key's origin position, built
    here and nowhere else; both are then rewritten in merged order.
    """
    lo = 0
    for start, length in zip(block_starts, run_lengths):
        index[lo : lo + length] += int(start)
        lo += length
    outcome = flat_kway_merge(keys, run_lengths, [index])
    keys[:], index[:] = outcome.keys, *outcome.aux

"""The step kernels every substrate shares: arrays in, arrays out.

One body per step — :func:`sort_block` (1), :func:`draw_samples` (2),
:func:`agree_splitters` (3), :func:`partition_block` (4),
:func:`merge_received` (6); step 5 is pure movement.  They hold no clocks
and move no data between ranks — the simulated sorter, its resilient
variant and the process pool supply movement, timing and hooks around
them.  The oracle (:mod:`repro.core.local_backend`) calls the step 2–4
kernels too, and deliberately shares no sort or merge code with what it
checks.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..pgxd.config import PgxdConfig
from .balanced_merge import MergeOutcome, flat_kway_merge
from .investigator import compute_rank_cuts, slices_from_cuts
from .packsort import SortedWords, stable_sort_with_order
from .sampling import sample_count, select_regular_samples
from .scratch import ScratchArena
from .splitters import merge_samples, select_splitters


def sort_block(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
    """Step 1: ``(sorted_keys, perm, path)`` for one rank's block.

    The stable kernel of :mod:`repro.core.packsort` runs (``path`` names
    which: ``"packed"``/``"stable"``) and ``perm`` is its order as int32 —
    local indexes stay below 2^31 at any modeled scale, and it halves the
    provenance footprint.
    """
    sorted_keys, order, path = stable_sort_with_order(block)
    return sorted_keys, order.astype(np.int32), path


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
    investigator: bool,
) -> BlockPartition:
    """Step 4: cut the sorted block against the splitters, once."""
    cut = compute_rank_cuts(sorted_keys, splitters, p, investigator=investigator)
    slices = slices_from_cuts(cut.cuts, len(sorted_keys))
    counts = np.array([sl.stop - sl.start for sl in slices], dtype=np.int64)
    return BlockPartition(slices, counts, cut.searches)


def merge_received(
    key_buffer: np.ndarray,
    index_buffer: np.ndarray,
    run_lengths: Sequence[int],
    balanced: bool,
    *,
    sources: Sequence[int] | None = None,
    scratch: ScratchArena | None = None,
) -> MergeOutcome:
    """Step 6 of the keys + perm path: merge the received runs.

    ``key_buffer`` holds one sorted run per source back to back
    (``run_lengths``), ``index_buffer`` the origin indices aligned with it.
    The origin-processor column — constant over each run: ``sources[i]``, by
    default ``i`` — is built here and nowhere else.  The outcome's ``aux`` is
    ``[origin_index, origin_proc]``, never aliasing the inputs or ``scratch``.
    """
    n = len(key_buffer)
    proc_col = (
        scratch.take(n, np.int16) if scratch is not None else np.empty(n, np.int16)
    )
    lo = 0
    for i, length in enumerate(run_lengths):
        proc_col[lo : lo + length] = i if sources is None else sources[i]
        lo += length
    return flat_kway_merge(
        key_buffer, run_lengths, [index_buffer, proc_col], balanced=balanced
    )

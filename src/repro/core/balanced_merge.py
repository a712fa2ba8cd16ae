"""The balanced-merge *handler* (paper section IV-A, Figure 2).

After each worker thread sorts its chunk (step 1) — and again after the
all-to-all exchange delivers one sorted run per peer (step 6) — the runs
must be combined.  The paper's handler merges runs **pairwise in levels**:
with 8 runs, level one merges (1→0), (3→2), (5→4), (7→6) concurrently;
level two merges (2→0), (6→4); level three merges (4→0).  Every merge
combines two runs of nearly equal size ("balanced merging ... which avoids
the cache misses") and all merges within a level execute in parallel.

The contrast case used by the ablation benchmarks is a *sequential fold*
(run 0 absorbs run 1, then run 2, ...), which performs the same total key
movement in the last merges over and over and exposes no parallelism.

Both are *stable* merges of rank-ordered runs, so both produce the one
``(key, run, position)`` order; they differ only in the shape that is
charged.  This module therefore holds one data kernel
(:func:`flat_kway_merge`) and the shapes' arithmetic: the per-level merge
sizes (:func:`merge_levels`) and what they cost in virtual time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..simnet.cost import CostModel
from ..pgxd.task_manager import TaskManager


@dataclass(frozen=True)
class MergeOutcome:
    """Result of combining runs: merged data plus the cost-relevant shape."""

    keys: np.ndarray
    aux: list[np.ndarray]
    #: ``levels[k]`` lists the output sizes of the concurrent merges at
    #: level ``k`` (balanced handler) or the single fold at step ``k``
    #: (sequential strategy).
    levels: list[list[int]]

    def total_merged_keys(self) -> int:
        return sum(sum(level) for level in self.levels)


def _balanced_levels(lengths: list[int]) -> list[list[int]]:
    """Per-level output sizes of the pairwise handler, from run lengths only.

    A merge with an empty side is a pointer move, not key work — only real
    two-way merges cost merge time (matters when the exchange delivered
    everything as one run, e.g. sorted input).
    """
    levels: list[list[int]] = []
    while len(lengths) > 1:
        next_lengths: list[int] = []
        level_sizes: list[int] = []
        for i in range(0, len(lengths) - 1, 2):
            merged = lengths[i] + lengths[i + 1]
            next_lengths.append(merged)
            if lengths[i] and lengths[i + 1]:
                level_sizes.append(merged)
        if len(lengths) % 2 == 1:  # odd run carried to the next level
            next_lengths.append(lengths[-1])
        lengths = next_lengths
        levels.append(level_sizes)
    return levels


def _fold_levels(lengths: list[int]) -> list[list[int]]:
    """Fold sizes of the sequential ablation strategy, from lengths only."""
    total = lengths[0]
    levels: list[list[int]] = []
    for n in lengths[1:]:
        trivial = not (total and n)
        total += n
        if not trivial:
            levels.append([total])
    return levels


#: Memo for repeated run-length patterns (e.g. the per-machine chunk split
#: of the local sort, identical across ranks and runs).  Values are treated
#: as immutable by every consumer; bounded so pathological length diversity
#: cannot grow it without limit.
_LEVELS_CACHE: dict[tuple, list[list[int]]] = {}
_LEVELS_CACHE_MAX = 512


def merge_levels(lengths: Sequence[int], *, balanced: bool = True) -> list[list[int]]:
    """Cost-relevant merge shape from run lengths alone.

    This is the virtual-time half of the cost-model/data-movement split:
    callers that move the real keys through the flat kernel still charge the
    paper-faithful level structure (pairwise handler, or the sequential fold
    for the ablation) computed purely arithmetically from the run lengths.
    Treat the returned structure as read-only (results are cached).
    """
    lengths = [int(n) for n in lengths]
    if len(lengths) <= 1:
        return []
    key = (balanced, *lengths)
    levels = _LEVELS_CACHE.get(key)
    if levels is None:
        if len(_LEVELS_CACHE) >= _LEVELS_CACHE_MAX:
            _LEVELS_CACHE.clear()
        levels = _balanced_levels(lengths) if balanced else _fold_levels(lengths)
        _LEVELS_CACHE[key] = levels
    return levels


def flat_kway_merge(
    keys: np.ndarray,
    run_lengths: Sequence[int],
    aux: Sequence[np.ndarray] = (),
    *,
    balanced: bool = True,
) -> MergeOutcome:
    """Flat k-way merge kernel over runs stored back to back in ``keys``.

    The one run-merge data kernel (besides the packed-word sort of
    :func:`repro.core.packsort.sort_runs_in_place`): ``keys`` holds the k
    sorted runs contiguously (run ``i`` occupying ``run_lengths[i]`` slots,
    e.g. the step-5 receive buffer), and one stable argsort computes every
    element's final destination in a single pass — no per-level key
    movement, no concatenation.  ``aux`` arrays are full-length columns
    aligned with ``keys`` (the origin positions) and ride the
    same permutation.  Stability means earlier runs win ties, which is
    exactly the composed permutation of the pairwise handler *and* of the
    sequential fold; only the *charged* shape differs, via ``balanced``.

    The kernel is dtype-uniform by construction (one buffer per column);
    callers holding blocks of different dtypes promote them first
    (:meth:`repro.core.api.DistributedSorter.sort_partitioned` does).

    Returns fresh output arrays: ``keys``/``aux`` may be scratch-arena
    leases, the returned :class:`MergeOutcome` never aliases them.
    """
    keys = np.asarray(keys)
    lengths = [int(n) for n in run_lengths]
    if sum(lengths) != len(keys):
        raise ValueError("run_lengths must sum to len(keys)")
    for x in aux:
        if len(x) != len(keys):
            raise ValueError("aux columns must align with the key buffer")
    levels = merge_levels(lengths, balanced=balanced)
    nonempty = sum(1 for n in lengths if n)
    if nonempty <= 1:
        # Zero or one real run: the buffer is already the merged output.
        return MergeOutcome(keys.copy(), [np.asarray(x).copy() for x in aux], levels)
    order = keys.argsort(kind="stable")
    return MergeOutcome(keys[order], [np.asarray(x)[order] for x in aux], levels)


def kway_merge_cost_seconds(
    total_keys: int,
    num_runs: int,
    cost: CostModel,
    *,
    scale: float = 1.0,
) -> float:
    """Virtual time of a sequential heap-based k-way merge."""
    if total_keys <= 0 or num_runs <= 1:
        return 0.0
    comparisons = total_keys * scale * math.log2(max(num_runs, 2))
    return comparisons / cost.compare_rate + cost.task_region_overhead


def merge_levels_cost_seconds(
    levels: Sequence[Sequence[int]],
    tasks: TaskManager,
    cost: CostModel,
    *,
    scale: float = 1.0,
) -> float:
    """Virtual time to execute a merge level structure on one worker pool.

    The merges of one level run concurrently on the thread pool (the
    handler's behaviour).  ``scale`` is the config's virtual-data
    multiplier: each real key merged stands for ``scale`` modeled keys.
    Takes the bare level sizes (see :func:`merge_levels`) so the cost can be
    charged without materializing a :class:`MergeOutcome`.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    total = 0.0
    for level in levels:
        per_merge = [size * scale / cost.merge_rate for size in level]
        total += tasks.parallel_time(per_merge)
    return total

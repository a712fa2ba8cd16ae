"""Step 1: parallel quicksort of each processor's local data.

"Data is divided equally among a number of the worker threads on each
processor.  Then, each worker thread sorts its data locally.  Sorted data
from each thread is merged together by keeping balanced merging."

The *virtual-time cost* keeps the paper's shape exactly: per-chunk sort
costs combined as the worker pool's makespan, plus the balanced handler's
merge-level costs computed arithmetically from the chunk lengths
(:func:`repro.core.balanced_merge.merge_levels`).  The *real data plane* is
flat: stable chunk sorts composed with the stable pairwise handler equal
one stable sort of the whole block (ties resolve to original order either
way), so the keys are produced by a single C-speed pass —
:func:`repro.core.steps.sort_block`, the step-1 kernel every substrate
shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pgxd.runtime import Machine
from .balanced_merge import merge_levels, merge_levels_cost_seconds
from .steps import sort_block


@dataclass(frozen=True)
class LocalSortResult:
    """Sorted keys, the sort permutation, and the charged virtual time."""

    keys: np.ndarray
    #: ``perm[i]`` = original local index of ``keys[i]``.
    perm: np.ndarray
    seconds: float


def split_into_chunks(n: int, parts: int) -> list[slice]:
    """Equal split of ``range(n)`` into ``parts`` contiguous slices.

    Sizes differ by at most one — the "divided equally among a number of the
    worker threads" contract.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    bounds = [n * i // parts for i in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def parallel_quicksort(
    machine: Machine,
    keys: np.ndarray,
    *,
    balanced: bool = True,
) -> LocalSortResult:
    """Sort ``keys`` with the step-1 strategy; returns data + virtual cost.

    This is a plain function (not a generator): it performs the real sort
    and *returns* the seconds to charge, so the calling program can yield a
    single labelled ``Compute``.  ``balanced=False`` selects the sequential
    fold merge for the handler ablation (cost shape only — the stable data
    result is identical).
    """
    keys = np.asarray(keys)
    n = len(keys)
    threads = machine.threads
    sorted_keys, perm, _path = sort_block(keys)
    if n == 0:
        return LocalSortResult(sorted_keys, perm, 0.0)
    chunk_slices = split_into_chunks(n, min(threads, n))
    scale = machine.config.data_scale
    # Chunk lengths differ by at most one, so at most two distinct costs
    # exist: evaluate the cost model once per distinct length.
    cost_of: dict[int, float] = {}
    sort_costs = []
    for sl in chunk_slices:
        ln = sl.stop - sl.start
        c = cost_of.get(ln)
        if c is None:
            c = cost_of[ln] = machine.cost.sort_seconds(int(ln * scale))
        sort_costs.append(c)
    seconds = machine.tasks.parallel_time(sort_costs)
    levels = merge_levels(
        [sl.stop - sl.start for sl in chunk_slices], balanced=balanced
    )
    seconds += merge_levels_cost_seconds(
        levels, machine.tasks, machine.cost, scale=scale
    )
    return LocalSortResult(sorted_keys, perm, seconds)

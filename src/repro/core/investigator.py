"""Step 4: the *investigator* — duplicate-aware splitter cuts (Figure 3).

Each processor binary-searches the broadcast splitters in its locally sorted
data to find, for every destination processor, the range of keys to ship.
With distinct splitters this is Figure 3a: ``p-1`` binary searches yielding
``p-1`` cut points.  With duplicated splitters a plain binary search routes
the *entire* equal-key range to a single destination (Figure 3b) — the load
imbalance the paper sets out to fix.

The investigator (Figure 3c) instead

1. runs the binary search **once per distinct splitter value**, and
2. divides the equal-key range **equally between the duplicated splitters**:
   ``k`` duplicated splitters act as ``k`` evenly spaced cut points inside
   the tied range, carving it into ``k+1`` near-equal pieces destined for
   ``k+1`` consecutive processors.

The ``k+1`` geometry is what Table II implies: with ~80% of a right-skewed
dataset tied at the top value, the 7 duplicated splitters at quantiles
30%..90% divide the tied range into 8 pieces of exactly 80%/8 = 10% —
the flat 9.998% shown for processors 2-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CutResult:
    """Cut points plus the binary-search effort actually spent."""

    #: ``cuts[j]`` = end (exclusive) of the local slice destined for
    #: processor ``j``; processor ``p-1`` receives everything from
    #: ``cuts[p-2]`` to the end.  Length ``p-1``; non-decreasing.
    cuts: np.ndarray
    #: Number of binary searches executed (== distinct splitters for the
    #: investigator, == all splitters for the naive strategy).
    searches: int


def compute_cuts(sorted_keys: np.ndarray, splitters: np.ndarray) -> CutResult:
    """Duplicate-aware cut computation (the investigator); ``sorted_keys``
    is an array or anything else with its ``searchsorted``."""
    splitters = np.asarray(splitters)
    p_minus_1 = len(splitters)
    cuts = np.empty(p_minus_1, dtype=np.int64)
    if p_minus_1 == 0:
        return CutResult(cuts, 0)
    values, group_starts, counts = np.unique(
        splitters, return_index=True, return_counts=True
    )
    # One searchsorted call per side over all *distinct* values: this is the
    # "binary search to be executed for only non-duplicated splitters".
    los = sorted_keys.searchsorted(values, side="left")
    his = sorted_keys.searchsorted(values, side="right")
    singles = counts == 1
    # Non-duplicated splitters (the common case) cut at their right edge,
    # assigned in one vectorized scatter.
    cuts[group_starts[singles]] = his[singles]
    for v_idx in np.nonzero(~singles)[0]:
        start, k = int(group_starts[v_idx]), int(counts[v_idx])
        lo, hi = int(los[v_idx]), int(his[v_idx])
        # Figure 3c: the k duplicated splitters become k evenly spaced
        # cut points inside the tied range [lo, hi), splitting it into
        # k+1 equal pieces shared by k+1 consecutive processors.
        span = hi - lo
        for i in range(k):
            cuts[start + i] = lo + (span * (i + 1)) // (k + 1)
    # np.unique returns sorted values, and splitters arrive sorted from the
    # Master, so group_starts already index the original positions; the cut
    # array is non-decreasing by construction.
    return CutResult(cuts, 2 * len(values))


def compute_rank_cuts(
    sorted_keys: np.ndarray,
    splitters: np.ndarray | None,
    size: int,
    *,
    investigator: bool = True,
) -> CutResult:
    """Step-4 cuts with the empty-splitter fallback every backend shares.

    ``splitters`` being ``None`` or empty means no rank produced samples
    (an empty dataset): everything routes to the Master, expressed as all
    cut points sitting at ``len(sorted_keys)``.  Otherwise dispatches to
    the investigator or the naive strategy.  The simulated sorter, the
    in-process reference backend, and the multiprocess backend all call
    this one helper, which is what keeps their partitions bit-identical.
    """
    if splitters is None or len(splitters) == 0:
        return CutResult(np.full(size - 1, len(sorted_keys), dtype=np.int64), 0)
    cut_fn = compute_cuts if investigator else compute_cuts_naive
    return cut_fn(sorted_keys, splitters)


def compute_cuts_naive(
    sorted_keys: np.ndarray, splitters: np.ndarray, side: str = "right"
) -> CutResult:
    """Figure 3b behaviour: one binary search per splitter, duplicates and
    all.  Ties all land on one destination — used by the no-investigator
    ablation baseline."""
    splitters = np.asarray(splitters)
    cuts = sorted_keys.searchsorted(splitters, side=side).astype(np.int64)
    return CutResult(cuts, len(splitters))


def cuts_to_counts(cuts: np.ndarray, n: int) -> np.ndarray:
    """Per-destination send counts implied by cut points over ``n`` keys."""
    if len(cuts) == 0:
        return np.array([n], dtype=np.int64)
    if np.any(np.diff(cuts) < 0):
        raise ValueError("cut points must be non-decreasing")
    if len(cuts) and (cuts[0] < 0 or cuts[-1] > n):
        raise ValueError("cut points must lie within [0, n]")
    bounds = np.concatenate(([0], cuts, [n]))
    return np.diff(bounds).astype(np.int64)


def slices_from_cuts(cuts: np.ndarray, n: int) -> list[slice]:
    """Per-destination local slices implied by cut points."""
    bounds = [0, *np.asarray(cuts).tolist(), n]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

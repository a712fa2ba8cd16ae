"""Step 4: the *investigator* — duplicate-aware splitter cuts (Figure 3).

Each processor binary-searches the broadcast splitters in its locally sorted
data to find, for every destination processor, the range of keys to ship.
With distinct splitters this is Figure 3a: ``p-1`` binary searches yielding
``p-1`` cut points.  With duplicated splitters a plain binary search routes
the *entire* equal-key range to a single destination (Figure 3b) — the load
imbalance the paper sets out to fix.

The investigator (Figure 3c) instead

1. runs the binary search **once per distinct splitter value**, and
2. lets **every source split its tied range** among the destinations the
   tie spans, in the proportion the global quantiles ask for: a splitter
   that is the ``at``-th of ``of`` merged samples equal to its key
   (:mod:`repro.core.splitters`) cuts rank ``r``'s local tie ``[lo, hi)``
   at ``lo + ⌊(hi − lo)·at/of + r/p⌋``.

A key sampled once (``at == of == 1``) cuts at ``hi``, exactly as Figure 3a.
The ``r/p`` term spreads the rounding across ranks: by Hermite's identity,
``Σ_r ⌊x + r/p⌋ = ⌊p·x⌋``, so ``p`` equal local ties split exactly.  The
paper's equal division is the all-tie case of this rule: with ~80% of a
right-skewed dataset tied at the top value, the 7 duplicated splitters at
quantiles 30%..90% sit at ``at/of`` = 1/8 .. 7/8 of the tie, which leaves
pieces of exactly 80%/8 = 10% — the flat 9.998% of Table II for
processors 2-9.  Where the tie does not start on a quantile, equal division
would ignore what its first destination already holds below the tie; the
proportional cut does not (:func:`repro.core.verify.max_partition_bound`
is the balance this buys).
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


def compute_cuts(
    sorted_keys: np.ndarray, splitters: np.ndarray, rank: int = 0
) -> CutResult:
    """Duplicate-aware cut computation (the investigator) on rank ``rank``.

    ``splitters`` are step 3's, as :func:`repro.core.splitters.select_splitters`
    or :func:`~repro.core.splitters.splitter_array` returns them (fields
    ``key``, ``at``, ``of``; ``p - 1`` of them), not plain keys;
    ``sorted_keys`` is an array or anything else with its ``searchsorted``.
    """
    _check_splitters(splitters)
    p = len(splitters) + 1
    values, inverse = np.unique(splitters["key"], return_inverse=True)
    # One searchsorted call per side over all *distinct* values: this is the
    # "binary search to be executed for only non-duplicated splitters".
    los = sorted_keys.searchsorted(values, side="left")[inverse]
    his = sorted_keys.searchsorted(values, side="right")[inverse]
    at = splitters["at"].astype(np.int64)
    of = splitters["of"].astype(np.int64)
    # cut = lo + ⌊(hi − lo)·at/of + rank/p⌋, exactly: the quotient, plus
    # one where the remainder's fraction and rank/p reach a whole key.
    whole, rest = np.divmod((his - los) * at, of)
    cuts = los + whole + (rest * p + rank * of >= of * p)
    # Splitters arrive sorted from the Master and ``at`` grows within a tie,
    # so the cut array is non-decreasing by construction.
    return CutResult(cuts, 2 * len(values))


def compute_rank_cuts(
    sorted_keys: np.ndarray,
    splitters: np.ndarray | None,
    size: int,
    *,
    rank: int = 0,
    investigator: bool = True,
) -> CutResult:
    """Step-4 cuts with the empty-splitter fallback every backend shares.

    ``splitters`` being ``None`` or empty means no rank produced samples
    (an empty dataset): everything routes to the Master, expressed as all
    cut points sitting at ``len(sorted_keys)``.  Otherwise dispatches to
    the investigator (cutting as rank ``rank``) or the naive strategy.  The
    simulated sorter, the in-process reference backend, and the
    multiprocess backend all call this one helper, which is what keeps
    their partitions bit-identical.
    """
    if splitters is None or len(splitters) == 0:
        return CutResult(np.full(size - 1, len(sorted_keys), dtype=np.int64), 0)
    if investigator:
        return compute_cuts(sorted_keys, splitters, rank)
    return compute_cuts_naive(sorted_keys, splitters)


def compute_cuts_naive(
    sorted_keys: np.ndarray, splitters: np.ndarray, side: str = "right"
) -> CutResult:
    """Figure 3b behaviour: one binary search per splitter, duplicates and
    all.  Ties all land on one destination — used by the no-investigator
    ablation baseline.  ``splitters`` are step 3's, as for
    :func:`compute_cuts`."""
    _check_splitters(splitters)
    cuts = sorted_keys.searchsorted(splitters["key"], side=side).astype(np.int64)
    return CutResult(cuts, len(splitters))


def _check_splitters(splitters: np.ndarray) -> None:
    if np.asarray(splitters).dtype.names != ("key", "at", "of"):
        raise TypeError(
            "splitters must be step 3's splitter array (fields key, at, of), as "
            "select_splitters or splitter_array returns it, not plain keys"
        )


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

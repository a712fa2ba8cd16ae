"""Controlled-duplication key generators for stress tests and ablations.

The paper's central claim is robustness to "dataset containing many
duplicated data entries"; these generators dial the duplication structure
precisely (number of distinct values, frequency skew) so tests can probe the
investigator across the whole spectrum, from all-distinct to single-value.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def zipf_keys(
    n: int,
    distinct: int,
    *,
    exponent: float = 1.2,
    seed: int = 0,
) -> np.ndarray:
    """``n`` keys over ``distinct`` values with Zipf-distributed frequency.

    ``exponent`` controls the skew: 0 is uniform over the distinct values,
    larger values concentrate mass on the first few.  Values are shuffled
    over the integer range so rank does not correlate with magnitude.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if distinct < 1:
        raise ValueError("distinct must be >= 1")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, distinct + 1, dtype=np.float64) ** exponent
    weights /= weights.sum()
    values = rng.permutation(distinct).astype(np.int64)
    return values[rng.choice(distinct, size=n, p=weights)]


def single_value_keys(n: int, value: int = 42) -> np.ndarray:
    """The degenerate extreme: every entry identical."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return np.full(n, value, dtype=np.int64)


def partially_sorted(
    n: int,
    runs: int,
    *,
    seed: int = 0,
    value_range: int = 1 << 30,
) -> np.ndarray:
    """Keys arranged as ``runs`` ascending natural runs.

    ``runs=1`` is fully sorted, ``runs=n/2`` statistically random.  Used by
    the presortedness study: TimSort's run detection (the reason the paper
    says Spark's sort "performs better when the data is partially sorted")
    makes such inputs cheap for Spark while PGX.D's quicksort is oblivious.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, value_range, n, dtype=np.int64)
    bounds = [n * i // runs for i in range(runs + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        keys[lo:hi] = np.sort(keys[lo:hi])
    return keys


def block_duplicates(
    n: int,
    distinct: int,
    seed: int = 0,
) -> np.ndarray:
    """Equal-frequency duplicates: each of ``distinct`` values appears
    ``n/distinct`` times (±1), shuffled.  The sample-sort granularity edge
    case: balance is only achievable by splitting tied ranges."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if distinct < 1:
        raise ValueError("distinct must be >= 1")
    rng = np.random.default_rng(seed)
    reps = np.full(distinct, n // distinct, dtype=np.int64)
    reps[: n % distinct] += 1
    keys = np.repeat(np.arange(distinct, dtype=np.int64), reps)
    rng.shuffle(keys)
    return keys


# ------------------------------------------------------------ adversaries
#
# Inputs built against the investigator's balance guarantee
# (:func:`repro.core.verify.max_partition_bound`): ties that do not start or
# end on a quantile, ties held by one or two ranks only, and ties of every
# size at once.  Each takes ``(n, p, seed)`` for ``p`` equal blocks, as
# :func:`repro.core.api.partition_input` cuts them.


def few_distinct(n: int, p: int, seed: int = 0, *, distinct: int = 3) -> np.ndarray:
    """``distinct`` values with random frequencies: no tie is a quantile."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(distinct))
    return rng.choice(distinct, size=n, p=weights).astype(np.int64)


def tie_across_splitters(
    n: int, p: int, seed: int = 0, *, share: float = 0.55, value_range: int = 4096
) -> np.ndarray:
    """One value holds ``share`` of the keys, spanning about ``share·p``
    splitters, in the middle of a uniform spread over ``value_range``."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, value_range, n, dtype=np.int64)
    keys[rng.random(n) < share] = value_range // 2
    return keys


def atom_with_thin_tail(n: int, p: int, seed: int = 0, *, value_range: int = 4096) -> np.ndarray:
    """The exponential case: an atom at 0 and, above it, a tail spread over
    ``value_range`` values holding less than one processor's share
    (``1/(2p)`` of the keys)."""
    rng = np.random.default_rng(seed)
    keys = np.zeros(n, dtype=np.int64)
    tail = rng.random(n) < 1.0 / (2 * p)
    keys[tail] = rng.integers(1, value_range + 1, int(tail.sum()))
    return keys


def staircase(n: int, p: int, seed: int = 0, *, steps: int | None = None) -> np.ndarray:
    """Ascending stairs of equal keys (``3p + 1`` by default) in input
    order: each rank holds a few stairs, and a tie lives on one or two."""
    steps = 3 * p + 1 if steps is None else steps
    return (np.arange(n, dtype=np.int64) * steps) // max(n, 1)


def sorted_per_rank(n: int, p: int, seed: int = 0) -> np.ndarray:
    """Every rank's block already sorted, over a 100-value domain whose
    frequencies rise with the value: p ascending runs of skewed ties."""
    rng = np.random.default_rng(seed)
    keys = np.sqrt(rng.random(n) * 100 * 100).astype(np.int64)
    bounds = [n * r // p for r in range(p + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        keys[lo:hi].sort()
    return keys


#: The adversaries by name, each ``(n, p, seed) -> int64 keys``.
ADVERSARIAL: dict[str, Callable[[int, int, int], np.ndarray]] = {
    "few distinct": few_distinct,
    "tie across splitters": tie_across_splitters,
    "atom with thin tail": atom_with_thin_tail,
    "staircase": staircase,
    "sorted per rank": sorted_per_rank,
    "all equal": lambda n, p, seed: single_value_keys(n),
}

"""Counts-matrix exchange layout: the one source of shm run offsets.

The zero-copy all-to-all of the process backend works because every
(src, dst) run of keys has exactly one home in the shared exchange
stream, computable by every rank from the allgathered counts matrix
alone: destination ``dst``'s region starts at the exclusive prefix sum
of per-destination totals (``rank_base``), and within that region the
runs are laid out back to back in source order (``col_starts``).  The
regions are disjoint by construction, which is the invariant that lets
``p`` processes write concurrently with zero locks — and the invariant
ShmSan (:mod:`repro.parallel.shmsan`) checks at runtime.

Every consumer of exchange offsets goes through this module: the worker
loop computes its write positions with :meth:`ExchangeLayout.run_offset`,
the driver carves per-rank output regions with
:meth:`ExchangeLayout.region`, and the happens-before analyzer
(:mod:`repro.checks.hb`) recomputes the expected intervals from the same
arithmetic.  repro-lint rule R011 enforces the funnel statically: a
prefix sum over a counts matrix anywhere else in the real-parallel
backend — a second copy of this arithmetic waiting to drift — is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExchangeLayout:
    """Element offsets of every (src, dst) run in the exchange stream."""

    #: ``counts[src, dst]`` = keys shipped src -> dst.
    counts: np.ndarray
    #: ``rank_base[dst]`` = first element of dst's region; ``rank_base[p]``
    #: is the total stream length (exclusive prefix of per-dst totals).
    rank_base: np.ndarray
    #: ``col_starts[src, dst]`` = exclusive prefix within dst's region, by
    #: source — the run's offset relative to ``rank_base[dst]``.
    col_starts: np.ndarray
    #: ``recv_totals[dst]`` = total keys landing at dst (column sums).
    recv_totals: np.ndarray

    @property
    def size(self) -> int:
        return int(self.counts.shape[0])

    @property
    def total(self) -> int:
        """Total elements in the exchange stream (all runs together)."""
        return int(self.rank_base[-1])

    def run_offset(self, src: int, dst: int) -> int:
        """First element of the (src, dst) run in the exchange stream."""
        return int(self.rank_base[dst] + self.col_starts[src, dst])

    def run_length(self, src: int, dst: int) -> int:
        """Elements in the (src, dst) run."""
        return int(self.counts[src, dst])

    def region(self, rank: int) -> tuple[int, int]:
        """``(base, length)`` of rank's own receive region."""
        return int(self.rank_base[rank]), int(self.recv_totals[rank])


def exchange_layout(counts_matrix: np.ndarray) -> ExchangeLayout:
    """Derive the run layout from a ``(p, p)`` counts matrix.

    Pure integer prefix sums — identical on every rank that holds the same
    matrix, which is what makes the concurrent writes coordinate-free.
    """
    counts = np.asarray(counts_matrix, dtype=np.int64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError(f"counts matrix must be square, got {counts.shape}")
    size = counts.shape[0]
    recv_totals = counts.sum(axis=0)
    rank_base = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(recv_totals, out=rank_base[1:])
    col_starts = np.zeros_like(counts)
    np.cumsum(counts[:-1], axis=0, out=col_starts[1:])
    return ExchangeLayout(
        counts=counts,
        rank_base=rank_base,
        col_starts=col_starts,
        recv_totals=recv_totals,
    )

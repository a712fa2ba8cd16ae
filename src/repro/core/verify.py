"""Distributed verification of a sorted dataset, inside the simulation.

A production sorting library verifies its own output without regathering
the data on one node.  This module implements the standard distributed
check as a cluster program:

1. each processor verifies its local array is non-decreasing (one scan);
2. each processor sends its *last* key to its right neighbour, which
   checks the boundary ordering (``prev_last <= my_first``);
3. local key counts and checksums are reduced so the multiset can be
   compared against the pre-sort input's (count + sum + min/max — cheap
   invariants that catch lost or duplicated transfers).

The verdict is computed collectively and returned by every rank.
:func:`max_partition_bound` states what the sort promises about balance:
the most keys regular sampling and the investigator can send any processor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Generator, Sequence

import numpy as np

from ..pgxd.runtime import Machine, PgxdRuntime
from ..simnet.calls import Isend, Message, Recv
from ..simnet.collectives import allgather

TAG_BOUNDARY = 601


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the distributed check, identical on every rank."""

    locally_sorted: bool
    boundaries_ordered: bool
    total_keys: int
    checksum: int
    min_key: float
    max_key: float

    @property
    def ok(self) -> bool:
        return self.locally_sorted and self.boundaries_ordered

    def matches_input(self, reference: "VerificationReport") -> bool:
        """Same multiset invariants as a reference summary?"""
        return (
            self.total_keys == reference.total_keys
            and self.checksum == reference.checksum
            and self.min_key == reference.min_key
            and self.max_key == reference.max_key
        )


def summarize_input(data: np.ndarray) -> VerificationReport:
    """Driver-side invariants of the unsorted input, for comparison."""
    data = np.asarray(data)
    return VerificationReport(
        locally_sorted=True,
        boundaries_ordered=True,
        total_keys=len(data),
        checksum=_checksum(data),
        min_key=float(data.min()) if len(data) else np.inf,
        max_key=float(data.max()) if len(data) else -np.inf,
    )


def _checksum(keys: np.ndarray) -> int:
    """Order-independent 64-bit checksum of the key multiset."""
    if len(keys) == 0:
        return 0
    as_bytes = np.ascontiguousarray(keys).view(np.uint8).astype(np.uint64)
    # Positional-independent mix: sum of a keyed transform per element.
    chunks = as_bytes.reshape(len(keys), -1)
    mixed = (chunks * np.uint64(0x9E3779B97F4A7C15)) ^ (chunks >> np.uint64(3))
    return int(mixed.sum(dtype=np.uint64))


def verify_program(machine: Machine, local_keys: np.ndarray) -> Generator:
    """The distributed verification, as a runnable cluster program."""
    rank, size = machine.rank, machine.size
    keys = np.asarray(local_keys)
    locally_sorted = bool(np.all(keys[:-1] <= keys[1:])) if len(keys) else True
    yield machine.compute(
        machine.cost.scan_seconds(
            machine.data.scaled(int(keys.nbytes)), machine.threads
        ),
        "verify",
    )
    # Boundary chain: the running maximum-so-far flows left to right, so
    # empty processors forward their predecessor's boundary instead of
    # breaking the chain.
    boundary_ok = True
    if size > 1:
        prev_last = None
        if rank > 0:
            msg: Message = yield Recv(src=rank - 1, tag=TAG_BOUNDARY)
            prev_last = msg.payload
            if prev_last is not None and len(keys) and keys[0] < prev_last:
                boundary_ok = False
        forward = keys[-1] if len(keys) else prev_last
        if rank < size - 1:
            yield Isend(dst=rank + 1, nbytes=16, payload=forward, tag=TAG_BOUNDARY)
    # Collective verdict + multiset invariants.
    local_summary = (
        locally_sorted,
        boundary_ok,
        len(keys),
        _checksum(keys),
        float(keys.min()) if len(keys) else np.inf,
        float(keys.max()) if len(keys) else -np.inf,
    )
    summaries = yield from allgather(machine.proc, local_summary)
    return VerificationReport(
        locally_sorted=all(s[0] for s in summaries),
        boundaries_ordered=all(s[1] for s in summaries),
        total_keys=sum(s[2] for s in summaries),
        checksum=sum(s[3] for s in summaries) & (2**64 - 1),
        min_key=min(s[4] for s in summaries),
        max_key=max(s[5] for s in summaries),
    )


def max_partition_bound(
    block_lengths: Sequence[int], sample_counts: Sequence[int], p: int
) -> int:
    """The most keys any of ``p`` processors can receive (PSRS's guarantee).

    Rank ``r`` sorts ``nᵣ`` keys and samples ``sᵣ`` of them at positions
    ``⌊(i+1)·wᵣ⌋``, ``i < sᵣ``, with ``wᵣ = nᵣ/(sᵣ+1)``; so ``P(x) =
    ⌈x/wᵣ⌉ − 1`` samples lie before local position ``x ≥ 1`` (none before
    0), i.e. ``wᵣ·P(x) ≤ x ≤ wᵣ·(P(x)+1)``.  Splitter ``j`` is merged
    sample ``m_j = ⌊(j+1)·M/p⌋`` (``M = Σ sᵣ``), the ``at``-th of the
    ``of`` samples equal to its key.  Rank ``r`` holds ``βᵣ = P(lo)`` of
    the samples below that key and ``uᵣ = P(hi) − βᵣ`` of the tied ones,
    for its local tie ``[lo, hi)``: ``Σ βᵣ + at = m_j + 1`` and ``Σ uᵣ =
    of``.  With ``α = at/of`` and ``σᵣ = βᵣ + α·uᵣ`` (so ``Σ σᵣ = m_j +
    1``), the investigator's cut ``lo + ⌊(hi − lo)·α + r/p⌋`` lies above
    ``(1−α)·lo + α·hi − 1 ≥ wᵣ·σᵣ − 1`` and at most ``(p−1)/p`` above
    ``(1−α)·lo + α·hi ≤ wᵣ·(σᵣ + 1)``.  ``σᵣ`` never falls from one
    splitter to the next, and cuts 0 and ``nᵣ`` (``σᵣ = 0`` and ``sᵣ``)
    close the ends, where ``m_{−1} = −1`` and ``m_{p−1} = M − 1``.  So
    processor ``j`` gets fewer than ``wᵣ·Δσᵣ + wᵣ + 2 − 1/p`` keys from
    rank ``r``, with ``Σ Δσᵣ = m_j − m_{j−1} ≤ ⌊M/p⌋ + 1``.  Summed over
    the ranks::

        size_j < (⌊M/p⌋ + 1)·maxᵣ wᵣ + Σᵣ wᵣ + 2p − 1

    For equal blocks and sample counts (``M = p·s``) the first term is
    ``n/p``, leaving the classic regular-sampling slack of about ``p``
    sample gaps; distinct keys (``at == of == 1``) are the case PSRS
    proves.  A processor never gets more than all ``n`` keys either.
    """
    lengths = [int(n) for n in block_lengths]
    counts = [int(s) for s in sample_counts]
    if len(counts) != len(lengths):
        raise ValueError("one sample count per block required")
    weights = [Fraction(n, s + 1) for n, s in zip(lengths, counts)]
    gap = max(weights, default=Fraction(0))
    bound = (sum(counts) // p + 1) * gap + sum(weights) + 2 * p - 1
    return min(sum(lengths), math.ceil(bound) - 1)


def verify_distributed(
    per_processor: list[np.ndarray],
    runtime: PgxdRuntime | None = None,
) -> VerificationReport:
    """Run the verification program over already-distributed blocks."""
    runtime = runtime or PgxdRuntime(len(per_processor))
    if runtime.num_machines != len(per_processor):
        raise ValueError("one block per machine required")
    run = runtime.run(
        lambda machine: verify_program(machine, per_processor[machine.rank])
    )
    return run.results[0]

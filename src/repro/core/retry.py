"""Job retry and survivor-degraded recovery, one layer above both substrates.

A job is its immutable input blocks; an *attempt* runs them once — one
process-pool generation (:meth:`~repro.parallel.backend.ProcessBackend.
_run_job`) or one simulated run under a fault plan — and raises a typed
error when a rank dies.  :func:`run_with_retry` re-runs the job under a
:class:`RetryPolicy`, drops a rank that keeps dying, re-plans the input
over the survivors, and maps the survivor-width run back onto the
original rank space, so every input key comes back or the job raises.
Nothing here knows which substrate runs the attempts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from .provenance import Provenance


@dataclass(frozen=True)
class RetryPolicy:
    """How a job is re-run when an attempt fails.

    Attempts within one survivor set are bounded by :attr:`max_attempts`.
    When :attr:`degrade_after` failures charge to one rank (a *poisoned*
    rank — persistently dying, not transiently unlucky) it is dropped and
    the input re-planned over the survivors with a fresh attempt budget;
    ``degrade_after=None`` disables degradation (retry-only).  The backoff
    fields space the pool's wall-clock retries (:meth:`backoff_for`); a
    simulated attempt starts over in virtual time and waits for nothing.
    """

    #: Attempts allowed per survivor set before the job fails (>= 1).
    max_attempts: int = 3
    #: Backoff before retry k is ``backoff_seconds * 2**(k-1)`` ...
    backoff_seconds: float = 0.05
    #: ... capped here (seconds).
    backoff_cap_seconds: float = 1.0
    #: Failures charged to a single rank before it is declared poisoned
    #: and excluded by a survivor re-plan (None = never degrade).
    degrade_after: int | None = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_seconds < 0.0 or self.backoff_cap_seconds < 0.0:
            raise ValueError("backoff seconds must be >= 0")
        if self.degrade_after is not None and self.degrade_after < 1:
            raise ValueError("degrade_after must be >= 1 (or None)")

    def backoff_for(self, attempt_in_round: int) -> float:
        """Seconds to sleep before the given retry (1-based)."""
        return min(
            self.backoff_seconds * (2 ** max(attempt_in_round - 1, 0)),
            self.backoff_cap_seconds,
        )


def run_with_retry(
    attempt: Callable[[Sequence[np.ndarray], tuple[int, ...], int], Any],
    blocks: Sequence[np.ndarray],
    policy: RetryPolicy,
    retryable: tuple[type[BaseException], ...],
    history: list[dict],
) -> Any:
    """Run one job to completion under ``policy``.

    ``attempt(blocks, rank_ids, number)`` runs the job once, where
    ``rank_ids[slot]`` is the original rank running ``slot`` and ``number``
    counts attempts from 0.  It returns a run record — per-slot
    ``outputs`` (:class:`~repro.core.sorter.RankSortOutput`) and their
    ``counts_matrix`` — or raises.  An error of a ``retryable`` type is
    recorded in ``history`` (``attempt``, ``error``, ``rank``,
    ``exitcode``, ``last_step``) and the job runs again; any other error
    propagates.  A rank charged ``policy.degrade_after`` failures is
    dropped: the original input is re-partitioned over the survivors with
    :func:`~repro.core.api.partition_input` and a fresh attempt budget,
    and the run that succeeds is expanded back to the original width
    (:func:`_expand_degraded`).  Exhausting a survivor set's budget
    re-raises the last error.
    """
    from .api import partition_input  # api.py imports this module

    original_p = len(blocks)
    survivors = list(range(original_p))
    job_blocks, offsets = blocks, None
    charged: dict[int, int] = {}
    failed_in_round = 0
    while True:  # repro: noqa[R008] — bounded: a failure either counts toward policy.max_attempts or shrinks the survivor set
        rank_ids = tuple(survivors)
        try:
            run = attempt(job_blocks, rank_ids, len(history))
        except retryable as exc:
            culprit = _culprit_rank(exc, rank_ids)
            history.append(
                {
                    "attempt": len(history),
                    "error": type(exc).__name__,
                    "rank": culprit,
                    "exitcode": getattr(exc, "exitcode", None),
                    "last_step": getattr(exc, "last_step", None),
                }
            )
            failed_in_round += 1
            if culprit is not None:
                charged[culprit] = charged.get(culprit, 0) + 1
                if (
                    policy.degrade_after is not None
                    and charged[culprit] >= policy.degrade_after
                    and len(survivors) > 1
                ):
                    # Poisoned rank: drop it and re-plan over the survivors
                    # with a fresh attempt budget.
                    survivors.remove(culprit)
                    job_blocks, offsets = partition_input(
                        np.concatenate(blocks), len(survivors)
                    )
                    failed_in_round = 0
                    continue
            if failed_in_round >= policy.max_attempts:
                raise
            continue
        if len(survivors) < original_p:
            run = _expand_degraded(run, tuple(survivors), original_p, offsets)
        run.retries = len(history)
        run.attempt_history = tuple(history)
        return run


def _culprit_rank(exc: BaseException, rank_ids: tuple[int, ...]) -> int | None:
    """Original-rank identity of the failed attempt's culprit.

    Crash/failure errors name their rank outright; a phase-deadline
    timeout with exactly one rank missing from the stalled collective
    charges that rank (more than one missing is ambiguous — no
    attribution).  Slot indices map back through ``rank_ids``.
    """
    rank = getattr(exc, "rank", None)
    if rank is None:
        missing = getattr(exc, "missing_ranks", ())
        if len(missing) == 1:
            rank = missing[0]
    if rank is None or not 0 <= rank < len(rank_ids):
        return None
    return rank_ids[rank]


def _expand_degraded(
    run: Any, survivors: tuple[int, ...], original_p: int, offsets: np.ndarray
) -> Any:
    """Map a survivor-width run back onto the original rank space.

    Excluded slots get ``None`` outputs (SortResult renders them as
    empty partitions), the counts matrix is scattered through ``np.ix_``
    so traffic stays attributed to original identities, and provenance
    ``origin_proc`` is remapped so global indices stay exact against the
    original concatenated input — the re-planned offsets ride on
    ``run.input_offsets`` and override the caller's.
    """
    survivor_arr = np.asarray(survivors, dtype=np.int64)
    expanded_counts = np.zeros((original_p, original_p), dtype=run.counts_matrix.dtype)
    expanded_counts[np.ix_(survivor_arr, survivor_arr)] = run.counts_matrix
    outputs: list = [None] * original_p
    for out, orig in zip(run.outputs, survivors):
        prov = out.provenance
        outputs[orig] = replace(
            out,
            provenance=Provenance(
                survivor_arr[prov.origin_proc].astype(prov.origin_proc.dtype),
                prov.origin_index,
            ),
            sent_counts=expanded_counts[orig].copy(),
        )
    expanded_offsets = np.zeros(original_p, dtype=np.int64)
    expanded_offsets[survivor_arr] = offsets
    run.outputs = outputs
    run.counts_matrix = expanded_counts
    run.survivors = survivors
    run.recovery_rounds = original_p - len(survivors)
    run.input_offsets = expanded_offsets
    return run

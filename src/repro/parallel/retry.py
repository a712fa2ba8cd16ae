"""Job retry and survivor-degraded recovery for the process pool.

A mid-job worker death poisons the pool's generation; this module is the
policy layer above one attempt (:meth:`ProcessBackend._run_job`): re-run
the same job on a fresh generation under a :class:`RetryPolicy`, drop a
rank that keeps dying and re-plan over the survivors, and map the
survivor-width result back onto the original rank space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.provenance import Provenance
from ..core.sorter import SortOptions
from ..pgxd.config import PgxdConfig
from .chaos import RealFaultPlan
from .errors import (
    ControlPlaneTimeout,
    JobAbortedError,
    ParallelBackendError,
    WorkerCrashedError,
    WorkerFailedError,
)
from .run import BackendRun

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .backend import ProcessBackend


@dataclass(frozen=True)
class RetryPolicy:
    """How the pool re-runs a job whose generation crashed under it.

    A mid-job worker death poisons the generation (survivors may be
    wedged mid-collective); with a policy attached the backend respawns
    and re-runs the *same* job — same job id, per-attempt fresh
    generation and freshly staged leases — instead of propagating the
    typed error.  Attempts within one survivor set are bounded by
    :attr:`max_attempts` with capped exponential backoff between them;
    exhaustion raises :class:`~repro.parallel.errors.JobAbortedError`
    carrying the full attempt history.

    Degradation: when :attr:`degrade_after` consecutive-job crashes
    charge to one rank (a *poisoned rank* — persistently dying, not
    transiently unlucky), the backend excludes it, re-plans the input
    over the survivor set with a fresh attempt budget, and re-sorts at
    reduced p — surfacing ``SortResult.survivors``/``recovery_rounds``
    exactly as the simnet resilient sort does.  ``degrade_after=None``
    disables degradation (retry-only).
    """

    #: Attempts allowed per survivor set before aborting (>= 1).
    max_attempts: int = 3
    #: Backoff before retry k is ``backoff_seconds * 2**(k-1)`` ...
    backoff_seconds: float = 0.05
    #: ... capped here (seconds).
    backoff_cap_seconds: float = 1.0
    #: Crashes charged to a single rank before it is declared poisoned
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
    backend: "ProcessBackend",
    blocks: Sequence[np.ndarray],
    options: SortOptions,
    config: PgxdConfig,
    *,
    job_id: int,
    policy: RetryPolicy,
    chaos: "RealFaultPlan | None",
    force_resample: bool,
) -> BackendRun:
    """Run one job to completion under the retry/degradation policy.

    Round 0 runs the caller's blocks at full width.  A failed
    attempt is recorded (rank, exitcode, last heartbeat step), the
    poisoned generation is respawned by the next attempt, and the
    same plan re-runs after a capped exponential backoff.  A rank
    that crashes ``policy.degrade_after`` times is dropped: the
    original input is re-planned over the survivor set with
    :func:`~repro.core.api.partition_input` and a fresh attempt
    budget, and the eventual result is expanded back to original
    width (excluded slots empty) by :func:`_expand_degraded`.
    Exhausting a round's budget raises :class:`JobAbortedError`
    with the full attempt history.
    """
    original_p = len(blocks)
    survivors = list(range(original_p))
    attempts: list[dict] = []
    crash_counts: dict[int, int] = {}
    recovery_rounds = 0
    while True:  # repro: noqa[R008] — bounded: every re-plan shrinks the survivor set; the inner loop is capped by policy.max_attempts
        if recovery_rounds == 0:
            job_blocks: Sequence[np.ndarray] = blocks
            rank_ids: tuple[int, ...] | None = None
            round_offsets = None
        else:
            # Survivor re-plan: concatenate the ORIGINAL input and
            # re-partition over the reduced width, exactly like a
            # fresh sort at p' = len(survivors).  Late import: api.py
            # imports this module, so a top-level import would cycle.
            from ..core.api import partition_input

            data = np.concatenate(blocks)
            job_blocks, round_offsets = partition_input(
                data, len(survivors)
            )
            job_blocks = [np.ascontiguousarray(b) for b in job_blocks]
            rank_ids = tuple(survivors)
        attempt_in_round = 0
        while attempt_in_round < policy.max_attempts:
            try:
                run = backend._run_job(
                    job_blocks,
                    options,
                    config,
                    job_id=job_id,
                    attempt=len(attempts),
                    chaos=chaos,
                    rank_ids=rank_ids,
                    force_resample=force_resample,
                    prior_attempts=tuple(attempts),
                )
            except (
                WorkerCrashedError,
                WorkerFailedError,
                ControlPlaneTimeout,
            ) as exc:
                culprit = _culprit_rank(exc, rank_ids)
                attempts.append(
                    {
                        "attempt": len(attempts),
                        "error": type(exc).__name__,
                        "rank": culprit,
                        "exitcode": getattr(exc, "exitcode", None),
                        "last_step": getattr(exc, "last_step", None),
                    }
                )
                backend.retries += 1
                attempt_in_round += 1
                if culprit is not None:
                    crash_counts[culprit] = crash_counts.get(culprit, 0) + 1
                    if (
                        policy.degrade_after is not None
                        and crash_counts[culprit] >= policy.degrade_after
                        and culprit in survivors
                        and len(survivors) > 1
                    ):
                        # Poisoned rank: drop it and re-plan over the
                        # survivors with a fresh attempt budget.
                        survivors.remove(culprit)
                        recovery_rounds += 1
                        break
                if attempt_in_round >= policy.max_attempts:
                    backend.aborted_jobs += 1
                    raise JobAbortedError(job_id, attempts) from exc
                time.sleep(policy.backoff_for(attempt_in_round))
            else:
                if recovery_rounds:
                    run = _expand_degraded(
                        run,
                        tuple(survivors),
                        original_p,
                        round_offsets,
                        recovery_rounds,
                    )
                    backend.degraded_jobs += 1
                run.retries = len(attempts)
                run.attempt_history = tuple(attempts)
                return run

def _culprit_rank(
    exc: ParallelBackendError, rank_ids: tuple[int, ...] | None
) -> int | None:
    """Original-rank identity of the failed attempt's culprit.

    Crash/failure errors name their rank outright; a phase-deadline
    timeout with exactly one rank missing from the stalled
    collective charges that rank (more than one missing is
    ambiguous — no attribution).  Slot indices from degraded rounds
    are mapped back through ``rank_ids``.
    """
    rank = getattr(exc, "rank", None)
    if rank is None:
        missing = getattr(exc, "missing_ranks", ())
        if len(missing) == 1:
            rank = missing[0]
    if rank is None:
        return None
    if rank_ids is not None:
        return rank_ids[rank] if 0 <= rank < len(rank_ids) else None
    return int(rank)

def _expand_degraded(
    run: BackendRun,
    survivors: tuple[int, ...],
    original_p: int,
    offsets: np.ndarray,
    recovery_rounds: int,
) -> BackendRun:
    """Map a survivor-width run back onto the original rank space.

    Excluded slots get ``None`` outputs (SortResult renders them as
    empty partitions), the counts matrix is scattered through
    ``np.ix_`` so traffic stays attributed to original identities,
    and provenance ``origin_proc`` is remapped so global indices
    stay exact against the original concatenated input — the
    re-planned offsets ride on ``run.input_offsets`` and override
    the caller's offsets in ``to_sort_result``.
    """
    survivor_arr = np.asarray(survivors, dtype=np.int64)
    expanded_counts = np.zeros(
        (original_p, original_p), dtype=run.counts_matrix.dtype
    )
    expanded_counts[np.ix_(survivor_arr, survivor_arr)] = run.counts_matrix
    outputs: list = [None] * original_p
    reports: list = [None] * original_p
    for slot, orig in enumerate(survivors):
        out = run.outputs[slot]
        prov = out.provenance
        if prov is not None and len(prov.origin_proc):
            prov = Provenance(
                origin_proc=survivor_arr[prov.origin_proc].astype(
                    prov.origin_proc.dtype
                ),
                origin_index=prov.origin_index,
            )
        outputs[orig] = replace(
            out,
            provenance=prov,
            sent_counts=expanded_counts[orig].copy(),
            received_counts=expanded_counts[:, orig].copy(),
            survivors=tuple(survivors),
            recovery_rounds=recovery_rounds,
        )
        reports[orig] = run.reports[slot]
    expanded_offsets = np.zeros(original_p, dtype=np.int64)
    expanded_offsets[survivor_arr] = np.asarray(offsets, dtype=np.int64)
    run.outputs = outputs
    run.reports = reports
    run.counts_matrix = expanded_counts
    run.survivors = tuple(survivors)
    run.recovery_rounds = recovery_rounds
    run.input_offsets = expanded_offsets
    return run

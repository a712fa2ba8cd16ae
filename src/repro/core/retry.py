"""Job retry and survivor-degraded recovery, one layer above both substrates.

A substrate is an object with one ``sort_blocks`` (:mod:`repro.parallel.
backend`).  A job is its immutable input blocks; an *attempt* runs them
once — one simulated run or one process-pool generation — and raises a
typed error when a rank dies.  Every job on either substrate runs
through :func:`run_job`, which sets it up once (fault plan, retry policy,
what is retried), re-runs it under a
:class:`RetryPolicy`, drops a rank that keeps dying, re-plans the input
over the survivors, and maps the survivor-width run back onto the
original rank space, so every input key comes back or the job raises.
Without a fault plan or policy nothing is retryable: the job is its one
attempt.  Both substrates' attempts return a :class:`JobRun`, which turns
the finished job into a :class:`~repro.core.result.SortResult` with one
accounting of its faults.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ..faults import active_fault_plan
from ..simnet.metrics import ClusterMetrics, ProcessMetrics
from .provenance import Provenance
from .result import SortResult
from .sorter import RankSortOutput


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


@dataclass(kw_only=True)
class JobRun:
    """One finished job, in the original rank space, on either substrate.

    An attempt returns one at its own width; :func:`run_job`
    widens a degraded one (:func:`_expand_degraded`) and stamps the
    failed attempts on it.  Each substrate says what it measured
    (:meth:`measured_metrics`): simnet's record holds the simulator's
    metrics, the pool's (:class:`~repro.parallel.run.BackendRun`) derives
    them from its worker reports.
    """

    #: Per-rank outputs; None at a rank the job dropped.
    outputs: list[RankSortOutput | None]
    #: counts_matrix[src][dst] = keys shipped src -> dst.
    counts_matrix: np.ndarray
    #: Per-rank measurements (the simulator's :class:`ProcessMetrics`, or
    #: the pool's worker reports); None at a rank the job dropped.
    reports: list
    #: Original rank ids that produced this run after a survivor-degraded
    #: re-plan; None on the full-width path.
    survivors: tuple[int, ...] | None = None
    #: One record per failed attempt (``attempt``/``error``/``rank``/
    #: ``exitcode``/``last_step``).
    attempt_history: tuple = ()

    @property
    def retries(self) -> int:
        """Failed attempts before this run succeeded."""
        return len(self.attempt_history)

    @property
    def recovery_rounds(self) -> int:
        """Survivor re-plan rounds this job needed: the ranks it dropped."""
        return 0 if self.survivors is None else len(self.outputs) - len(self.survivors)

    def measured_metrics(self) -> ClusterMetrics:
        """What the substrate measured: one :class:`ProcessMetrics` per
        rank, None at a rank the job dropped."""
        raise NotImplementedError

    def cluster_metrics(self) -> ClusterMetrics:
        """The measured metrics with the retry layer's accounting: a
        dropped rank is crashed, and each failed attempt is charged to the
        rank it names, a ``ControlPlaneTimeout`` as a timeout and anything
        else as a retry.  All-zero on a clean run, so its report carries
        no ``faults`` block."""
        metrics = self.measured_metrics()
        # Copies: simnet's reports are the simulator's own metrics.
        processes = [
            ProcessMetrics(rank, crashed=True) if m is None else replace(m)
            for rank, m in enumerate(metrics.processes)
        ]
        for record in self.attempt_history:
            if record["rank"] is None:
                continue
            if record["error"] == "ControlPlaneTimeout":
                processes[record["rank"]].timeouts += 1
            else:
                processes[record["rank"]].retries += 1
        return replace(metrics, processes=processes)

    def to_sort_result(self) -> SortResult:
        """The user-facing :class:`~repro.core.result.SortResult`."""
        result = SortResult.from_rank_outputs(self.outputs, self.cluster_metrics())
        return replace(result, survivors=self.survivors, recovery_rounds=self.recovery_rounds)


def run_job(
    backend,
    attempt: Callable[..., JobRun],
    blocks: Sequence[np.ndarray],
    job: int,
    retry: RetryPolicy | bool | None,
    history: list[dict],
) -> JobRun:
    """Run job number ``job`` of ``backend`` to completion: every
    substrate's job setup and its one retry loop.

    The plan is the ambient one (:func:`~repro.faults.inject_faults`; a
    sorter's ``SortConfig.faults`` opens that scope), checked against the
    job's ranks and ``backend.name`` before attempt 0.  ``retry`` is a
    :class:`RetryPolicy`, True (the default policy), False or None (none);
    an active plan arms the default policy unless ``retry`` was given —
    faults without recovery would only turn planned kills into lost jobs.
    ``attempt(blocks, rank_ids, number, faults, policy)`` runs the job once
    under the plan :meth:`~repro.faults.FaultPlan.for_attempt` narrows
    (None without a plan), which it hands to its substrate itself;
    ``rank_ids[slot]`` is the original rank running ``slot`` and ``number``
    counts attempts from 0.  Under a policy, a ``backend.retryable`` error
    is recorded in ``history`` (``attempt``, ``error``, ``rank``,
    ``exitcode``, ``last_step``) and the job runs again; any other error
    propagates.  A rank charged ``policy.degrade_after`` failures is
    dropped, the original input re-partitioned over the survivors
    (:func:`~repro.core.api.partition_input`) with a fresh attempt budget,
    and the run that succeeds expanded back to the original width
    (:func:`_expand_degraded`).  Exhausting a survivor set's budget
    re-raises the last error.
    """
    from .api import partition_input  # api.py imports this module

    plan = active_fault_plan()
    policy = RetryPolicy() if retry is True else retry or None
    if plan is not None:
        plan.check_ranks(len(blocks))
        plan.check_substrate(backend.name)
        if retry is None:
            policy = RetryPolicy()
    retryable = () if policy is None else backend.retryable
    policy = policy or RetryPolicy()

    original_p = len(blocks)
    survivors = list(range(original_p))
    job_blocks = blocks
    charged: dict[int, int] = {}
    failed_in_round = 0
    while True:  # repro: noqa[R008] — bounded: a failure either counts toward policy.max_attempts or shrinks the survivor set
        rank_ids = tuple(survivors)
        number = len(history)
        narrowed = None if plan is None else plan.for_attempt(rank_ids, number, job)
        try:
            run = attempt(job_blocks, rank_ids, number, narrowed, policy)
        except retryable as exc:
            culprit = _culprit_rank(exc, rank_ids)
            history.append(
                {
                    "attempt": number,
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
                    job_blocks, _ = partition_input(np.concatenate(blocks), len(survivors))
                    failed_in_round = 0
                    continue
            if failed_in_round >= policy.max_attempts:
                raise
            continue
        if len(survivors) < original_p:
            run = _expand_degraded(run, tuple(survivors), original_p)
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


def _expand_degraded(run: JobRun, survivors: tuple[int, ...], original_p: int) -> JobRun:
    """Map a survivor-width run back onto the original rank space.

    Excluded slots get ``None`` outputs and reports (SortResult renders
    them as empty partitions, its metrics as crashed ranks) and an empty
    block at the next survivor's start, so the expanded block starts stay
    monotone; the counts matrix is scattered through ``np.ix_`` so traffic
    stays attributed to original identities.  The re-planned blocks
    concatenate back to the original input, so every origin position is
    already exact: provenance only takes the expanded block starts,
    through which ``origin_proc`` names original ranks.
    """
    survivor_arr = np.asarray(survivors, dtype=np.int64)
    expanded_counts = np.zeros((original_p, original_p), dtype=run.counts_matrix.dtype)
    expanded_counts[np.ix_(survivor_arr, survivor_arr)] = run.counts_matrix
    planned = run.outputs[0].provenance.block_starts
    starts = np.full(original_p + 1, planned[-1], dtype=np.int64)
    starts[survivor_arr] = planned[:-1]
    starts = np.minimum.accumulate(starts[::-1])[::-1]  # excluded: the next start
    outputs: list = [None] * original_p
    reports: list = [None] * original_p
    for out, report, orig in zip(run.outputs, run.reports, survivors):
        outputs[orig] = replace(
            out,
            provenance=Provenance(out.provenance.origin, starts),
            sent_counts=expanded_counts[orig].copy(),
        )
        reports[orig] = replace(report, rank=orig)
    run.outputs = outputs
    run.reports = reports
    run.counts_matrix = expanded_counts
    run.survivors = survivors
    return run

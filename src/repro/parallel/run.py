"""One finished pool job: its run record and how it is assembled from
the job's shared-memory leases.

:class:`BackendRun` is the pool's :class:`~repro.core.retry.JobRun`;
:func:`collect_run` builds it — zero-copy, by pinning the job's own
output leases — and :class:`ProcessRunHandle` lets an obs capture adopt
it like a simulator session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.datapath import OUTPUT_ROLES, JobStorage, surfaced_sort_path
from ..core.provenance import Provenance
from ..core.retry import JobRun
from ..core.sorter import RankSortOutput
from .layout import exchange_layout
from .shmsan import ShmSan
from .tracing import merge_worker_traces
from .worker import WorkerReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .backend import ProcessBackend

#: Job results that may own arena segments at once (see
#: :func:`collect_run`).  A held result keeps up to 2 segments
#: (keys, index) x 2 fds open in the driver and mapped in every
#: worker, so the count is bounded; a job finishing beyond it is handed
#: private copies instead.  Two would cover the ``r = backend.sort_blocks(
#: ...)`` loop (the previous result dies only after the next call
#: returns); 4 leaves room to compare a few results side by side.
MAX_PINNED_RESULTS = 4


@dataclass(kw_only=True)
class BackendRun(JobRun):
    """One finished pool job: the :class:`~repro.core.retry.JobRun` the
    process backend returns, with its wall clocks and worker reports.

    Its outputs' arrays are writable views of the shared memory step 6
    merged into, owned by this result (they outlive the pool; pickling
    copies them) — see :data:`MAX_PINNED_RESULTS`.  Its reports are the
    per-rank :class:`~repro.parallel.worker.WorkerReport`: the measured
    waits, peak RSS, what the job's data path declared, and optional
    trace payloads.
    """

    #: Final splitters the Master selected.
    splitters: np.ndarray
    #: Driver-observed wall seconds for the whole run (spawn to collect).
    wall_seconds: float
    #: Max over workers of in-step wall seconds (excludes spawn overhead).
    worker_seconds: float
    #: Pool job id (0 on non-pooled backends).
    job_id: int = 0
    #: Splitter-cache verdict for this job (``cold``/``hit``/``miss``;
    #: None on non-pooled backends).
    splitter_cache: str | None = None

    def measured_metrics(self):
        """Wall-clock :class:`~repro.simnet.metrics.ClusterMetrics` shim,
        so ``elapsed_seconds``, ``step_breakdown`` and friends answer in
        real seconds.

        The accounting is *measured*, from the worker reports: each step's
        compute is its wall minus the blocking time the worker clocked
        inside collectives during that step, the recv/barrier wait totals
        are the worker's own, and peak resident memory is the worker
        process's real ``ru_maxrss``; shm traffic counts as bytes and the
        driver's wall time is the makespan.
        """
        from ..simnet.metrics import ClusterMetrics, ProcessMetrics

        processes = []
        remote_bytes = 0
        local_bytes = 0
        messages = 0
        for rank, (out, report) in enumerate(zip(self.outputs, self.reports)):
            if out is None:
                processes.append(None)
                continue
            row = self.counts_matrix[rank]
            col = self.counts_matrix[:, rank]
            off_row = int(row.sum() - row[rank])
            off_col = int(col.sum() - col[rank])
            m = ProcessMetrics(rank=rank)
            for label, wall in out.step_seconds.items():
                waited = report.step_wait_seconds.get(label, 0.0)
                m.phase_seconds[label] = max(wall - waited, 0.0)
            m.recv_wait_seconds = report.recv_wait_seconds
            m.barrier_wait_seconds = report.barrier_wait_seconds
            m.memory.peak_resident = report.peak_rss_bytes
            m.memory.peak_total = report.peak_rss_bytes
            m.local_sort_path = surfaced_sort_path(report.local_sort_path)
            m.partition_keys = int(col.sum())
            # What one key cost on the wire is the data path's to say.
            per_key = report.bytes_per_key
            m.bytes_sent = off_row * per_key
            m.bytes_received = off_col * per_key
            m.messages_sent = int(np.count_nonzero(np.delete(row, rank)))
            m.messages_received = int(np.count_nonzero(np.delete(col, rank)))
            m.finished_at = sum(out.step_seconds.values())
            processes.append(m)
            remote_bytes += m.bytes_sent
            local_bytes += int(row[rank]) * per_key
            messages += m.messages_sent
        return ClusterMetrics(
            processes=processes,
            makespan=self.wall_seconds,
            remote_bytes=remote_bytes,
            local_bytes=local_bytes,
            messages=messages,
        )


def collect_run(
    backend: "ProcessBackend",
    reports: dict[int, WorkerReport],
    storage: JobStorage,
    wall: float,
    san: ShmSan | None = None,
) -> BackendRun:
    """Assemble one finished job's :class:`BackendRun` from its output
    leases (``storage``'s :data:`~repro.core.datapath.OUTPUT_ROLES`)."""
    leases = {role: getattr(storage, role) for role in OUTPUT_ROLES}
    size = len(reports)
    counts_matrix = np.stack([reports[r].counts_row for r in range(size)])
    layout = exchange_layout(counts_matrix)
    # Zero-copy hand-off: the result's arrays are slices of the job's
    # own output leases, which the arena keeps out of the pool until
    # the last of them dies.  With the pin budget spent, the job gets
    # private copies and its leases go back with release_all.
    pinned = (
        backend.arena.pinned_segments + len(leases) <= len(leases) * MAX_PINNED_RESULTS
    )
    if pinned:
        backend.results_pinned += 1
        views = {role: backend.arena.pin(l) for role, l in leases.items()}
    else:
        backend.results_copied += 1
        views = {role: backend.arena.view(l) for role, l in leases.items()}
    if san is not None:
        for role, lease in leases.items():
            if pinned:
                san.pin_lease(role, lease, views[role])
            if layout.total:
                # The driver takes over the merged regions — ordered
                # after every worker access, but recorded so the log
                # is the whole story of the segments' lifetimes.
                san.parent_access(
                    lease, 0, layout.total, "r", f"collect-{role}",
                    when="after",
                )
    outputs = []
    for rank in range(size):
        report = reports[rank]
        lo, length = layout.region(rank)
        hi = lo + length
        parts = {role: view[lo:hi] for role, view in views.items()}
        if not pinned:  # fresh arrays: the leases return to the pool
            parts = {role: part.copy() for role, part in parts.items()}
        outputs.append(
            RankSortOutput(
                keys=parts["keys"],
                provenance=Provenance(parts["index"], storage.block_starts),
                step_seconds=dict(report.step_seconds),
                sent_counts=counts_matrix[rank].copy(),
            )
        )
    master = reports[0]
    splitters = (
        master.splitters
        if master.splitters is not None
        else outputs[0].keys[:0].copy()
    )
    worker_seconds = max(reports[r].wall_seconds for r in range(size))
    return BackendRun(
        outputs=outputs,
        splitters=splitters,
        counts_matrix=counts_matrix,
        wall_seconds=wall,
        worker_seconds=worker_seconds,
        reports=[reports[r] for r in range(size)],
    )


class ProcessRunHandle:
    """Adopted-capture runner: a finished process-backend run as a session.

    Fills the ``simulator`` slot of an obs :class:`~repro.obs.context.Session`
    for runs the real backend registered with ``adopt_session``: report
    writers duck-type against ``_ran``/``metrics()`` (and, when present,
    ``step_seconds``) and never notice they are not holding a simulator.
    """

    def __init__(self, run: BackendRun) -> None:
        self.run = run
        self._ran = True

    def metrics(self):
        return self.run.cluster_metrics()

    @property
    def step_seconds(self) -> list[dict[str, float]]:
        """Measured per-rank ``{step label: wall seconds}`` dicts."""
        return [dict(out.step_seconds) for out in self.run.outputs]


def adopt_run(
    cap,
    run: BackendRun,
    start: float,
    driver_counters: list[tuple[float, str, float]],
    prior_attempts: tuple = (),
) -> None:
    """Register a traced run with the ambient obs capture ``cap``.

    Assembles the per-worker payloads into one simnet-schema tracer on the
    hub timeline (t=0 at ``start``, the driver's clock at sort start) and
    registers it exactly like a simulator session.
    """
    tracer = merge_worker_traces(
        (r.trace for r in run.reports if r.trace is not None),
        num_ranks=len(run.outputs),
        base_time=start,
        makespan=run.wall_seconds,
        driver_counters=driver_counters,
    )
    for record in prior_attempts:
        # Failed attempts left no worker trace (their generation
        # died); surface them as t=0 fault events on the culprit
        # rank's track so the retry history is visible per run.
        tracer.fault(
            record["rank"] if record["rank"] is not None else 0,
            0.0,
            "retry",
            detail=(
                f"attempt {record['attempt']}: {record['error']}"
                f" at {record['last_step']}"
            ),
        )
    cap.adopt_session(tracer, ProcessRunHandle(run))

"""Execution backends: one sort program, simnet or real processes.

A substrate is an object with one ``sort_blocks(blocks, options,
config)`` per job, and the repository's six-step sample sort has two:

* :class:`SimnetBackend` — the deterministic virtual-time simulator (the
  default; golden-fingerprinted, fault-injectable, zero real parallelism);
* :class:`ProcessBackend`: one OS process per rank, key/provenance
  arrays in :mod:`multiprocessing.shared_memory` blocks leased from a
  :class:`~repro.parallel.arena.SharedArena`, a zero-copy all-to-all
  through peer-addressed shm regions, and the control plane's collectives
  and heartbeats in a shared-memory control region, with the job plane
  (dispatch and reports) on pipes.

Both produce bit-identical per-rank partitions (pinned by the
cross-backend equivalence tests against the ``local_backend`` oracle and
the simnet golden fingerprint); they differ in what the clock means —
virtual seconds there, wall seconds here.  Both set every job up in one
function, :func:`~repro.core.retry.run_job`.

Backend selection: :class:`~repro.core.api.SortConfig` takes a name from
:data:`BACKENDS` (``backend="process"``), which builds a fresh backend per
sorter call, or an ambient default installed with :func:`use_backend`
(how the experiments CLI's ``--backend`` flag reaches every sorter an
experiment builds).  Both accept a backend *instance* as well as a name,
which is how one warm pool is shared: ``use_backend(ProcessBackend())``
routes every sort in the scope through it (and the scope does **not**
close the instance — its owner does).

The :class:`ProcessBackend` is a **persistent worker pool**: the rank
processes are spawned on first use, parked in
:func:`~repro.parallel.worker.worker_main`'s job loop between sorts, and
fed per-job :class:`~repro.parallel.worker.JobSpec` messages over the
control pipes.  This module holds the pool's lifecycle and one job
attempt (:meth:`ProcessBackend._run_job`); result assembly lives in
:mod:`repro.parallel.run`, the splitter cache in
:mod:`repro.parallel.splitter_cache`.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import ClassVar, Protocol, Sequence

import numpy as np

from ..core.datapath import lay_out
from ..core.retry import JobRun, RetryPolicy, run_job
from ..core.sorter import STEP_LABELS, SortJob, SortOptions, sample_sort_program
from ..core.steps import sample_bytes
from ..faults import FaultPlan, inject_faults
from ..obs.context import active_capture
from ..pgxd.config import PgxdConfig
from ..pgxd.runtime import PgxdRuntime
from ..simnet.cost import CostModel
from ..simnet.errors import DeadlockError
from ..simnet.metrics import ClusterMetrics
from ..simnet.network import NetworkModel
from .arena import SharedArena
from .collectives import (
    ControlRegion,
    dispatch_job,
    send_shutdown,
    serve_control_plane,
    slot_payload_bytes,
)
from .errors import (
    ControlPlaneTimeout,
    JobAbortedError,
    ParallelBackendError,
    PoolClosedError,
    WorkerCrashedError,
    WorkerFailedError,
)
from .run import BackendRun, adopt_run, collect_run
from .shmsan import active_shm_sanitizer
from .splitter_cache import SplitterCache, SplitterProbe
from .tracing import ambient_progress
from .worker import JobSpec, WorkerReport, worker_main

_default_backend: "str | ExecutionBackend" = "simnet"


def default_backend() -> "str | ExecutionBackend":
    """The ambient backend used when a SortConfig does not pick one.

    Either a name from :data:`BACKENDS` or a live backend instance (a
    shared pool installed with :func:`use_backend`).
    """
    return _default_backend


@contextmanager
def use_backend(name: "str | ExecutionBackend"):
    """Scope the ambient default backend (the CLI's ``--backend`` plumbing).

    Accepts a name (``"simnet"``/``"process"``) or a backend instance —
    the latter is how one persistent pool serves every sorter built in
    the scope.  Instance lifetime stays with the caller: leaving the
    scope restores the previous default but never closes the instance.
    """
    global _default_backend
    previous = _default_backend
    _default_backend = _validated(name)
    try:
        yield
    finally:
        _default_backend = previous


def resolve_backend(
    name: "str | ExecutionBackend | None",
) -> "str | ExecutionBackend":
    """Explicit choice wins; None falls back to the ambient default."""
    return _validated(name) if name is not None else _default_backend


def _validated(name: "str | ExecutionBackend") -> "str | ExecutionBackend":
    if not isinstance(name, str):
        if hasattr(name, "sort_blocks"):
            return name
        raise ValueError(
            f"backend must be a name from {tuple(BACKENDS)} or an object with "
            f"sort_blocks(), got {type(name).__name__}"
        )
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choose one of {tuple(BACKENDS)}")
    return name


class ExecutionBackend(Protocol):
    """What a substrate must provide to run the partitioned sort (its
    ``retryable`` errors are those a retry policy re-runs an attempt after)."""

    name: str
    retryable: tuple[type[BaseException], ...]

    def sort_blocks(
        self,
        blocks: Sequence[np.ndarray],
        options: SortOptions | None = None,
        config: PgxdConfig | None = None,
    ) -> JobRun: ...


@dataclass(kw_only=True, eq=False)
class SimnetBackend:
    """Virtual-time substrate: each attempt of a job is one
    :class:`~repro.pgxd.runtime.PgxdRuntime` run of the six steps, with
    one simulated machine per block, under the simulated cluster's models
    (``rank_speed`` gives one factor per block).  Jobs are numbered from 0
    in call order, each under the ambient plan (``inject_faults``); an
    attempt runs its runtime under the plan narrowed to it.
    """

    name: ClassVar[str] = "simnet"
    retryable: ClassVar[tuple] = (DeadlockError,)

    network: NetworkModel | None = None
    cost: CostModel | None = None
    rank_speed: Sequence[float] | None = None
    _job_counter: int = field(default=0, init=False, repr=False)

    def close(self) -> None:
        """Nothing to retire: each run's simulator is freed with it."""

    def sort_blocks(
        self,
        blocks: Sequence[np.ndarray],
        options: SortOptions | None = None,
        config: PgxdConfig | None = None,
    ) -> "_SimRun":
        """Sort already-partitioned, dtype-uniform blocks as one job."""
        options = options or SortOptions()
        blocks = [np.asarray(b) for b in blocks]
        dtypes = {b.dtype for b in blocks}
        if len(dtypes) > 1:
            raise ValueError(
                f"simnet backend requires dtype-uniform blocks, got "
                f"{sorted(map(str, dtypes))}; pre-convert them to one dtype"
            )
        if self.rank_speed is not None and len(self.rank_speed) != len(blocks):
            raise ValueError(f"rank_speed needs one factor per block, got {len(self.rank_speed)}")
        job = self._job_counter
        self._job_counter += 1

        def attempt(job_blocks, rank_ids, number, faults, policy) -> _SimRun:
            # A simulated attempt starts over in virtual time: no backoff.
            speed = None if self.rank_speed is None else tuple(self.rank_speed[r] for r in rank_ids)
            runtime = PgxdRuntime(len(rank_ids), config, self.network, self.cost, rank_speed=speed)
            sort_job = SortJob(job_blocks)
            # The program is the step generator itself (no `yield from`
            # shim): one less frame on every event resume of the run.
            with inject_faults(faults) if faults is not None else nullcontext():
                run = runtime.run(
                    lambda machine: sample_sort_program(machine, job_blocks[machine.rank], options, sort_job)
                )
            return _SimRun(
                outputs=run.results,
                counts_matrix=np.stack([out.sent_counts for out in run.results]),
                reports=run.metrics.processes,
                metrics=run.metrics,
            )

        return run_job(self, attempt, blocks, job, None, [])


@dataclass(kw_only=True)
class _SimRun(JobRun):
    """One simulated run: its reports are the simulator's per-rank
    metrics, and :attr:`metrics` holds the run-wide totals."""

    metrics: ClusterMetrics

    def measured_metrics(self) -> ClusterMetrics:
        return replace(self.metrics, processes=self.reports)


class ProcessBackend:
    """Real-parallel substrate: a persistent pool of rank processes.

    The first ``sort_blocks`` call spawns one worker per rank; the
    workers then park in their job loop and subsequent sorts are pure
    dispatch — no process spawn, no shm re-mapping (the arena pools its
    segments and the workers cache their attachments), and, when the
    :class:`SplitterCache` recognizes a job's distribution fingerprint,
    no splitter selection either.  Use as a context manager (or call
    :meth:`close`) to shut the workers down and unlink the arena; a
    one-shot caller gets per-sort teardown from
    ``with ProcessBackend() as backend:``.  Results stay valid after
    that: their arrays are the job's own output leases, pinned in the
    arena (and kept mapped past ``close``) until the last view dies.

    Crash policy: a worker death or failure *poisons the generation* —
    survivors may be wedged mid-collective in the control region, so
    the whole pool is torn down with the typed error, and the next job
    transparently respawns a fresh generation (counted in
    :attr:`respawns`).  The pool itself stays usable; only :meth:`close`
    retires it (:class:`~repro.parallel.errors.PoolClosedError` after).

    Workers are forked where the platform can (cheapest spawn; they
    re-import nothing) and spawned elsewhere — the spec and worker entry are
    picklable, so both work.  ``timeout_seconds`` bounds control-plane
    silence, turning any stall into a typed error.  Live heartbeats go to
    the ambient :func:`~repro.parallel.tracing.use_progress` sink.

    Observers attach through their ambient scopes, read per job: a fault
    plan through :func:`~repro.faults.inject_faults`, ShmSan
    (:mod:`repro.parallel.shmsan`) through
    :func:`~repro.parallel.shmsan.shm_sanitize` and the tracer through
    :func:`repro.obs.capture`.  A ShmSan that seeds a deliberate
    invariant break (:data:`~repro.parallel.shmsan.MUTATIONS`) carries it
    into the jobs it watches.
    """

    name = "process"
    retryable = (WorkerCrashedError, WorkerFailedError, ControlPlaneTimeout)

    def __init__(
        self,
        *,
        timeout_seconds: float = 120.0,
        phase_timeout_seconds: float | None = None,
        retry: "RetryPolicy | bool | None" = None,
    ):
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # no fork on this platform
            self._ctx = multiprocessing.get_context("spawn")
        self.timeout_seconds = timeout_seconds
        #: Per-collective deadline (None = only the global timeout); what
        #: turns a hung-but-alive rank into a prompt, rank-attributed
        #: ControlPlaneTimeout instead of a full global stall.
        self.phase_timeout_seconds = phase_timeout_seconds
        #: Retry policy: an instance, True for defaults, False for none, or
        #: None — fail-fast *except* when a fault plan is active, which
        #: arms the default policy (:func:`~repro.core.retry.run_job`).
        self._retry = retry
        self.arena = SharedArena()
        self.splitter_cache = SplitterCache()
        # ------------------------------------------------- pool state
        self._procs: list = []
        self._conns: list = []
        self._region: ControlRegion | None = None
        self._pool_size: int | None = None
        self._poisoned = False
        self._closed = False
        #: Worker generations spawned over the pool's lifetime.
        self.pool_spawns = 0
        #: Generations spawned to replace a crashed/failed one.
        self.respawns = 0
        #: Successfully completed jobs.
        self.jobs_completed = 0
        self._job_counter = 0
        #: Failed attempts that were retried (any recovery path).
        self.retries = 0
        #: Jobs that completed at reduced width after a rank was poisoned.
        self.degraded_jobs = 0
        #: Jobs that exhausted their retry budget (JobAbortedError raised).
        self.aborted_jobs = 0
        #: Jobs whose result arrays are views of the job's own leases ...
        self.results_pinned = 0
        #: ... and jobs collected by copy because the pin budget was spent.
        self.results_copied = 0
        # close()-vs-in-flight drain state: close() during a job defers
        # teardown until the job's finally block completes it.
        self._in_flight = False
        self._close_finished = False

    # ------------------------------------------------------------ lifetime

    @property
    def pool_size(self) -> int | None:
        """Ranks in the live worker generation (None when no pool is up)."""
        return self._pool_size

    @property
    def worker_pids(self) -> list[int | None]:
        """PIDs of the live generation (tests pin pool reuse on these)."""
        return [proc.pid for proc in self._procs]

    @property
    def stats(self) -> dict:
        """Pool + cache counters for observability and the perf ledger."""
        return {
            "pool_spawns": self.pool_spawns,
            "respawns": self.respawns,
            "jobs_completed": self.jobs_completed,
            "retries": self.retries,
            "degraded_jobs": self.degraded_jobs,
            "aborted_jobs": self.aborted_jobs,
            "results_pinned": self.results_pinned,
            "results_copied": self.results_copied,
            "pool_size": self._pool_size,
            "splitter_cache": self.splitter_cache.stats(),
        }

    def _spawn_pool(self, size: int, payload_bytes: int) -> None:
        region = ControlRegion(self._ctx, size, payload_bytes)
        conns = []
        procs = []
        worker_ends = []
        for rank in range(size):
            hub_end, worker_end = self._ctx.Pipe(duplex=True)
            conns.append(hub_end)
            worker_ends.append(worker_end)
            procs.append(
                self._ctx.Process(
                    target=worker_main,
                    args=(rank, size, worker_end, region),
                    name=f"repro-pool-rank-{rank}",
                    daemon=True,
                )
            )
        for proc in procs:
            proc.start()
        for end in worker_ends:
            end.close()  # the workers own their ends now
        self._procs, self._conns, self._pool_size = procs, conns, size
        self._region = region
        self.pool_spawns += 1
        if self._poisoned:
            self.respawns += 1
            self._poisoned = False

    def _teardown_pool(self, *, graceful: bool) -> None:
        """Retire the current generation (stop message or terminate); its
        control region, lock and semaphores go with it."""
        if not self._procs:
            return
        if graceful:
            send_shutdown(self._conns)
            for proc in self._procs:
                proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc.pid is not None:
                proc.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        self._procs, self._conns, self._pool_size = [], [], None
        self._region = None

    def _ensure_pool(self, size: int, payload_bytes: int) -> None:
        """Make a healthy ``size``-rank generation current whose control
        slots hold ``payload_bytes``.

        Reuses the live one when it matches; replaces it when a worker
        died between jobs (respawn-and-continue) or the job wants a
        different rank count or larger slots (graceful resize).
        """
        if self._procs:
            healthy = all(proc.is_alive() for proc in self._procs)
            if (
                healthy
                and self._pool_size == size
                and self._region.payload_bytes >= payload_bytes
            ):
                return
            if healthy:
                self._teardown_pool(graceful=True)  # resize
            else:
                self._poisoned = True  # a rank died while parked
                self._teardown_pool(graceful=False)
        self._spawn_pool(size, payload_bytes)

    def close(self) -> None:
        """Retire the pool; safe to call twice, and mid-job.

        A close() that races an in-flight sort (e.g. from another
        thread's shutdown path, or a progress callback) must not yank
        shared memory out from under live workers: it marks the backend
        closed — no new jobs are accepted — and defers the actual
        teardown to the job's own cleanup, which drains gracefully.
        """
        self._closed = True
        if self._in_flight:
            return  # graceful drain: the running job finishes the close
        self._finish_close()

    def _finish_close(self) -> None:
        if self._close_finished:
            return
        self._close_finished = True
        self._teardown_pool(graceful=True)
        self.arena.close()

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------------- run

    def sort_blocks(
        self,
        blocks: Sequence[np.ndarray],
        options: SortOptions | None = None,
        config: PgxdConfig | None = None,
    ) -> BackendRun:
        """Sort already-partitioned blocks, one pooled worker per block.

        Same conventions as :func:`repro.core.local_backend.local_sample_sort`
        (ascending across ranks, provenance per element) — and the same
        bits, which the equivalence tests assert.  This is one *job*:
        dispatch the spec to the warm pool, serve its control plane,
        collect.

        With a fault plan active (the ambient
        :func:`~repro.faults.inject_faults` scope) and/or a
        :class:`RetryPolicy` armed, a failed attempt poisons the
        generation and :func:`~repro.core.retry.run_job` re-runs the job
        on a respawned one, dropping a rank that keeps dying.  Exhausting
        the budget raises :class:`JobAbortedError` carrying the full
        attempt history.  Without either, the job is one attempt and its
        first failure propagates as raised (fail-fast).
        """
        options = options or SortOptions()
        config = config or PgxdConfig()
        if self._closed:
            raise PoolClosedError(
                "sort_blocks on a closed ProcessBackend; pools are retired "
                "by close()/__exit__ and cannot be revived"
            )
        if len(blocks) == 0:
            raise ValueError("need at least one block")
        blocks = [np.ascontiguousarray(b) for b in blocks]
        dtypes = {b.dtype for b in blocks}
        if len(dtypes) != 1:
            raise ParallelBackendError(
                f"process backend requires dtype-uniform blocks, got "
                f"{sorted(map(str, dtypes))}; pre-convert them to one dtype"
            )
        job_id = self._job_counter
        self._job_counter += 1
        history: list[dict] = []
        round_ids, round_start = None, 0  # the survivor set, its first attempt

        def attempt(job_blocks, rank_ids, number, faults, policy):
            # Each attempt is a fresh generation, spaced by the policy's
            # wall-clock backoff within a survivor set.
            nonlocal round_ids, round_start
            if rank_ids != round_ids:
                round_ids, round_start = rank_ids, number
            else:
                time.sleep(policy.backoff_for(number - round_start))
            return self._run_job(
                job_blocks,
                options,
                config,
                job_id=job_id,
                faults=faults,
                prior_attempts=tuple(history),
            )

        self._in_flight = True
        try:
            run = run_job(self, attempt, blocks, job_id, self._retry, history)
        except ParallelBackendError as exc:
            # A policy records every failure it retries, so a recorded
            # retryable error is the one that exhausted it; without a
            # policy nothing is recorded and the error leaves unwrapped.
            if history and isinstance(exc, self.retryable):
                self.aborted_jobs += 1
                raise JobAbortedError(job_id, history) from exc
            # Every failure leaves here stamped with the job it belongs
            # to; a sort_many stream adds the stream index on top.
            raise exc.annotate_job(job_id=job_id)
        finally:
            self.retries += len(history)
            self._in_flight = False
            if self._closed:
                # close() raced this job and deferred; drain now.
                self._finish_close()
        if run.survivors is not None:
            self.degraded_jobs += 1
        return run

    def _run_job(
        self,
        blocks: Sequence[np.ndarray],
        options: SortOptions,
        config: PgxdConfig,
        *,
        job_id: int,
        faults: FaultPlan | None,
        prior_attempts: tuple = (),
    ) -> BackendRun:
        """One attempt: stage input, dispatch, serve, collect.

        ``faults`` is the attempt's plan, addressed by job slot
        (:meth:`~repro.faults.FaultPlan.for_attempt`): it rides on the
        JobSpec to the workers, whose barriers realise its delays.
        """
        size = len(blocks)
        key_dtype = blocks[0].dtype
        itemsize = key_dtype.itemsize
        payload_bytes = slot_payload_bytes(
            size, sample_bytes(config, size, itemsize, options.sample_factor), itemsize
        )
        bounds = np.cumsum([0, *map(len, blocks)], dtype=np.int64)
        n = int(bounds[-1])

        # An ambient obs capture turns tracing on; untraced runs skip the
        # handshake and ship no event payloads (the guard pattern).
        cap = active_capture()
        driver_counters: list[tuple[float, str, float]] = []
        if cap is not None:
            self.arena.on_sample = lambda cname, value: driver_counters.append(
                (time.perf_counter(), cname, value)  # repro: noqa[R002] — real backend: driver counter timestamps are measured data
            )

        # The ambient shm_sanitize() scope's ShmSan, or None: unsanitized
        # sorts pay only these None checks.
        san = active_shm_sanitizer()

        start = time.perf_counter()  # repro: noqa[R002] — real backend: the driver wall clock is the makespan
        if san is not None and san.mutate == "relet-pinned":
            # Seeded invariant break: the arena forgets its pins when it
            # looks for a free segment, so this job is handed bytes a
            # live result still reads — the lease-lifetime check must
            # flag the overlap on sight.
            for seg in self.arena._segments:
                seg.leased = 0
        leases = lay_out(
            bounds,
            key_dtype,
            lambda _role, length, dtype: self.arena.lease(length, dtype),
            lambda lease, dtype: replace(lease, dtype=dtype),
        )
        input_view = self.arena.view(leases.input)
        for rank, block in enumerate(blocks):
            input_view[bounds[rank] : bounds[rank + 1]] = block
        if san is not None:
            san.begin_run(leases)

        spec = JobSpec(
            size=size,
            leases=leases,
            options=options,
            config=config,
            trace=cap is not None,
            sanitize=None if san is None else (san.mutate, san.mutate_rank),
            job_id=job_id,
            cache=SplitterProbe(self.splitter_cache.candidates(key_dtype, size)),
            faults=faults,
        )

        run: BackendRun | None = None
        try:
            self._ensure_pool(size, payload_bytes)
            if san is not None:
                san.register_lease("control-slots", self._region.lease)
            dispatch_job(self._conns, self._region, spec)
            try:
                reports: dict[int, WorkerReport] = serve_control_plane(
                    self._conns,
                    self._procs,
                    region=self._region,
                    timeout_seconds=self.timeout_seconds,
                    phase_timeout_seconds=self.phase_timeout_seconds,
                    progress=ambient_progress(),
                    san_sink=san.ingest if san is not None else None,
                )
            except WorkerCrashedError as exc:
                if san is not None:
                    # The dead rank's log was flushed at step boundaries;
                    # analyze what landed so the report covers the run up
                    # to the crash point instead of discarding it.
                    san.finish_run(
                        crashed_rank=exc.rank, crashed_step=exc.last_step
                    )
                raise
            wall = time.perf_counter() - start  # repro: noqa[R002] — real backend: the driver wall clock is the makespan
            run = collect_run(self, reports, leases, wall, san)
        except BaseException:
            # Any failure poisons the generation: survivors may be wedged
            # mid-collective in a barrier that will never complete, so
            # they cannot safely receive another job.  Tear everything
            # down with the typed error; the next sort_blocks call
            # respawns a fresh generation (respawn-and-continue).
            self._poisoned = True
            self._teardown_pool(graceful=False)
            raise
        finally:
            self.arena.release_all()
            self.arena.on_sample = None
            if san is not None:
                san.note_release()
                if san.mutate == "stale-view" and n:
                    # Seeded invariant break: read the staged input view
                    # after release_all() handed its lease back — the
                    # stale-view check must flag the outlived view.  (The
                    # pooled segment is still mapped, so the read itself
                    # is safe; holding the view is the bug.)
                    _ = int(input_view[0])
                    san.parent_access(
                        leases.input, 0, 1, "r", "stale-input-probe",
                        when="after",
                    )
        run.job_id = spec.job_id
        master = run.reports[0]
        run.splitter_cache = master.splitter_cache
        self.splitter_cache.note(master.splitter_cache)
        self.splitter_cache.commit(
            key_dtype, size, master.sample_fingerprint, master.splitters
        )
        self.jobs_completed += 1
        if san is not None:
            # The job's data path says which streams it exchanged.
            san.finish_run(
                counts_matrix=run.counts_matrix,
                exchanged=master.exchanged,
            )
        if cap is not None:
            adopt_run(cap, run, start, driver_counters, prior_attempts)
        return run


#: The selectable execution substrates: each name builds a fresh backend
#: for one sorter call from its :class:`~repro.core.api.SortConfig` (the
#: pool's wall-clock ranks take nothing from it).
BACKENDS = {
    "simnet": lambda config: SimnetBackend(
        network=config.network, cost=config.cost, rank_speed=config.rank_speed
    ),
    "process": lambda config: ProcessBackend(),
}

#: STEP_LABELS (every step label a backend reports) stays importable
#: from here: the ledger's pool pass reads it from this module.
__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "ProcessBackend",
    "STEP_LABELS",
    "SimnetBackend",
    "default_backend",
    "resolve_backend",
    "use_backend",
]

"""Execution backends: one sort program, simnet or real processes.

The repository's six-step sample sort can execute on two substrates:

* ``simnet`` — the deterministic virtual-time simulator (the default;
  golden-fingerprinted, fault-injectable, zero real parallelism);
* ``process`` — this module's :class:`ProcessBackend`: one OS process per
  rank, key/provenance arrays in :mod:`multiprocessing.shared_memory`
  blocks leased from a :class:`~repro.parallel.arena.SharedArena`, a
  zero-copy all-to-all through peer-addressed shm regions, and pipe-based
  collectives for the control plane.

Both produce bit-identical per-rank partitions (pinned by the
cross-backend equivalence tests against the ``local_backend`` oracle and
the simnet golden fingerprint); they differ in what the clock means —
virtual seconds there, wall seconds here.

Backend selection: :class:`~repro.core.api.SortConfig` takes
``backend="process"`` explicitly, or an ambient default installed with
:func:`use_backend` (how the experiments CLI's ``--backend`` flag reaches
every sorter an experiment builds).  Both accept a backend *instance* as
well as a name, which is how one warm pool is shared:
``use_backend(ProcessBackend())`` routes every sort in the scope through it
(and the scope does **not** close the instance — its owner does).

The :class:`ProcessBackend` is a **persistent worker pool**: the rank
processes are spawned on first use, parked in
:func:`~repro.parallel.worker.worker_main`'s job loop between sorts, and
fed per-job :class:`~repro.parallel.worker.JobSpec` messages over the
control pipes.  This module holds the pool's lifecycle and one job
attempt (:meth:`ProcessBackend._run_job`); retry and degradation live in
:mod:`repro.parallel.retry`, result assembly in :mod:`repro.parallel.run`,
the splitter cache in :mod:`repro.parallel.splitter_cache`.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Protocol, Sequence

import numpy as np

from ..core.packsort import has_key_codec
from ..core.sorter import STEP_LABELS, SortOptions
from ..obs.context import active_capture
from ..pgxd.config import PgxdConfig
from .arena import SharedArena, ShmLease
from .chaos import RealFaultPlan, active_real_fault_plan
from .collectives import dispatch_job, send_shutdown, serve_control_plane
from .errors import ParallelBackendError, PoolClosedError, WorkerCrashedError
from .retry import RetryPolicy, run_with_retry
from .run import (
    MAX_PINNED_RESULTS,
    BackendRun,
    ProcessRunHandle,
    adopt_run,
    collect_run,
)
from .shmsan import MUTATIONS, ShmSan, active_shm_sanitizer
from .splitter_cache import SplitterCache
from .tracing import ambient_progress
from .worker import JobSpec, WorkerReport, worker_main

#: The selectable execution substrates.
BACKENDS = ("simnet", "process")

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
            f"backend must be a name from {BACKENDS} or an object with "
            f"sort_blocks(), got {type(name).__name__}"
        )
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choose one of {BACKENDS}")
    return name


class ExecutionBackend(Protocol):
    """What a substrate must provide to run the partitioned sort."""

    name: str

    def sort_blocks(
        self,
        blocks: Sequence[np.ndarray],
        options: SortOptions | None = None,
        config: PgxdConfig | None = None,
    ) -> "BackendRun": ...


@dataclass(frozen=True)
class JobLeases:
    """One job's arena leases (the :class:`JobSpec` fields of the same
    names say what each carries): allocated, and ShmSan-registered, here."""

    input: ShmLease
    keys: ShmLease
    index: ShmLease
    proc: ShmLease
    words: ShmLease | None

    @classmethod
    def allocate(cls, arena: SharedArena, n: int, key_dtype: np.dtype) -> "JobLeases":
        input_lease = arena.lease(n, key_dtype)
        key_lease = arena.lease(n, key_dtype)
        index_lease = arena.lease(n, np.int32)
        proc_lease = arena.lease(n, np.int16)
        # The word path's exchange stream: 8-byte keys decode in place, so
        # their word stream *is* the key lease under an int64 view; narrower
        # keys get a segment of their own.
        word_lease = None
        if has_key_codec(key_dtype):
            if key_dtype.itemsize == 8:
                word_lease = replace(key_lease, dtype=np.dtype(np.int64))
            else:
                word_lease = arena.lease(n, np.int64)
        return cls(input_lease, key_lease, index_lease, proc_lease, word_lease)

    def outputs(self) -> dict[str, ShmLease]:
        """The leases a finished job's result is read from, by role."""
        return {"keys": self.keys, "index": self.index, "proc": self.proc}

    def register(self, san: ShmSan, *, double_lease: bool) -> None:
        """Open a sanitized run over these leases."""
        san.begin_run()
        san.register_lease("input", self.input)
        for role, lease in self.outputs().items():
            san.register_lease(role, lease)
        if self.words is not None and self.words.name != self.keys.name:
            san.register_lease("words", self.words)
        if double_lease:
            # Seeded invariant break: hand out a second lease aliasing
            # the key segment, as if the arena double-booked it — the
            # lease-lifetime check must flag the overlap on sight.
            san.register_lease(
                "double-lease-alias",
                ShmLease(name=self.keys.name, dtype=np.int32, length=self.keys.length),
            )


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
    survivors may be wedged mid-collective with stale replies queued, so
    the whole pool is torn down with the typed error, and the next job
    transparently respawns a fresh generation (counted in
    :attr:`respawns`).  The pool itself stays usable; only :meth:`close`
    retires it (:class:`~repro.parallel.errors.PoolClosedError` after).

    Workers are forked where the platform can (cheapest spawn; they
    re-import nothing) and spawned elsewhere — the spec and worker entry are
    picklable, so both work.  ``timeout_seconds`` bounds control-plane
    silence, turning any stall into a typed error.  Live heartbeats go to
    the ambient :func:`~repro.parallel.tracing.use_progress` sink.

    ``sanitize`` attaches ShmSan (:mod:`repro.parallel.shmsan`): pass a
    :class:`~repro.parallel.shmsan.ShmSan` to share one across backends,
    ``True`` for a private instance (read it back from
    :attr:`sanitizer`), ``False`` to force sanitizing off, or leave the
    default ``None`` to follow the ambient
    :func:`~repro.parallel.shmsan.shm_sanitize` scope — the same
    ambient-wins convention the tracer and progress sinks use.
    ``mutate``/``mutate_rank`` seed one deliberate invariant break from
    :data:`~repro.parallel.shmsan.MUTATIONS` (test hook).
    """

    name = "process"

    def __init__(
        self,
        *,
        timeout_seconds: float = 120.0,
        phase_timeout_seconds: float | None = None,
        sanitize: "ShmSan | bool | None" = None,
        mutate: str | None = None,
        mutate_rank: int = 1,
        chaos: RealFaultPlan | None = None,
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
        #: Explicit chaos plan; None follows the ambient
        #: :func:`~repro.parallel.chaos.inject_real_faults` scope per job.
        self.chaos = chaos
        #: Retry policy: an instance, True for defaults, or None — which
        #: stays fail-fast *except* when a chaos plan is active (chaos
        #: without recovery would just convert planned faults into lost
        #: jobs, so an active plan arms the default policy).
        if retry is True:
            self._retry: RetryPolicy | None = RetryPolicy()
        elif retry is False:
            self._retry = None
        else:
            self._retry = retry
        self._retry_explicit = retry is not None
        if mutate is not None and mutate not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {mutate!r}; choose one of {MUTATIONS}"
            )
        self._mutate = mutate
        self._mutate_rank = mutate_rank
        #: The backend-owned sanitizer (set when ``sanitize`` was an
        #: instance or ``True``); ambient resolution happens per sort.
        if isinstance(sanitize, ShmSan):
            self.sanitizer: ShmSan | None = sanitize
        elif sanitize is True:
            self.sanitizer = ShmSan()
        else:
            self.sanitizer = None
        self._follow_ambient_san = sanitize is None
        self.arena = SharedArena()
        self.splitter_cache = SplitterCache()
        # ------------------------------------------------- pool state
        self._procs: list = []
        self._conns: list = []
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

    def _spawn_pool(self, size: int) -> None:
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
                    args=(rank, size, worker_end),
                    name=f"repro-pool-rank-{rank}",
                    daemon=True,
                )
            )
        for proc in procs:
            proc.start()
        for end in worker_ends:
            end.close()  # the workers own their ends now
        self._procs, self._conns, self._pool_size = procs, conns, size
        self.pool_spawns += 1
        if self._poisoned:
            self.respawns += 1
            self._poisoned = False

    def _teardown_pool(self, *, graceful: bool) -> None:
        """Retire the current generation (stop message or terminate)."""
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

    def _ensure_pool(self, size: int) -> None:
        """Make a healthy ``size``-rank generation current.

        Reuses the live one when it matches; replaces it when a worker
        died between jobs (respawn-and-continue) or the job wants a
        different rank count (graceful resize).
        """
        if self._procs:
            healthy = all(proc.is_alive() for proc in self._procs)
            if healthy and self._pool_size == size:
                return
            if healthy:
                self._teardown_pool(graceful=True)  # resize
            else:
                self._poisoned = True  # a rank died while parked
                self._teardown_pool(graceful=False)
        self._spawn_pool(size)

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
        *,
        force_resample: bool = False,
    ) -> BackendRun:
        """Sort already-partitioned blocks, one pooled worker per block.

        Same conventions as :func:`repro.core.local_backend.local_sample_sort`
        (ascending across ranks, provenance per element) — and the same
        bits, which the equivalence tests assert.  This is one *job*:
        dispatch the spec to the warm pool, serve its control plane,
        collect.  ``force_resample`` makes this job alone ignore the
        splitter cache (how the cache-fallback tests steer a single job
        without rebuilding the pool).

        With a chaos plan active (constructor ``chaos=`` or the ambient
        :func:`~repro.parallel.chaos.inject_real_faults` scope) and/or a
        :class:`RetryPolicy` armed, a failed attempt poisons the
        generation, respawns, and re-runs the same job; a rank that
        keeps dying is dropped and the job re-planned over the survivor
        set.  Exhausting the budget raises :class:`JobAbortedError`
        carrying the full attempt history.  Without either, failures
        stay fail-fast exactly as before.
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
                f"{sorted(map(str, dtypes))}; pre-convert or use the "
                f"simnet backend"
            )

        chaos = self.chaos if self.chaos is not None else active_real_fault_plan()
        policy = self._retry
        if policy is None and chaos is not None and not self._retry_explicit:
            # Chaos without recovery would just convert planned faults
            # into lost jobs, so an active plan arms the default policy
            # (retry=False pins recovery off for fail-fast chaos tests).
            policy = RetryPolicy()
        job_id = self._job_counter
        self._job_counter += 1

        self._in_flight = True
        try:
            if policy is None:
                return self._run_job(
                    blocks,
                    options,
                    config,
                    job_id=job_id,
                    attempt=0,
                    chaos=chaos,
                    rank_ids=None,
                    force_resample=force_resample,
                )
            return run_with_retry(
                self,
                blocks,
                options,
                config,
                job_id=job_id,
                policy=policy,
                chaos=chaos,
                force_resample=force_resample,
            )
        except ParallelBackendError as exc:
            # Every failure leaves here stamped with the job it belongs
            # to; SorterPool.sort_many adds the stream index on top.
            raise exc.annotate_job(job_id=job_id)
        finally:
            self._in_flight = False
            if self._closed:
                # close() raced this job and deferred; drain now.
                self._finish_close()

    def _run_job(
        self,
        blocks: Sequence[np.ndarray],
        options: SortOptions,
        config: PgxdConfig,
        *,
        job_id: int,
        attempt: int,
        chaos: "RealFaultPlan | None",
        rank_ids: tuple[int, ...] | None,
        force_resample: bool,
        prior_attempts: tuple = (),
    ) -> BackendRun:
        """One attempt: stage input, dispatch, serve, collect.

        ``rank_ids`` maps job slots back to original rank identities for
        degraded (survivor-width) rounds — chaos schedules always
        address original ranks, so the mapping rides on the JobSpec and
        the worker looks itself up before arming chaos.
        """
        size = len(blocks)
        key_dtype = blocks[0].dtype
        lengths = [len(b) for b in blocks]
        n = sum(lengths)
        bounds = tuple(np.concatenate(([0], np.cumsum(lengths))).tolist())

        # An ambient obs capture turns tracing on; untraced runs skip the
        # handshake and ship no event payloads (the guard pattern).
        cap = active_capture()
        driver_counters: list[tuple[float, str, float]] = []
        if cap is not None:
            self.arena.on_sample = lambda cname, value: driver_counters.append(
                (time.perf_counter(), cname, value)  # repro: noqa[R002] — real backend: driver counter timestamps are measured data
            )

        # Sanitizer resolution: backend-owned instance wins, else follow
        # the ambient shm_sanitize() scope (unless sanitize=False pinned
        # it off).  Unsanitized sorts pay only these None checks.
        san = self.sanitizer
        if san is None and self._follow_ambient_san:
            san = active_shm_sanitizer()

        start = time.perf_counter()  # repro: noqa[R002] — real backend: the driver wall clock is the makespan
        if self._mutate == "relet-pinned":
            # Seeded invariant break: the arena forgets its pins when it
            # looks for a free segment, so this job is handed bytes a
            # live result still reads — the lease-lifetime check must
            # flag the overlap on sight.
            for seg in self.arena._segments:
                seg.leased = 0
        leases = JobLeases.allocate(self.arena, n, key_dtype)
        if san is not None:
            leases.register(san, double_lease=self._mutate == "double-lease")
        input_view = self.arena.view(leases.input)
        for rank, block in enumerate(blocks):
            input_view[bounds[rank] : bounds[rank + 1]] = block
        if san is not None and n:
            san.parent_access(
                leases.input, 0, n, "w", "stage-input", when="before"
            )

        spec = JobSpec(
            size=size,
            block_bounds=bounds,
            input_lease=leases.input,
            key_lease=leases.keys,
            index_lease=leases.index,
            proc_lease=leases.proc,
            word_lease=leases.words,
            options=options,
            config=config,
            trace=cap is not None,
            sanitize=san is not None,
            mutate=self._mutate,
            mutate_rank=self._mutate_rank,
            job_id=job_id,
            cached_candidates=self.splitter_cache.candidates(key_dtype, size),
            force_resample=force_resample,
            chaos=chaos,
            attempt=attempt,
            rank_ids=rank_ids,
        )

        run: BackendRun | None = None
        try:
            self._ensure_pool(size)
            dispatch_job(self._conns, spec)
            try:
                reports: dict[int, WorkerReport] = serve_control_plane(
                    self._conns,
                    self._procs,
                    timeout_seconds=self.timeout_seconds,
                    phase_timeout_seconds=self.phase_timeout_seconds,
                    progress=ambient_progress(),
                    san_sink=san.ingest if san is not None else None,
                    chaos=(
                        chaos.hub_state(job_id, attempt)
                        if chaos is not None
                        else None
                    ),
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
            run = collect_run(self, reports, leases.outputs(), wall, san)
        except BaseException:
            # Any failure poisons the generation: survivors may be wedged
            # mid-collective with stale replies queued on their pipes, so
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
                if self._mutate == "stale-view" and n:
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


#: Names that moved to run.py / retry.py / splitter_cache.py stay importable
#: from here, as does STEP_LABELS (every step label a backend reports).
__all__ = [
    "BACKENDS",
    "BackendRun",
    "ExecutionBackend",
    "MAX_PINNED_RESULTS",
    "ProcessBackend",
    "ProcessRunHandle",
    "RetryPolicy",
    "SplitterCache",
    "STEP_LABELS",
    "default_backend",
    "resolve_backend",
    "use_backend",
]

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
:func:`use_backend` / :func:`set_default_backend` (how the experiments
CLI's ``--backend`` flag reaches every sorter an experiment builds).
Both accept a backend *instance* as well as a name since PR 9, which is
how a persistent pool is shared: ``use_backend(ProcessBackend())``
routes every sort in the scope through one warm pool instead of
spawning per call (and the scope does **not** close the instance — its
owner does).

Since PR 9 the :class:`ProcessBackend` is a **persistent worker pool**:
the rank processes are spawned on first use, parked in
:func:`~repro.parallel.worker.worker_main`'s job loop between sorts,
and fed per-job :class:`~repro.parallel.worker.JobSpec` messages over
the control pipes (:func:`~repro.parallel.collectives.dispatch_job`).
Warm state carried across jobs: the processes themselves, the arena's
shm segments (and the workers' mappings of them), and the
:class:`SplitterCache` of prior-epoch distribution fingerprints.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Protocol, Sequence

import numpy as np

from ..core.packsort import has_key_codec
from ..core.provenance import Provenance
from ..core.sorter import STEP_LABELS, RankSortOutput, SortOptions
from ..obs.context import active_capture
from ..pgxd.config import PgxdConfig
from .arena import SharedArena, ShmLease
from .chaos import RealFaultPlan, active_real_fault_plan
from .collectives import dispatch_job, send_shutdown, serve_control_plane
from .errors import (
    ControlPlaneTimeout,
    JobAbortedError,
    ParallelBackendError,
    PoolClosedError,
    WorkerCrashedError,
    WorkerFailedError,
)
from .layout import exchange_layout
from .shmsan import KEYS_AND_PERM, MUTATIONS, ShmSan, active_shm_sanitizer
from .tracing import ProgressFn, ambient_progress, merge_worker_traces
from .worker import JobSpec, WorkerReport, worker_main

#: The selectable execution substrates.
BACKENDS = ("simnet", "process")

#: Job results that may own arena segments at once (see
#: :meth:`ProcessBackend._collect`).  A held result keeps up to 3 segments
#: (keys, index, proc) x 2 fds open in the driver and mapped in every
#: worker, so the count is bounded; a job finishing beyond it is handed
#: private copies instead.  Two would cover the ``r = backend.sort_blocks(
#: ...)`` loop (the previous result dies only after the next call
#: returns); 4 leaves room to compare a few results side by side.
MAX_PINNED_RESULTS = 4

_default_backend: "str | ExecutionBackend" = "simnet"


def default_backend() -> "str | ExecutionBackend":
    """The ambient backend used when a SortConfig does not pick one.

    Either a name from :data:`BACKENDS` or a live backend instance (a
    shared pool installed with :func:`use_backend`).
    """
    return _default_backend


def set_default_backend(name: "str | ExecutionBackend") -> None:
    """Install the ambient default backend (a name or a live instance)."""
    global _default_backend
    _default_backend = _validated(name)


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


class ExecutionBackend(Protocol):
    """What a substrate must provide to run the partitioned sort."""

    name: str

    def sort_blocks(
        self,
        blocks: Sequence[np.ndarray],
        options: SortOptions | None = None,
        config: PgxdConfig | None = None,
    ) -> "BackendRun": ...


@dataclass
class BackendRun:
    """Backend-agnostic outcome of one partitioned sort."""

    #: Per-rank outputs in the simulated sorter's shape (keys, provenance,
    #: per-step seconds — wall seconds on real backends).  From the
    #: process backend the arrays are writable views of the shared memory
    #: step 6 merged into, owned by this result (they outlive the pool;
    #: pickling copies them) — see :data:`MAX_PINNED_RESULTS`.
    outputs: list[RankSortOutput]
    #: Final splitters the Master selected.
    splitters: np.ndarray
    #: counts_matrix[src][dst] = keys shipped src -> dst.
    counts_matrix: np.ndarray
    #: Driver-observed wall seconds for the whole run (spawn to collect).
    wall_seconds: float
    #: Max over workers of in-step wall seconds (excludes spawn overhead).
    worker_seconds: float
    #: Per-rank worker reports (None from a backend that has none) —
    #: carry the measured waits, peak RSS, and optional trace payloads.
    reports: list[WorkerReport] | None = None
    #: Pool job id (0 on non-pooled backends).
    job_id: int = 0
    #: Splitter-cache verdict for this job (``cold``/``hit``/``miss``/
    #: ``fallback-balance``/``fallback-forced``; None without a cache).
    splitter_cache: str | None = None
    #: Failed attempts the retry layer burned before this run succeeded
    #: (0 on the fault-free path, which keeps reports bit-identical).
    retries: int = 0
    #: One record per failed attempt (``attempt``/``error``/``rank``/
    #: ``exitcode``/``last_step``), as carried by ``JobAbortedError``.
    attempt_history: tuple = ()
    #: Original rank ids that produced this run after a survivor-degraded
    #: re-plan; None on the full-width path.  Degraded runs keep the
    #: original rank count in :attr:`outputs` with ``None`` at excluded
    #: slots, mirroring the simnet resilient sort's crashed-rank shape.
    survivors: tuple[int, ...] | None = None
    #: Survivor re-plan rounds this job needed (0 = first planning held).
    recovery_rounds: int = 0
    #: Re-planned input offsets (original-rank indexed) when the job was
    #: survivor-degraded; overrides the caller's partition offsets in
    #: :meth:`to_sort_result` because the data was re-blocked.
    input_offsets: np.ndarray | None = None

    def to_sort_result(self, input_offsets: np.ndarray):
        """Assemble the user-facing :class:`~repro.core.result.SortResult`.

        The metrics slot is filled with wall-clock accounting: per-step
        wall seconds as phase seconds, shm traffic as bytes, and the
        driver's wall time as the makespan — so ``elapsed_seconds``,
        ``step_breakdown`` and friends answer in real seconds.
        """
        from ..core.result import SortResult

        if self.input_offsets is not None:
            input_offsets = self.input_offsets
        return SortResult.from_rank_outputs(
            self.outputs, self.cluster_metrics(), input_offsets
        )

    def cluster_metrics(self):
        """Wall-clock :class:`~repro.simnet.metrics.ClusterMetrics` shim.

        With worker reports (process backend) the accounting is *measured*:
        each step's compute is its wall minus the blocking time the worker
        clocked inside collectives during that step, the recv/barrier wait
        totals are the worker's own, and peak resident memory is the
        worker process's real ``ru_maxrss``.  Without reports, step
        walls stand in for compute and waits stay zero.
        """
        from ..simnet.metrics import ClusterMetrics, ProcessMetrics

        p = len(self.outputs)
        live = [out for out in self.outputs if out is not None]
        key_itemsize = live[0].keys.dtype.itemsize if live else 8
        idx_itemsize = 4  # int32 origin indices ride the keys + perm exchange
        processes = []
        remote_bytes = 0
        local_bytes = 0
        messages = 0
        for rank, out in enumerate(self.outputs):
            if out is None:
                # Survivor-degraded run: this rank was excluded as
                # poisoned; it keeps its slot (rank-aligned indices) with
                # zero traffic and the crashed flag set.
                m = ProcessMetrics(rank=rank)
                m.crashed = True
                processes.append(m)
                continue
            row = self.counts_matrix[rank]
            col = self.counts_matrix[:, rank]
            off_row = int(row.sum() - row[rank])
            off_col = int(col.sum() - col[rank])
            has_prov = len(out.provenance) > 0
            per_key = key_itemsize + (idx_itemsize if has_prov else 0)
            m = ProcessMetrics(rank=rank)
            report = self.reports[rank] if self.reports is not None else None
            if report is not None:
                for label, wall in out.step_seconds.items():
                    waited = report.step_wait_seconds.get(label, 0.0)
                    m.phase_seconds[label] = max(wall - waited, 0.0)
                m.recv_wait_seconds = report.recv_wait_seconds
                m.barrier_wait_seconds = report.barrier_wait_seconds
                m.memory.peak_resident = report.peak_rss_bytes
                m.memory.peak_total = report.peak_rss_bytes
                if report.local_sort_path == "through":
                    per_key = 8  # one packed int64 word per key
                else:
                    # Surfaced only off the fastest path, so a slow job
                    # explains itself and fast reports keep their schema.
                    m.local_sort_path = report.local_sort_path
            else:
                m.phase_seconds.update(out.step_seconds)
            m.bytes_sent = off_row * per_key
            m.bytes_received = off_col * per_key
            m.messages_sent = int(np.count_nonzero(np.delete(row, rank)))
            m.messages_received = int(np.count_nonzero(np.delete(col, rank)))
            m.finished_at = sum(out.step_seconds.values())
            processes.append(m)
            remote_bytes += m.bytes_sent
            local_bytes += int(row[rank]) * per_key
            messages += m.messages_sent
        # Retry-layer fault accounting: charge each failed attempt to the
        # rank it was attributed to.  All-zero on clean runs, so the
        # RunReport ``faults`` key stays absent and the committed run-report
        # snapshot holds bit-identical.
        for record in self.attempt_history:
            culprit = record.get("rank")
            if culprit is None or not 0 <= culprit < p:
                continue
            if record.get("error") == "ControlPlaneTimeout":
                processes[culprit].timeouts += 1
            else:
                processes[culprit].retries += 1
        return ClusterMetrics(
            processes=processes,
            makespan=self.wall_seconds,
            remote_bytes=remote_bytes,
            local_bytes=local_bytes,
            messages=messages,
        )


@dataclass
class SplitterCache:
    """Driver-side memory of committed epochs: fingerprints → splitters.

    Keyed by ``(key dtype, cluster size)``; each key holds a tiny LRU of
    ``(distribution fingerprint, splitters)`` pairs (newest last, capacity
    :attr:`capacity_per_key`), so a pool alternating between a few
    recurring datasets keeps them all warm.  The fingerprint is exact
    (sha1 over the per-rank sample bytes — see
    :func:`~repro.parallel.worker.combine_sample_fingerprint`), which is
    what makes a hit safe: matching fingerprint ⇒ the cached splitters
    are byte-equal to what fresh selection would return.
    """

    capacity_per_key: int = 4
    hits: int = 0
    misses: int = 0
    fallbacks: int = 0
    cold: int = 0
    _entries: dict[tuple[str, int], list[tuple[str, np.ndarray]]] = field(
        default_factory=dict
    )

    def candidates(
        self, dtype, size: int
    ) -> tuple[tuple[str, np.ndarray], ...]:
        return tuple(self._entries.get((np.dtype(dtype).str, size), ()))

    def commit(
        self, dtype, size: int, fingerprint: str | None, splitters
    ) -> None:
        if fingerprint is None or splitters is None:
            return
        entries = self._entries.setdefault((np.dtype(dtype).str, size), [])
        entries[:] = [e for e in entries if e[0] != fingerprint]
        entries.append((fingerprint, np.asarray(splitters).copy()))
        del entries[: -self.capacity_per_key]

    def note(self, verdict: str) -> None:
        if verdict == "hit":
            self.hits += 1
        elif verdict == "cold":
            self.cold += 1
        elif verdict == "miss":
            self.misses += 1
        else:
            self.fallbacks += 1

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fallbacks": self.fallbacks,
            "cold": self.cold,
            "entries": sum(len(v) for v in self._entries.values()),
        }


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

    ``start_method`` defaults to ``fork`` where available (cheapest spawn;
    the workers re-import nothing) and ``spawn`` elsewhere — the spec and
    worker entry are picklable, so both work.  ``timeout_seconds`` bounds
    control-plane silence, turning any stall into a typed error.

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
        start_method: str | None = None,
        timeout_seconds: float = 120.0,
        phase_timeout_seconds: float | None = None,
        progress: ProgressFn | None = None,
        sanitize: "ShmSan | bool | None" = None,
        mutate: str | None = None,
        mutate_rank: int = 1,
        splitter_cache: "SplitterCache | bool" = True,
        cache_balance_tolerance: float = 2.0,
        chaos: RealFaultPlan | None = None,
        retry: "RetryPolicy | bool | None" = None,
    ):
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
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
        #: Live heartbeat sink ``(rank, step, rows)``; an explicit argument
        #: wins over the ambient :func:`~repro.parallel.tracing.use_progress`.
        self._progress = progress
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
        if isinstance(splitter_cache, SplitterCache):
            self.splitter_cache: SplitterCache | None = splitter_cache
        elif splitter_cache:
            self.splitter_cache = SplitterCache()
        else:
            self.splitter_cache = None
        self._cache_balance_tolerance = cache_balance_tolerance
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
            "splitter_cache": (
                self.splitter_cache.stats()
                if self.splitter_cache is not None
                else None
            ),
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
            return self._run_with_retry(
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
        track = options.track_provenance
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
        input_lease = self.arena.lease(n, key_dtype)
        key_lease = self.arena.lease(n, key_dtype)
        index_lease = self.arena.lease(n, np.int32) if track else None
        proc_lease = self.arena.lease(n, np.int16) if track else None
        # The word path's exchange stream: 8-byte keys decode in place,
        # so their word stream *is* the key lease under an int64 view;
        # narrower keys get a segment of their own.
        word_lease = word_role = None
        if track and has_key_codec(key_dtype):
            if key_dtype.itemsize == 8:
                word_lease = replace(key_lease, dtype=np.dtype(np.int64))
                word_role = "keys"
            else:
                word_lease = self.arena.lease(n, np.int64)
                word_role = "words"
        if san is not None:
            san.begin_run()
            san.register_lease("input", input_lease)
            san.register_lease("keys", key_lease)
            if index_lease is not None:
                san.register_lease("index", index_lease)
            if proc_lease is not None:
                san.register_lease("proc", proc_lease)
            if word_role == "words":
                san.register_lease("words", word_lease)
            if self._mutate == "double-lease":
                # Seeded invariant break: hand out a second lease aliasing
                # the key segment, as if the arena double-booked it — the
                # lease-lifetime check must flag the overlap on sight.
                san.register_lease(
                    "double-lease-alias",
                    ShmLease(name=key_lease.name, dtype=np.int32, length=n),
                )
        input_view = self.arena.view(input_lease)
        for rank, block in enumerate(blocks):
            input_view[bounds[rank] : bounds[rank + 1]] = block
        if san is not None and n:
            san.parent_access(
                input_lease, 0, n, "w", "stage-input", when="before"
            )

        candidates = (
            self.splitter_cache.candidates(key_dtype, size)
            if self.splitter_cache is not None
            else ()
        )
        spec = JobSpec(
            size=size,
            block_bounds=bounds,
            input_lease=input_lease,
            key_lease=key_lease,
            index_lease=index_lease,
            proc_lease=proc_lease,
            word_lease=word_lease,
            options=options,
            config=config,
            trace=cap is not None,
            sanitize=san is not None,
            mutate=self._mutate,
            mutate_rank=self._mutate_rank,
            job_id=job_id,
            cached_candidates=candidates,
            force_resample=force_resample,
            cache_balance_tolerance=self._cache_balance_tolerance,
            chaos=chaos,
            attempt=attempt,
            rank_ids=rank_ids,
        )

        run: BackendRun | None = None
        try:
            self._ensure_pool(size)
            dispatch_job(self._conns, spec)
            progress = (
                self._progress
                if self._progress is not None
                else ambient_progress()
            )
            try:
                reports: dict[int, WorkerReport] = serve_control_plane(
                    self._conns,
                    self._procs,
                    timeout_seconds=self.timeout_seconds,
                    phase_timeout_seconds=self.phase_timeout_seconds,
                    progress=progress,
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
            run = self._collect(
                reports, key_lease, index_lease, proc_lease, wall, san
            )
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
                        input_lease, 0, 1, "r", "stale-input-probe",
                        when="after",
                    )
        run.job_id = spec.job_id
        master_report = run.reports[0] if run.reports else None
        if master_report is not None:
            run.splitter_cache = master_report.splitter_cache
            if self.splitter_cache is not None:
                self.splitter_cache.note(master_report.splitter_cache)
                self.splitter_cache.commit(
                    key_dtype,
                    size,
                    master_report.sample_fingerprint,
                    master_report.splitters,
                )
        self.jobs_completed += 1
        if san is not None:
            # The job says which streams it exchanged: on the word path
            # the one word stream, whatever lease role carries it.
            through = run.reports[0].local_sort_path == "through"
            san.finish_run(
                counts_matrix=run.counts_matrix,
                exchanged=(word_role,) if through else KEYS_AND_PERM,
            )
        if cap is not None:
            # Assemble the per-worker payloads into one simnet-schema tracer
            # on the hub timeline (t=0 at sort start) and register it with
            # the capture exactly like a simulator session.
            tracer = merge_worker_traces(
                (r.trace for r in run.reports or [] if r.trace is not None),
                num_ranks=size,
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
        return run

    def _run_with_retry(
        self,
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
        width (excluded slots empty) by :meth:`_expand_degraded`.
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
                    run = self._run_job(
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
                    culprit = self._culprit_rank(exc, rank_ids)
                    attempts.append(
                        {
                            "attempt": len(attempts),
                            "error": type(exc).__name__,
                            "rank": culprit,
                            "exitcode": getattr(exc, "exitcode", None),
                            "last_step": getattr(exc, "last_step", None),
                        }
                    )
                    self.retries += 1
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
                        self.aborted_jobs += 1
                        raise JobAbortedError(job_id, attempts) from exc
                    time.sleep(policy.backoff_for(attempt_in_round))
                else:
                    if recovery_rounds:
                        run = self._expand_degraded(
                            run,
                            tuple(survivors),
                            original_p,
                            round_offsets,
                            recovery_rounds,
                        )
                        self.degraded_jobs += 1
                    run.retries = len(attempts)
                    run.attempt_history = tuple(attempts)
                    return run

    @staticmethod
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
        self,
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
            if run.reports:
                reports[orig] = run.reports[slot]
        expanded_offsets = np.zeros(original_p, dtype=np.int64)
        expanded_offsets[survivor_arr] = np.asarray(offsets, dtype=np.int64)
        run.outputs = outputs
        if run.reports:
            run.reports = reports
        run.counts_matrix = expanded_counts
        run.survivors = tuple(survivors)
        run.recovery_rounds = recovery_rounds
        run.input_offsets = expanded_offsets
        return run

    def _collect(
        self,
        reports: dict[int, WorkerReport],
        key_lease,
        index_lease,
        proc_lease,
        wall: float,
        san: ShmSan | None = None,
    ) -> BackendRun:
        size = len(reports)
        counts_matrix = np.stack([reports[r].counts_row for r in range(size)])
        layout = exchange_layout(counts_matrix)
        leases = {"keys": key_lease}
        if index_lease is not None:
            leases.update(index=index_lease, proc=proc_lease)
        # Zero-copy hand-off: the result's arrays are slices of the job's
        # own output leases, which the arena keeps out of the pool until
        # the last of them dies.  With the pin budget spent, the job gets
        # private copies and its leases go back with release_all.
        pinned = (
            self.arena.pinned_segments + len(leases) <= 3 * MAX_PINNED_RESULTS
        )
        if pinned:
            self.results_pinned += 1
            views = {role: self.arena.pin(l) for role, l in leases.items()}
        else:
            self.results_copied += 1
            views = {role: self.arena.view(l) for role, l in leases.items()}
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
            keys = parts["keys"]
            if index_lease is not None:
                prov = Provenance(parts["proc"], parts["index"])
            else:
                prov = Provenance.empty()
            outputs.append(
                RankSortOutput(
                    keys=keys,
                    provenance=prov,
                    step_seconds=dict(report.step_seconds),
                    samples_sent=report.samples_sent,
                    searches=report.searches,
                    sent_counts=counts_matrix[rank].copy(),
                    received_counts=counts_matrix[:, rank].copy(),
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


#: Every step label a backend reports (re-export for metric consumers).
__all__ = [
    "BACKENDS",
    "BackendRun",
    "ExecutionBackend",
    "ProcessBackend",
    "ProcessRunHandle",
    "RetryPolicy",
    "SplitterCache",
    "STEP_LABELS",
    "default_backend",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]

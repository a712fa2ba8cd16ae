"""Public API: configure a cluster, sort data, query the result.

Quickstart::

    import numpy as np
    from repro import distributed_sort

    data = np.random.default_rng(0).integers(0, 1000, 1 << 20)
    result = distributed_sort(data, num_processors=8)
    assert result.is_globally_sorted()
    print(result.ratios())          # load per processor (Table II)
    print(result.elapsed_seconds)   # virtual cluster time

The sort is generic over numeric dtypes ("a generic [API] that works with
any data type"), supports payload columns via provenance
(:meth:`SortResult.gather_values`), and can sort a stream of datasets,
one job each (:meth:`DistributedSorter.sort_many` — "able to sort
different data simultaneously").
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..faults import FaultPlan, active_fault_plan, inject_faults
from ..pgxd.config import PgxdConfig
from ..pgxd.runtime import Machine, PgxdRuntime
from ..simnet.cost import CostModel
from ..simnet.errors import DeadlockError
from ..simnet.metrics import ClusterMetrics
from ..simnet.network import NetworkModel
from .result import SortResult
from .retry import JobRun, RetryPolicy, run_with_retry
from .sorter import SortJob, SortOptions, sample_sort_program


@dataclass(frozen=True)
class SortConfig:
    """Everything needed to stand up a cluster and run the paper's sort."""

    num_processors: int = 8
    pgxd: PgxdConfig = field(default_factory=PgxdConfig)
    network: NetworkModel = field(default_factory=NetworkModel)
    cost: CostModel = field(default_factory=CostModel)
    options: SortOptions = field(default_factory=SortOptions)
    #: Optional per-machine speed factors (heterogeneous cluster).
    rank_speed: tuple[float, ...] | None = None
    #: Optional :class:`repro.faults.FaultPlan` the sort runs under, on
    #: either substrate, retried and degraded by :mod:`repro.core.retry`.
    #: None (the default) still honours an ambient ``inject_faults`` scope.
    faults: FaultPlan | None = None
    #: Execution substrate: "simnet" (virtual time, the default),
    #: "process" (one OS process per rank, shared-memory exchange, wall
    #: time), a live backend *instance* (e.g. a shared persistent
    #: :class:`~repro.parallel.backend.ProcessBackend` pool — the config
    #: never closes it), or None to follow the ambient default installed
    #: via :func:`repro.parallel.backend.use_backend` (the CLI's
    #: --backend / --pool plumbing).
    backend: "str | object | None" = None

    def __post_init__(self) -> None:
        if self.num_processors < 1:
            raise ValueError("num_processors must be >= 1")
        if self.rank_speed is not None and len(self.rank_speed) != self.num_processors:
            raise ValueError("rank_speed needs one factor per processor")
        if self.backend is not None:
            from ..parallel.backend import _validated

            _validated(self.backend)

    def runtime(self) -> PgxdRuntime:
        return PgxdRuntime(
            self.num_processors,
            config=self.pgxd,
            network=self.network,
            cost=self.cost,
            rank_speed=self.rank_speed,
            faults=self.faults,
        )


def partition_input(data: np.ndarray, num_processors: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Block-partition driver data into per-processor inputs + offsets.

    Matches the paper's setup where each machine starts with an equal share
    of the unsorted input.
    """
    data = np.asarray(data)
    if data.ndim != 1:
        raise ValueError("distributed_sort expects a one-dimensional array")
    n = len(data)
    bounds = [n * i // num_processors for i in range(num_processors + 1)]
    blocks = [data[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return blocks, np.array(bounds[:-1], dtype=np.int64)


class DistributedSorter:
    """Reusable, configured distributed sorter.

    Construction is cheap; every :meth:`sort` builds a fresh deterministic
    simulation, so one sorter can serve a whole parameter sweep.
    """

    def __init__(self, config: SortConfig | None = None, **overrides):
        """``overrides`` are conveniences lifted to the right sub-config:
        ``num_processors``, ``sample_factor``, ``investigator``,
        ``balanced_merge``, ``threads_per_machine``, ``async_messaging``,
        ``read_buffer_bytes``, ``data_scale``, ``network``, ``cost``,
        ``rank_speed``, ``faults``, ``backend``."""
        config = config or SortConfig()
        opt_fields = {
            "sample_factor",
            "investigator",
            "balanced_merge",
        }
        pgxd_fields = {
            "threads_per_machine",
            "async_messaging",
            "read_buffer_bytes",
            "data_scale",
        }
        opts = {k: v for k, v in overrides.items() if k in opt_fields}
        pgxd = {k: v for k, v in overrides.items() if k in pgxd_fields}
        rest = {
            k: v for k, v in overrides.items() if k not in opt_fields | pgxd_fields
        }
        unknown = set(rest) - {
            "num_processors", "network", "cost", "rank_speed", "faults", "backend",
        }
        if unknown:
            raise TypeError(f"unknown sorter options: {sorted(unknown)}")
        self.config = SortConfig(
            num_processors=rest.get("num_processors", config.num_processors),
            pgxd=config.pgxd.with_overrides(**pgxd) if pgxd else config.pgxd,
            network=rest.get("network", config.network),
            cost=rest.get("cost", config.cost),
            rank_speed=(
                tuple(rest["rank_speed"])
                if rest.get("rank_speed") is not None
                else config.rank_speed
            ),
            options=replace(config.options, **opts) if opts else config.options,
            faults=rest.get("faults", config.faults),
            backend=rest.get("backend", config.backend),
        )

    # ------------------------------------------------------------- sorts

    def sort(self, data: np.ndarray) -> SortResult:
        """Sort a driver-side array across the simulated cluster."""
        blocks, _ = partition_input(data, self.config.num_processors)
        return self.sort_partitioned(blocks)

    def sort_partitioned(self, blocks: Sequence[np.ndarray]) -> SortResult:
        """Sort data already distributed as one block per processor.

        Dispatches on the configured execution backend: the default
        ``simnet`` substrate runs the virtual-time simulation below;
        ``backend="process"`` (or an ambient :func:`~repro.parallel.backend.
        use_backend` scope) runs the same six steps on real worker
        processes with a shared-memory exchange — identical partitions,
        wall-clock timings.  Blocks of different dtypes are promoted once,
        here, to their common ``np.result_type`` (already-uniform blocks are
        passed through uncopied), so both substrates sort one dtype and the
        result's dtype never depends on how the keys happened to route.

        Under a fault plan (``faults=`` or an ambient ``inject_faults``
        scope) either substrate retries a job a kill ended and degrades to
        the survivors through :func:`~repro.core.retry.run_with_retry`: the
        pool in its backend, simnet here, each attempt under the plan as
        :meth:`~repro.faults.FaultPlan.for_attempt` gives it.
        """
        p = self.config.num_processors
        if len(blocks) != p:
            raise ValueError(f"need {p} blocks, got {len(blocks)}")
        blocks = [np.asarray(b) for b in blocks]
        if len({b.dtype for b in blocks}) > 1:
            common = np.result_type(*(b.dtype for b in blocks))
            blocks = [b.astype(common, copy=False) for b in blocks]
        from ..parallel.backend import ProcessBackend, resolve_backend

        resolved = resolve_backend(self.config.backend)
        if resolved == "simnet":
            return self._simulate_job(blocks, job=0)
        # The pool: a fresh one for this sort, or a live instance (typically
        # a shared persistent pool) its owner closes.  Either picks the
        # sorter's plan up from the ambient scope, unless the instance
        # carries a plan of its own.
        faults = self.config.faults
        with inject_faults(faults) if faults is not None else nullcontext():
            if isinstance(resolved, str):
                with ProcessBackend() as backend:
                    run = backend.sort_blocks(blocks, options=self.config.options, config=self.config.pgxd)
            else:
                run = resolved.sort_blocks(blocks, options=self.config.options, config=self.config.pgxd)
        return run.to_sort_result()

    def _simulate_job(self, blocks: list[np.ndarray], job: int) -> SortResult:
        """One simulated job through :func:`~repro.core.retry.run_with_retry`:
        without a fault plan, one attempt with nothing retryable; under
        one, retried runs, each under :meth:`~repro.faults.FaultPlan.
        for_attempt` of the job's number."""
        plan = self.config.faults or active_fault_plan()
        if plan is not None:
            plan.check_ranks(len(blocks))
            plan.check_substrate("simnet")
        speed = self.config.rank_speed

        def attempt(job_blocks, rank_ids: tuple[int, ...], number: int) -> _SimRun:
            config = replace(
                self.config,
                num_processors=len(rank_ids),
                rank_speed=None if speed is None else tuple(speed[r] for r in rank_ids),
                faults=None if plan is None else plan.for_attempt(rank_ids, number, job),
            )
            return _simulate(config, job_blocks)

        retryable = () if plan is None else (DeadlockError,)
        return run_with_retry(attempt, blocks, RetryPolicy(), retryable, []).to_sort_result()

    def pool(self, **backend_kwargs) -> "SorterPool":
        """Open a persistent worker pool bound to this configuration.

        Returns a :class:`SorterPool` context manager: the rank
        processes spawn on the first sort and stay warm (arena segments,
        shm attachments, splitter cache) for every subsequent job until
        the pool closes.  ``backend_kwargs`` pass through to
        :class:`~repro.parallel.backend.ProcessBackend`.
        """
        return SorterPool(self, **backend_kwargs)

    def sort_many(self, datasets: Sequence[np.ndarray]) -> list[SortResult]:
        """Sort a stream of datasets, one job each, in order.

        The multi-dataset twin of :meth:`sort`, dispatched by backend: on
        ``simnet`` dataset i is simulated job i (the number a fault plan's
        ``:JOB`` addresses); on ``process`` it opens one persistent pool
        and streams the datasets through it (amortized spawn, warm arenas,
        splitter-cache reuse); on a live backend instance it streams the
        jobs through that instance without closing it.  Each result
        carries its own job's metrics.
        """
        from ..parallel.backend import resolve_backend

        resolved = resolve_backend(self.config.backend)
        if resolved == "process":
            with self.pool() as pool:
                return pool.sort_many(datasets)
        if resolved == "simnet":
            p = self.config.num_processors
            return _stream(
                datasets, lambda job, data: self._simulate_job(partition_input(data, p)[0], job)
            )
        return _stream(datasets, lambda _, data: self.sort(data))

    def sort_records(
        self, records: np.ndarray, order: str | Sequence[str]
    ) -> tuple[SortResult, np.ndarray]:
        """Sort a numpy structured array by one or more of its fields.

        The selected field (or lexicographic field tuple) provides the
        distributed sort keys; the full records are then gathered into key
        order through provenance — one exchange for the keys, zero extra
        sorting for the payload.  Returns the sort result (for range/origin
        queries) and the reordered records.
        """
        if records.dtype.names is None:
            raise TypeError("sort_records expects a numpy structured array")
        fields = [order] if isinstance(order, str) else list(order)
        if not fields:
            raise ValueError("order must name at least one field")
        missing = [f for f in fields if f not in records.dtype.names]
        if missing:
            raise KeyError(
                f"fields {missing} not in record fields {records.dtype.names}"
            )
        # A multi-field key is a structured view: numpy compares such
        # records lexicographically, which the whole pipeline (sort, merge,
        # searchsorted, unique) supports natively.
        keys = records[fields[0]] if len(fields) == 1 else np.ascontiguousarray(records[fields])
        result = self.sort(keys)
        return result, result.gather_values(records)

    def sort_with_values(
        self, keys: np.ndarray, values: dict[str, np.ndarray]
    ) -> tuple[SortResult, dict[str, np.ndarray]]:
        """Sort ``keys`` and reorder payload columns into key order.

        Every array in ``values`` must align with ``keys``; the returned
        dict holds each column permuted to match ``result.to_array()``.
        """
        keys = np.asarray(keys)
        for name, col in values.items():
            if len(col) != len(keys):
                raise ValueError(f"column {name!r} does not align with keys")
        result = self.sort(keys)
        return result, {name: result.gather_values(col) for name, col in values.items()}


def _simulate(config: SortConfig, blocks: Sequence[np.ndarray]) -> _SimRun:
    """One simulated run of the six steps over ``blocks``."""
    job = SortJob(blocks)

    def program(machine: Machine):
        # Returns the step generator itself (no `yield from` shim): one
        # less frame on every event resume of the run.
        return sample_sort_program(machine, blocks[machine.rank], config.options, job)

    run = config.runtime().run(program)
    return _SimRun(
        outputs=run.results,
        counts_matrix=np.stack([out.sent_counts for out in run.results]),
        reports=run.metrics.processes,
        metrics=run.metrics,
    )


@dataclass(kw_only=True)
class _SimRun(JobRun):
    """One simulated run: its reports are the simulator's per-rank
    metrics, and :attr:`metrics` holds the run-wide totals."""

    metrics: ClusterMetrics

    def measured_metrics(self) -> ClusterMetrics:
        return replace(self.metrics, processes=self.reports)


def _stream(datasets: Sequence[np.ndarray], sort_one) -> list[SortResult]:
    """``sort_one(index, data)`` for each dataset in order.

    A failure mid-stream surfaces with full provenance: the backend
    stamps the job id, and this loop adds which dataset of the stream was
    in flight, so ``except`` blocks around a long stream can tell exactly
    what was lost.
    """
    from ..parallel.errors import ParallelBackendError

    results = []
    for index, data in enumerate(datasets):
        try:
            results.append(sort_one(index, data))
        except ParallelBackendError as exc:
            raise exc.annotate_job(stream_index=index)
    return results


class SorterPool:
    """A persistent process pool speaking the :class:`SortResult` API.

    Binds one :class:`DistributedSorter` configuration to one
    :class:`~repro.parallel.backend.ProcessBackend` pool: the worker
    processes, shm arena segments, worker-side attachments, and the
    splitter cache all stay warm across :meth:`sort` calls, so a stream
    of jobs pays spawn and mapping cost once instead of per sort.  Use
    as a context manager; :meth:`close` retires the pool.

    :attr:`last_run` keeps the most recent job's raw
    :class:`~repro.parallel.run.BackendRun` (job id, splitter-cache
    verdict, worker reports) for callers that want more than the
    :class:`SortResult` — the streaming example prints verdicts from it.
    """

    def __init__(self, sorter: "DistributedSorter", **backend_kwargs):
        from ..parallel.backend import ProcessBackend

        self.sorter = sorter
        self.backend = ProcessBackend(**{"faults": sorter.config.faults, **backend_kwargs})
        self.last_run = None

    def sort(self, data: np.ndarray) -> SortResult:
        """Dispatch one dataset to the warm pool as a job."""
        blocks, _ = partition_input(data, self.sorter.config.num_processors)
        run = self.backend.sort_blocks(
            blocks,
            options=self.sorter.config.options,
            config=self.sorter.config.pgxd,
        )
        self.last_run = run
        return run.to_sort_result()

    def sort_many(self, datasets: Sequence[np.ndarray]) -> list[SortResult]:
        """Stream several datasets through the pool, one job each
        (:func:`_stream`)."""
        return _stream(datasets, lambda _, data: self.sort(data))

    @property
    def stats(self) -> dict:
        """Pool + splitter-cache counters (see ``ProcessBackend.stats``)."""
        return self.backend.stats

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "SorterPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def distributed_sort(
    data: np.ndarray, num_processors: int = 8, **overrides
) -> SortResult:
    """One-shot convenience wrapper around :class:`DistributedSorter`."""
    sorter = DistributedSorter(num_processors=num_processors, **overrides)
    return sorter.sort(data)

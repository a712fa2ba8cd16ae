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

A substrate is an object with one ``sort_blocks`` (:mod:`repro.parallel.
backend`) and every job's setup is one function, :func:`~repro.core.retry.
run_job`, so the sorter has no substrate branch.
"""

from __future__ import annotations

from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..faults import FaultPlan, inject_faults
from ..pgxd.config import PgxdConfig
from ..simnet.cost import CostModel
from ..simnet.network import NetworkModel
from .result import SortResult
from .sorter import SortOptions


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
    #: either substrate, retried and degraded by :mod:`repro.core.retry`:
    #: the sorter runs each job inside ``inject_faults(faults)``, so it wins
    #: over an outer scope.  None (the default) leaves the ambient
    #: ``inject_faults`` scope, if any, in charge.
    faults: FaultPlan | None = None
    #: Execution substrate: a name from :data:`~repro.parallel.backend.
    #: BACKENDS` ("simnet", virtual time, the default; "process", one OS
    #: process per rank, wall time), a live backend *instance* (e.g. a
    #: shared pool, never closed here, whose own models take precedence
    #: over ``network``, ``cost`` and ``rank_speed``), or None to follow
    #: the ambient :func:`repro.parallel.backend.use_backend` default (the
    #: CLI's --backend / --pool plumbing).
    backend: "str | object | None" = None

    def __post_init__(self) -> None:
        if self.num_processors < 1:
            raise ValueError("num_processors must be >= 1")
        if self.rank_speed is not None and len(self.rank_speed) != self.num_processors:
            raise ValueError("rank_speed needs one factor per processor")
        if self.backend is not None:
            from ..parallel.backend import _validated

            _validated(self.backend)


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
        ``simnet`` substrate simulates it in virtual time;
        ``backend="process"`` (or an ambient :func:`~repro.parallel.backend.
        use_backend` scope) runs the same six steps on real worker
        processes with a shared-memory exchange — identical partitions,
        wall-clock timings.  Blocks of different dtypes are promoted once,
        here, to their common ``np.result_type`` (already-uniform blocks are
        passed through uncopied), so both substrates sort one dtype and the
        result's dtype never depends on how the keys happened to route.

        Under a fault plan (``SortConfig.faults`` or an ambient
        ``inject_faults`` scope) either substrate retries a job a kill
        ended and degrades to the survivors
        (:func:`~repro.core.retry.run_job`).
        """
        with self._backend() as backend:
            return self._run_on(backend, blocks).to_sort_result()

    @contextmanager
    def _backend(self):
        """This sorter's backend: a live instance as given (its owner
        closes it), or a fresh one built from this config by name and
        closed afterwards."""
        from ..parallel.backend import BACKENDS, resolve_backend

        backend = resolve_backend(self.config.backend)
        if isinstance(backend, str):
            with closing(BACKENDS[backend](self.config)) as fresh:
                yield fresh
        else:
            yield backend

    def _run_on(self, backend, blocks: Sequence[np.ndarray]):
        """One job of ``blocks``, promoted to one dtype, on ``backend``,
        under this sorter's fault plan (``inject_faults``)."""
        p = self.config.num_processors
        if len(blocks) != p:
            raise ValueError(f"need {p} blocks, got {len(blocks)}")
        blocks = [np.asarray(b) for b in blocks]
        if len({b.dtype for b in blocks}) > 1:
            common = np.result_type(*(b.dtype for b in blocks))
            blocks = [b.astype(common, copy=False) for b in blocks]
        faults = self.config.faults
        with inject_faults(faults) if faults is not None else nullcontext():
            return backend.sort_blocks(blocks, options=self.config.options, config=self.config.pgxd)

    def pool(self, **backend_kwargs) -> "SorterPool":
        """Open a persistent worker pool bound to this configuration.

        Returns a :class:`SorterPool` context manager: the rank
        processes spawn on the first sort and stay warm (arena segments,
        shm attachments, splitter cache) for every subsequent job until
        the pool closes.  ``backend_kwargs`` pass through to
        :class:`~repro.parallel.backend.ProcessBackend`; every job runs
        under this sorter's fault plan, like :meth:`sort`'s.
        """
        return SorterPool(self, **backend_kwargs)

    def sort_many(self, datasets: Sequence[np.ndarray]) -> list[SortResult]:
        """Sort a stream of datasets, one job each, in order.

        The multi-dataset twin of :meth:`sort`: the datasets stream through
        one backend, so dataset i is job i of a fresh one (the number a
        fault plan's ``:JOB`` addresses; on ``process`` one warm pool), and
        a live instance is left open.  Each result carries its own job's
        metrics.
        """
        p = self.config.num_processors
        with self._backend() as backend:
            return _stream(
                datasets,
                lambda data: self._run_on(backend, partition_input(data, p)[0]).to_sort_result(),
            )

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


def _stream(datasets: Sequence[np.ndarray], sort_one) -> list[SortResult]:
    """``sort_one(data)`` for each dataset in order.

    A failure mid-stream surfaces with full provenance: the backend
    stamps the job id, and this loop adds which dataset of the stream was
    in flight, so ``except`` blocks around a long stream can tell exactly
    what was lost.
    """
    from ..parallel.errors import ParallelBackendError

    results = []
    for index, data in enumerate(datasets):
        try:
            results.append(sort_one(data))
        except ParallelBackendError as exc:
            raise exc.annotate_job(stream_index=index)
    return results


class SorterPool:
    """A persistent process pool speaking the :class:`SortResult` API.

    Binds one :class:`DistributedSorter` configuration to one
    :class:`~repro.parallel.backend.ProcessBackend` pool: the worker
    processes, shm arena segments, worker-side attachments, and the
    splitter cache all stay warm across :meth:`sort` calls, so a stream
    of jobs pays spawn and mapping cost once instead of per sort.  Each
    job goes through the sorter's one forwarding call, so it runs under
    the sorter's ``SortConfig.faults`` scope as a sorter's own jobs do.
    Use as a context manager; :meth:`close` retires the pool.

    :attr:`last_run` keeps the most recent job's raw
    :class:`~repro.parallel.run.BackendRun` (job id, splitter-cache
    verdict, worker reports) for callers that want more than the
    :class:`SortResult` — the streaming example prints verdicts from it.
    """

    def __init__(self, sorter: "DistributedSorter", **backend_kwargs):
        from ..parallel.backend import ProcessBackend

        self.sorter = sorter
        self.backend = ProcessBackend(**backend_kwargs)
        self.last_run = None

    def sort(self, data: np.ndarray) -> SortResult:
        """Dispatch one dataset to the warm pool as a job."""
        blocks, _ = partition_input(data, self.sorter.config.num_processors)
        self.last_run = self.sorter._run_on(self.backend, blocks)
        return self.last_run.to_sort_result()

    def sort_many(self, datasets: Sequence[np.ndarray]) -> list[SortResult]:
        """Stream several datasets through the pool, one job each
        (:func:`_stream`)."""
        return _stream(datasets, self.sort)

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

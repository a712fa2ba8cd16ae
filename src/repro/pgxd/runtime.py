"""PGX.D runtime: machines, program launch, and distributed graph loading.

:class:`PgxdRuntime` is the user-facing entry point of the substrate.  It
assembles a virtual cluster (simnet engine + network + cost model) and runs
SPMD *programs*: generator functions ``fn(machine, *args)`` receiving a
:class:`Machine` facade that bundles the simnet process handle with the
PGX.D managers (task, data) and configuration.

The distributed sorting algorithm (:mod:`repro.core`) and all baselines run
as programs on this runtime.

A run owns nothing after it returns: no storage and no threads.  The
run's :class:`KernelPool` — the helper threads that drain each parallel
step's kernels with the event-loop thread, one batch per step, and the
lender of its jobs' storage — is created with it and joined before
``run`` returns or raises, every helper stopped and every job's arena
checked back into the process-wide :data:`repro.core.scratch.ARENAS`
pool, whether or not the run succeeded.
So back-to-back runs reuse warm storage, a nested or concurrent run never
shares an arena with a live one, and no thread outlives a run (a
:class:`~repro.parallel.backend.ProcessBackend` forks this process).  The
finished simulator holds no reference to itself, so dropping a run's
result frees it and its arrays by refcount, even while the GC is paused.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

import numpy as np

from ..simnet.calls import Compute
from ..simnet.collectives import alltoallv
from ..simnet.cost import CostModel
from ..simnet.engine import ProcessHandle, Simulator
from ..simnet.metrics import ClusterMetrics
from ..simnet.network import NetworkModel
from .config import PgxdConfig
from .csr import CsrGraph
from .data_manager import DataManager
from .ghost import GhostSelection, select_ghosts
from .partition import BlockPartition
from .task_manager import TaskManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Executor

    from ..core.scratch import ScratchArena

MachineProgram = Callable[..., Generator]


class KernelPool:
    """One run's kernel threads, and the job storage their kernels write.

    PGX.D runs a parallel step as a task list its worker threads drain
    (:mod:`repro.pgxd.task_manager`); :meth:`batch` is that for one step
    of one job (every rank's step-1 sort, or step-6 landing + merge): the
    calling event-loop thread and ``cpus - 1`` helper threads drain one
    list of *pure* kernels.  Nothing simulated can tell: virtual time is
    charged from key counts alone, and the kernels write disjoint
    regions.  Helpers start at the first batch with work for them.

    Job storage comes warm from :data:`repro.core.scratch.ARENAS`:
    :meth:`checkout` lends a job an arena, :meth:`checkin` takes it back.
    :meth:`join` — the context exit — checks in what is still out, stops
    the helpers, and raises the first kernel exception as itself.
    """

    def __init__(self) -> None:
        from ..core.scratch import ARENAS

        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        self._helpers = (len(cpus) if cpus else os.cpu_count() or 1) - 1
        self._executor: Executor | None = None
        self._error: Exception | None = None
        self._arenas, self._lent = ARENAS, []

    def batch(self, kernels: Sequence[Callable[[], Any]]) -> list:
        """Every kernel's result, in order.  Every kernel runs, and then the
        first that raised is raised as itself."""
        todo, results, errors = deque(enumerate(kernels)), [None] * len(kernels), {}

        def drain() -> None:
            while True:
                try:
                    i, kernel = todo.popleft()
                except IndexError:
                    return
                try:
                    results[i] = kernel()
                except Exception as exc:  # repro: noqa[R006] — not swallowed: raised as itself once every kernel ran
                    errors[i] = exc

        spare = min(self._helpers, len(kernels) - 1)
        if spare > 0 and self._executor is None:
            # Imported here: concurrent.futures pulls in logging, which every
            # pool worker forked from a driver would otherwise carry.
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(self._helpers, thread_name_prefix="pgxd-kernel")
        helpers = [self._executor.submit(drain) for _ in range(spare)]
        drain()
        for helper in helpers:
            helper.result()
        if errors:
            self._error = self._error or errors[min(errors)]
            raise errors[min(errors)]
        return results

    def checkout(self) -> ScratchArena:
        arena = self._arenas.checkout()
        self._lent.append(arena)
        return arena

    def checkin(self, arena: ScratchArena) -> None:
        self._lent.remove(arena)
        self._arenas.checkin(arena)

    def join(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        while self._lent:
            self._arenas.checkin(self._lent.pop())
        if self._error is not None:
            raise self._error

    def __enter__(self) -> "KernelPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.join()


class Machine:
    """One simulated PGX.D machine, as seen by a running program."""

    def __init__(
        self,
        proc: ProcessHandle,
        config: PgxdConfig,
        cost: CostModel,
        kernels: KernelPool | None,
    ):
        self.proc = proc
        self.config = config
        self.cost = cost
        self.tasks = TaskManager(config.threads_per_machine, cost)
        self.data = DataManager(config, proc.metrics.memory)
        #: The run's kernel threads (``None``: a machine no kernel runs on).
        self.kernels = kernels

    @property
    def rank(self) -> int:
        return self.proc.rank

    @property
    def size(self) -> int:
        return self.proc.size

    @property
    def threads(self) -> int:
        return self.config.threads_per_machine

    def compute(self, seconds: float, label: str | None = None) -> Compute:
        """Convenience constructor for a labelled compute call."""
        return Compute(seconds, label=label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine(rank={self.rank}, size={self.size}, threads={self.threads})"


@dataclass
class RunResult:
    """Outcome of one runtime launch."""

    #: Program return values, ordered by rank.
    results: list[Any]
    #: Cluster-wide virtual-time metrics.
    metrics: ClusterMetrics

    @property
    def makespan(self) -> float:
        return self.metrics.makespan


class PgxdRuntime:
    """Factory for simulated PGX.D clusters.

    A runtime instance is reusable: every :meth:`run` builds a fresh
    simulator with the same configuration, so repeated experiments are
    independent and deterministic.
    """

    def __init__(
        self,
        num_machines: int,
        config: PgxdConfig | None = None,
        network: NetworkModel | None = None,
        cost: CostModel | None = None,
        *,
        rank_speed: Sequence[float] | None = None,
    ):
        """``rank_speed`` makes the cluster heterogeneous: machine ``m``'s
        compute rates are multiplied by ``rank_speed[m]`` (1.0 = nominal,
        0.5 = half-speed straggler).  The network is unaffected.

        Each run's simulator reads the ambient observer scopes as it is
        built (:class:`~repro.simnet.engine.Simulator`): an active
        ``repro.obs.capture`` gives the run a tracer, an active
        ``inject_faults`` its fault plan; otherwise the run is untraced
        and fault-free."""
        if num_machines < 1:
            raise ValueError("num_machines must be >= 1")
        self.num_machines = num_machines
        self.config = config or PgxdConfig()
        self.network = network or NetworkModel()
        self.cost = cost or CostModel()
        if rank_speed is not None:
            if len(rank_speed) != num_machines:
                raise ValueError("rank_speed needs one factor per machine")
            if any(s <= 0 for s in rank_speed):
                raise ValueError("rank speeds must be positive")
        self.rank_speed = list(rank_speed) if rank_speed is not None else None

    def cost_for_rank(self, rank: int) -> CostModel:
        """The (possibly slowed) cost model of one machine."""
        if self.rank_speed is None or self.rank_speed[rank] == 1.0:
            return self.cost
        s = self.rank_speed[rank]
        return replace(
            self.cost,
            compare_rate=self.cost.compare_rate * s,
            merge_rate=self.cost.merge_rate * s,
            copy_bandwidth=self.cost.copy_bandwidth * s,
            machine_mem_bandwidth=self.cost.machine_mem_bandwidth * s,
        )

    def run(self, program: MachineProgram, *args: Any, **kwargs: Any) -> RunResult:
        """Run ``program(machine, *args, **kwargs)`` on every machine."""
        return self._launch([program] * self.num_machines, args, kwargs)

    def run_per_rank(self, programs: list[MachineProgram], *args: Any) -> RunResult:
        """Run a different program per rank (e.g. driver + executors)."""
        if len(programs) != self.num_machines:
            raise ValueError(
                f"need {self.num_machines} programs, got {len(programs)}"
            )
        return self._launch(programs, args, {})

    def _launch(
        self, programs: list[MachineProgram], args: tuple, kwargs: dict
    ) -> RunResult:
        """Build a simulator and run ``programs[rank]`` on each machine,
        with one kernel pool for exactly the run."""
        sim = Simulator(self.num_machines, self.network)
        with KernelPool() as kernels:
            # Plain function, not a generator: returning the program's
            # generator directly (instead of `yield from` delegation)
            # removes one Python frame from every resume — material when
            # a run spans tens of thousands of events.  The engine only
            # requires that the factory *return* a generator.
            def bootstrap(
                proc: ProcessHandle, program: MachineProgram, /, *a: Any, **kw: Any
            ) -> Generator:
                machine = Machine(proc, self.config, self.cost_for_rank(proc.rank), kernels)
                return program(machine, *a, **kw)

            for rank, program in enumerate(programs):
                sim.add_process(bootstrap, program, *args, rank=rank, **kwargs)
            metrics = sim.run()
        return RunResult(results=sim.results(), metrics=metrics)

    # --------------------------------------------------------- graph load

    def load_graph(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        num_vertices: int,
    ) -> tuple[list[CsrGraph], GhostSelection, RunResult]:
        """Distribute an edge list across the cluster and build local CSRs.

        Models PGX.D's loading pipeline: vertices are block-partitioned,
        ghost nodes are selected from the crossing-edge profile, edges are
        routed to their source-owner machine through an all-to-all, and each
        machine builds its CSR.  Chunking the edges for the worker pool
        (:func:`repro.pgxd.chunking.chunk_edges`) is left to the algorithm
        that runs on the graph.

        Returns ``(local_graphs, ghost_selection, run_result)`` where
        ``local_graphs[m]`` holds machine ``m``'s partition with vertex ids
        localized and ``global_ids`` recording the mapping.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        partition = BlockPartition(num_vertices, self.num_machines)
        ghosts = select_ghosts(src, dst, partition, self.config.ghost_node_budget)
        owners = partition.owners(src)

        def loader(machine: Machine) -> Generator:
            rank = machine.rank
            # Each machine starts holding an equal slice of the raw edge
            # list (as if read from a striped file) and routes every edge to
            # the machine owning its source vertex.
            lo = len(src) * rank // machine.size
            hi = len(src) * (rank + 1) // machine.size
            my_src, my_dst, my_owners = src[lo:hi], dst[lo:hi], owners[lo:hi]
            yield machine.compute(
                machine.cost.scan_seconds(my_src.nbytes + my_dst.nbytes, machine.threads),
                label="load:scan",
            )
            chunks = []
            for m in range(machine.size):
                mask = my_owners == m
                chunks.append(np.stack([my_src[mask], my_dst[mask]]) if mask.any() else np.empty((2, 0), dtype=np.int64))
            received = yield from alltoallv(machine.proc, chunks)
            local_src = np.concatenate([c[0] for c in received])
            local_dst = np.concatenate([c[1] for c in received])
            # CSR build cost: counting sort over local edges.
            yield machine.compute(
                machine.cost.scan_seconds(local_src.nbytes * 3, machine.threads),
                label="load:csr",
            )
            start, stop = partition.bounds(rank)
            graph = CsrGraph.from_edges(
                stop - start,
                local_src - start,
                local_dst,
                global_ids=np.arange(start, stop, dtype=np.int64),
            )
            machine.data.memory.alloc(graph.nbytes())
            return graph

        result = self.run(loader)
        return list(result.results), ghosts, result

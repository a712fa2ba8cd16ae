"""PGX.D runtime: machines, program launch, and distributed graph loading.

:class:`PgxdRuntime` is the user-facing entry point of the substrate.  It
assembles a virtual cluster (simnet engine + network + cost model) and runs
SPMD *programs*: generator functions ``fn(machine, *args)`` receiving a
:class:`Machine` facade that bundles the simnet process handle with the
PGX.D managers (task, data) and configuration.

The distributed sorting algorithm (:mod:`repro.core`) and all baselines run
as programs on this runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Generator, Sequence

import numpy as np

from ..simnet.calls import Compute
from ..simnet.collectives import alltoallv
from ..simnet.cost import CostModel
from ..simnet.engine import ProcessHandle, Simulator
from ..simnet.metrics import ClusterMetrics
from ..simnet.network import NetworkModel
from .chunking import chunk_edges
from .config import PgxdConfig
from .csr import CsrGraph
from .data_manager import DataManager
from .ghost import GhostSelection, select_ghosts
from .partition import BlockPartition
from .task_manager import TaskManager

MachineProgram = Callable[..., Generator]

#: Target edges per chunk for the edge-chunking strategy.
EDGE_CHUNK_SIZE = 4096


class Machine:
    """One simulated PGX.D machine, as seen by a running program."""

    def __init__(self, proc: ProcessHandle, config: PgxdConfig, cost: CostModel):
        self.proc = proc
        self.config = config
        self.cost = cost
        self.tasks = TaskManager(config.threads_per_machine, cost)
        self.data = DataManager(config, proc.metrics.memory)
        # Reusable storage for data-plane temporaries (receive buffers,
        # provenance staging).  repro.core imports repro.pgxd at module
        # level, so the reverse import must stay local to avoid a cycle.
        from ..core.scratch import ScratchArena

        self.scratch = ScratchArena()

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
        trace: bool = False,
        tracer: Any = None,
        faults: Any = None,
    ):
        """``rank_speed`` makes the cluster heterogeneous: machine ``m``'s
        compute rates are multiplied by ``rank_speed[m]`` (1.0 = nominal,
        0.5 = half-speed straggler).  The network is unaffected.

        ``tracer`` attaches a structured :class:`repro.obs.Tracer` to every
        simulator this runtime builds; when None (the default) an ambient
        ``repro.obs.capture`` scope, if active, supplies one per run.

        ``faults`` attaches a :class:`repro.simnet.faults.FaultPlan` to
        every run; when None, an ambient ``inject_faults`` scope (if
        active) supplies one — otherwise the run is fault-free."""
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
        self.trace = trace
        self.tracer = tracer
        self.faults = faults

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
        sim = Simulator(
            self.num_machines,
            self.network,
            trace=self.trace,
            tracer=self.tracer,
            faults=self.faults,
        )

        # Plain function, not a generator: returning the program's generator
        # directly (instead of `yield from` delegation) removes one Python
        # frame from every resume — material when a run spans tens of
        # thousands of events.  The engine only requires that the factory
        # *return* a generator.
        def bootstrap(proc: ProcessHandle, *a: Any, **kw: Any) -> Generator:
            machine = Machine(proc, self.config, self.cost_for_rank(proc.rank))
            return program(machine, *a, **kw)

        sim.add_program(bootstrap, *args, **kwargs)
        metrics = sim.run()
        return RunResult(results=sim.results(), metrics=metrics)

    def run_per_rank(self, programs: list[MachineProgram], *args: Any) -> RunResult:
        """Run a different program per rank (e.g. driver + executors)."""
        if len(programs) != self.num_machines:
            raise ValueError(
                f"need {self.num_machines} programs, got {len(programs)}"
            )
        sim = Simulator(
            self.num_machines,
            self.network,
            trace=self.trace,
            tracer=self.tracer,
            faults=self.faults,
        )
        for rank, program in enumerate(programs):

            def bootstrap(proc: ProcessHandle, _program=program, *a: Any) -> Generator:
                machine = Machine(proc, self.config, self.cost_for_rank(proc.rank))
                return _program(machine, *a)

            sim.add_process(bootstrap, *args, rank=rank)
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
        machine builds its CSR and chunks its edges for the worker pool.

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
            chunk_edges(graph, EDGE_CHUNK_SIZE)
            return graph

        result = self.run(loader)
        return list(result.results), ghosts, result

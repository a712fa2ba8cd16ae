"""Simnet's binding of the six-step PGX.D sample sort (paper section IV).

The steps are written once, in :func:`repro.core.program.six_steps`;
:func:`sample_sort_program` runs them on every simulated machine over
:class:`_OnMachine`, which serves each step from the machine and the
job's shared :class:`SortJob`:

1. **Local sort** — every rank reads its block's statistics and the ranks
   allgather them for the key frame (:mod:`repro.core.packsort`); then parallel
   quicksort across worker threads, combined by the balanced-merge handler
   (charged by :mod:`repro.core.local_sort`).
2. **Sampling** — regular samples (256KB/p bytes) are sent to the Master.
3. **Splitters** — the Master merges the samples, selects ``p-1`` final
   splitters and broadcasts them.
4. **Partition** — each processor finds per-destination ranges by binary
   searching the splitters, with the *investigator* cutting every tied
   range where the samples put its splitter (:mod:`repro.core.investigator`).
5. **Exchange** — range sizes are announced, then all processors send and
   receive simultaneously (:mod:`repro.core.exchange`).
6. **Merge** — the received sorted runs are merged by the balanced handler
   while provenance (each key's origin position in the input) rides along.

Every step's elapsed virtual time is measured per rank (Figure 7); compute
is charged through the cost model, communication through the network model.
The real data is really sorted — correctness is asserted in tests, not
assumed from the model.  One machine runs the same six steps as sixteen.

Steps 1, 5 and 6 are the pool's too (:mod:`repro.core.datapath`): packed
words when the job's key frame fits, keys and an int32 permutation
otherwise; both are *charged* as the paper's records (key + 4-byte
index, Figure 11), so goldens cannot tell.

PGX.D runs each parallel step as a task list its worker threads drain,
and so does the simulator with the data path's kernels: the first rank
to enter step 1 runs every rank's local sort as one batch on the run's
kernel threads (:meth:`~repro.pgxd.runtime.KernelPool.batch`: the
event-loop thread and the helpers), and the last rank to enter step 6
runs every rank's landing + merge as another, then checks the job's
arena in.  Step 5 lands no key on the event loop: it hands each rank's
chunks to that rank's step-6 kernel.  The kernels are pure, write
disjoint regions of the job's storage, and every charge comes from key
counts alone, so nothing simulated can depend on when, or on how many
threads, they ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from ..pgxd.runtime import Machine
from ..simnet.calls import Crash, Mark, Now
from ..simnet.collectives import allgather, bcast, gather
from .balanced_merge import merge_levels, merge_levels_cost_seconds
from .datapath import OUTPUT_ROLES, DataPath, lay_out, surfaced_sort_path
from .exchange import ExchangeResult, exchange_partitions
from .local_sort import local_sort_seconds
from .packsort import block_stats, has_key_codec
from .program import MASTER, six_steps
from .provenance import Provenance
from .sorter_labels import STEP_LABELS
from .steps import INDEX_DTYPE


@dataclass(frozen=True)
class SortOptions:
    """Algorithm-level switches (the runtime knobs live in PgxdConfig).

    Provenance is not one of them: step 6 keeps the origin processor and
    index of every element (section IV), on every run.
    """

    #: Multiplier on the paper's X = 256KB/p sampling budget (Figure 9).
    sample_factor: float = 1.0
    #: Duplicate-aware splitter cuts; False = Figure 3b naive searches.
    investigator: bool = True
    #: Balanced pairwise merging; False = sequential fold (ablation).
    balanced_merge: bool = True

    def __post_init__(self) -> None:
        if self.sample_factor <= 0:
            raise ValueError("sample_factor must be positive")


@dataclass
class RankSortOutput:
    """Per-rank result returned by the program generator."""

    keys: np.ndarray
    provenance: Provenance
    #: Elapsed virtual seconds per step label.
    step_seconds: dict[str, float] = field(default_factory=dict)
    #: Keys this rank sent to each destination (row of the counts matrix).
    sent_counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


class SortJob:
    """One simulated job: what its ranks share, and the storage it owns.

    Each rank reads its block's statistics straight off the caller's
    block (:func:`~repro.core.packsort.block_stats`); nothing is coded
    before the frame is known.  The job's
    :class:`~repro.core.datapath.JobStorage` is laid out at its first
    step-1 :meth:`sort`, under the frame the program derived: the outputs
    fresh, since the results own them, and on the word path everything
    else from one warm arena of the run's pool, checked out there — each
    rank's step-1 words at its input offset, as wide as the frame says
    and coded on the fly from the caller's block, the int64 word stream
    when keys are narrower than 8 bytes, and, only for a frame that
    refills, a copy of the input the lossy codes refill from.  A frame
    miss takes no arena.  The kernels that fill the storage run as two
    batches on the run's threads, every rank's step 1 and every rank's
    step 6; the arena goes back once the second finished.
    """

    def __init__(self, blocks: Sequence[np.ndarray]):
        self.blocks = blocks
        self.block_starts = np.cumsum([0, *map(len, blocks)], dtype=np.int64)
        self.frame = self.storage = self.arena = self.words = self.paths = None
        self.merges: list = []
        self.charges: dict[tuple, float] = {}

    def _span(self, rank: int) -> slice:
        return slice(int(self.block_starts[rank]), int(self.block_starts[rank + 1]))

    def _take(self, role: str, n: int, dtype: np.dtype) -> np.ndarray:
        if role in OUTPUT_ROLES:
            return np.empty(n, dtype)
        if (
            self.frame is None
            or (role == "input" and not self.frame.refills)
            or (role == "words" and dtype != self.frame.word_dtype)
        ):
            # Unread: off the word path, the refill source of a frame that
            # refills nothing, or the int64 stream of a job whose words are
            # int32.
            return np.empty(0, dtype)
        return self.arena.take(n, dtype)

    def _draw(self, machine: Machine, frame) -> None:
        dtype, n = self.blocks[0].dtype, int(self.block_starts[-1])
        self.frame = frame
        if frame is not None:
            self.arena = machine.kernels.checkout()
            self.words = self.arena.take(n, frame.word_dtype)
        self.storage = lay_out(self.block_starts, dtype, self._take, np.ndarray.view)
        if len(self.storage.input):
            np.concatenate(self.blocks, out=self.storage.input)

    def sort(self, machine: Machine, kernel, frame) -> DataPath:
        """Step 1's ``kernel`` on one rank; the first rank's call runs every
        rank's, as one batch, each packing its block into its words."""
        if self.storage is None:
            self._draw(machine, frame)
            kernels = []
            for rank, block in enumerate(self.blocks):
                block = np.ascontiguousarray(block)
                words = None if self.words is None else self.words[self._span(rank)]
                kernels.append(partial(kernel, frame, self.storage, rank, block, words))
            self.paths = machine.kernels.batch(kernels)
        assert frame == self.frame, "every rank derives the job's frame"
        return self.paths[machine.rank]

    def sort_seconds(self, machine: Machine, n: int, balanced: bool) -> float:
        """Step 1's charge, evaluated once per block length and cost model."""
        key = (n, id(machine.cost), balanced)
        if key not in self.charges:
            self.charges[key] = local_sort_seconds(machine, n, balanced=balanced)
        return self.charges[key]

    def merge(self, machine: Machine, path: DataPath, base: int, run_lengths: list[int], arrived):
        """Step 6 on one rank: its ``arrived`` :class:`ExchangeResult` landed
        and merged into the job's outputs; the last rank's call runs every
        rank's, as one batch, and hands the arena back.  Returns ``(keys,
        provenance)``, the output views the kernels fill."""
        stop = base + sum(run_lengths)
        self.merges.append(partial(_land_and_merge, arrived, path.merge, base, stop, run_lengths))
        if len(self.merges) == len(self.blocks):
            machine.kernels.batch(self.merges)
            self.merges, self.paths = [], None
            if self.arena is not None:
                machine.kernels.checkin(self.arena)
        keys, origin = (getattr(self.storage, role)[base:stop] for role in OUTPUT_ROLES)
        return keys, Provenance(origin, self.block_starts)


def _land_and_merge(arrived: ExchangeResult, merge, base: int, stop: int, run_lengths: list[int]):
    """Simnet's step-6 kernel: land the rank's runs, then merge them there."""
    arrived.land()
    return merge(base, stop, run_lengths)


def _step_marks(step: int, rows: int):
    """Edge observer on a traced run: the Marks closing the step before
    the edge and opening the next, the tracer's step spans."""
    if step:
        yield Mark(STEP_LABELS[step - 1], event="end")
    if step < len(STEP_LABELS):
        yield Mark(STEP_LABELS[step])


def _crash_entering(doomed: int, step: int, rows: int):
    """Edge observer on a rank the fault plan kills entering step ``doomed``."""
    if step == doomed:
        yield Crash()


class _OnMachine:
    """Simnet's half of the program's method set, on one machine: calls
    and sub-programs for the engine, charged to the cost model — every
    message the program sends, step 1's frame allgather included — with
    Figure 11's memory recorded.  Step 1's kernel is read once its charge
    elapsed (no other rank runs before this one's step 2 begins)."""

    #: Simulated jobs carry no splitter cache.
    cache = None

    def __init__(self, machine: Machine, options: SortOptions, job: SortJob, block: np.ndarray):
        self.machine, self.options, self.job = machine, options, job
        self.rank, self.size, self.config = machine.rank, machine.size, machine.config
        self.block_bytes = machine.data.scaled(len(block) * block.dtype.itemsize)
        self.out = RankSortOutput(keys=block, provenance=Provenance.empty())
        self.begun = 0.0
        self.arrived: ExchangeResult | None = None
        #: What each step edge runs past the clock: the step Marks on a
        #: traced run, then the fault plan's crash where it kills this rank.
        proc, self.observers = machine.proc, []
        if proc.traced:
            self.observers.append(_step_marks)
        if proc.kill_step:
            self.observers.append(partial(_crash_entering, STEP_LABELS.index(proc.kill_step)))

    def edge(self, step: int, rows: int):
        """Close the step before ``step``, open ``step``: the Figure-7 clock,
        then each observer's sub-program — none moves virtual time, so the
        golden fingerprint cannot tell which ran."""
        now = yield Now()
        if step:
            self.out.step_seconds[STEP_LABELS[step - 1]] = now - self.begun
        self.begun = now
        for observe in self.observers:
            yield observe(step, rows)

    def charge(self, step: int, count: int):
        machine, cost = self.machine, self.machine.cost
        if step == 1:
            seconds = cost.scan_seconds(count)
        elif step == 2:
            seconds = cost.sort_seconds(count, machine.threads)
        else:
            n = int(len(self.out.keys) * self.config.data_scale)
            seconds = cost.binary_search_seconds(count, n)
        return machine.compute(seconds, STEP_LABELS[step])

    def frame_stats(self, block: np.ndarray):
        """The rank reads its block's statistics and allgathers them, five
        8-byte words per rank, as the pool does; a dtype with no codec
        posts nothing."""
        if not has_key_codec(block.dtype):
            return None
        word = np.uint64 if block.dtype.kind == "u" else np.int64  # a uint64 code may be ≥ 2^63
        stats = np.array(block_stats(block), word)
        gathered = yield allgather(self.machine.proc, stats)
        return [rank_stats.tolist() for rank_stats in gathered]

    def gather(self, value):
        return gather(self.machine.proc, value, root=MASTER)

    def bcast(self, value):
        return bcast(self.machine.proc, value, root=MASTER)

    def sort(self, kernel, frame, block: np.ndarray):
        """Step 1, words or keys + perm charged the same."""
        machine = self.machine
        path = self.job.sort(machine, kernel, frame)
        yield machine.compute(
            self.job.sort_seconds(machine, len(block), self.options.balanced_merge), STEP_LABELS[0]
        )
        # Figure 11 accounting: the sort's resident overhead is the permutation
        # (later the provenance), one index per key on either path; the dataset
        # itself belongs to the engine's data store and is not billed to the sort.
        machine.data.reserve("perm", len(block) * INDEX_DTYPE.itemsize)
        # Its label shows on the rank's metrics only off the word path, as the pool's.
        machine.proc.metrics.local_sort_path = surfaced_sort_path(path.label)
        return path

    def exchange(self, path: DataPath, part):
        # Staging the outgoing partitions is a streaming copy; the exchange
        # itself is asynchronous sends + receives (network time).
        machine, cost = self.machine, self.machine.cost
        yield machine.compute(cost.copy_seconds(self.block_bytes, machine.threads), STEP_LABELS[4])
        machine.data.memory.alloc(self.block_bytes, temporary=True)
        self.arrived = yield exchange_partitions(
            machine.proc, path, part, self.config, copy_seconds_per_byte=1.0 / cost.copy_bandwidth
        )
        machine.data.memory.free(self.block_bytes, temporary=True)
        return self.arrived.counts_matrix

    def merge(self, path: DataPath, base: int, run_lengths: list[int]):
        """Step 6: one kernel pass over ``run_lengths`` runs, charged as the
        handler's or fold's levels."""
        machine = self.machine
        keys, provenance = self.job.merge(machine, path, base, run_lengths, self.arrived)
        received_bytes = machine.data.scaled(int(keys.nbytes))
        machine.data.memory.alloc(received_bytes, temporary=True)  # runs pre-merge
        yield machine.compute(
            merge_levels_cost_seconds(
                merge_levels(run_lengths, balanced=self.options.balanced_merge),
                machine.tasks,
                machine.cost,
                scale=self.config.data_scale,
            ),
            STEP_LABELS[5],
        )
        machine.data.memory.free(received_bytes, temporary=True)
        machine.data.store("origin", provenance.origin)
        machine.data.drop("perm")
        # The counts matrix's column, as the pool reads it after the run.
        machine.proc.metrics.partition_keys += sum(run_lengths)
        self.out.keys, self.out.provenance = keys, provenance


def sample_sort_program(
    machine: Machine, local_keys: np.ndarray, options: SortOptions, job: SortJob
):
    """Simnet's binding: :func:`~repro.core.program.six_steps` on one machine."""
    keys = np.ascontiguousarray(local_keys)
    host = _OnMachine(machine, options, job, keys)
    # Yielded, not ``yield from``: the engine trampolines the program.
    steps = yield six_steps(host, keys, options)
    host.out.sent_counts = steps.partition.counts
    return host.out

"""Simnet's binding of the six-step PGX.D sample sort (paper section IV).

The steps are written once, in :func:`repro.core.program.six_steps`;
:func:`sample_sort_program` runs them on every simulated machine over
:class:`_OnMachine`, which serves each step from the machine and the
job's shared :class:`SortJob`:

1. **Local sort** — parallel quicksort across worker threads, combined by
   the balanced-merge handler (charged by :mod:`repro.core.local_sort`).
2. **Sampling** — regular samples (256KB/p bytes) are sent to the Master.
3. **Splitters** — the Master merges the samples, selects ``p-1`` final
   splitters and broadcasts them.
4. **Partition** — each processor finds per-destination ranges by binary
   searching the splitters, with the *investigator* dividing duplicated
   splitters' tied ranges equally (:mod:`repro.core.investigator`).
5. **Exchange** — range sizes are announced, then all processors send and
   receive simultaneously (:mod:`repro.core.exchange`).
6. **Merge** — the received sorted runs are merged by the balanced handler
   while provenance (origin processor + index) rides along.

Every step's elapsed virtual time is measured per rank (Figure 7); compute
is charged through the cost model, communication through the network model.
The real data is really sorted — correctness is asserted in tests, not
assumed from the model.  One machine runs the same six steps as sixteen.

Steps 1, 5 and 6 are the pool's too (:mod:`repro.core.datapath`): packed
words when the job's key frame fits, keys and an int32 permutation
otherwise; both are *charged* as the paper's records (key + 4-byte
index, Figure 11), so goldens cannot tell.

As each paper machine sorts and merges on its own worker threads, the
data path's step-1 and step-6 kernels run on the run's kernel threads
(:class:`~repro.pgxd.runtime.KernelPool`), off the event loop: a rank's
local sort is submitted as it enters step 1 and read once its charge
elapsed, its merge submitted once step 5 assembled its region, and the
run waits for all of them before it returns.  The kernels are pure, write
disjoint regions of the job's storage, and every charge comes from key
counts alone, so nothing simulated can depend on when, or on how many
threads, they ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..pgxd.runtime import Machine
from ..simnet.calls import Mark, Now
from ..simnet.collectives import bcast, gather
from .balanced_merge import merge_levels, merge_levels_cost_seconds
from .datapath import OUTPUT_ROLES, WORD_DTYPE, DataPath, lay_out, surfaced_sort_path
from .exchange import ExchangeResult, exchange_partitions
from .local_sort import local_sort_seconds
from .packsort import code_and_stats, has_key_codec
from .program import MASTER, six_steps
from .provenance import Provenance
from .scratch import ARENAS
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

    Every block's key-frame statistics (``None`` when the codec has no
    code for the dtype) are folded before the run, outside virtual time,
    and served as step 1's allgather (the pool pays one); int keys are
    their own codes (one read, no second pass), float keys are coded into
    a warm lease of the process's arena pool, returned before the run.
    The job's :class:`~repro.core.datapath.JobStorage` is laid out at its
    first step 1, under the frame the program derived: the outputs fresh,
    since the results own them, and on the word path everything else
    from one warm arena of the run's pool — each rank's step-1 words at
    its input offset, as wide as the frame says, the int64 word stream
    when keys are narrower than 8 bytes, and for float keys the input the
    lossy codes refill from (and, under int32 words, the int64 codes they
    pack from).  The kernels that fill it run on the run's threads; the
    arena goes back once every rank's step-6 kernel finished.
    """

    def __init__(self, blocks: Sequence[np.ndarray]):
        self.stats = _block_stats(blocks) if has_key_codec(blocks[0].dtype) else None
        self.blocks = blocks
        self.block_starts = np.cumsum([0, *map(len, blocks)], dtype=np.int64)
        self.frame = self.storage = self.arena = self.words = self.codes = None
        self.merges: list = []

    def _take(self, role: str, n: int, dtype: np.dtype) -> np.ndarray:
        if role in OUTPUT_ROLES:
            return np.empty(n, dtype)
        if (
            self.arena is None
            or (role == "input" and dtype.kind != "f")
            or (role == "words" and dtype != self.frame.word_dtype)
        ):
            # Unread: off the word path, int keys' refill source, or the
            # int64 stream of a job whose words are int32.
            return np.empty(0, dtype)
        return self.arena.take(n, dtype)

    def _draw(self, kernels, frame) -> None:
        dtype, n = self.blocks[0].dtype, int(self.block_starts[-1])
        self.frame = frame
        if frame is not None:
            self.arena = kernels.checkout()
            self.words = self.arena.take(n, frame.word_dtype)
            if dtype.kind == "f" and frame.word_dtype != WORD_DTYPE:
                self.codes = self.arena.take(n, WORD_DTYPE)
        self.storage = lay_out(self.block_starts, dtype, self._take, np.ndarray.view)
        if len(self.storage.input):
            np.concatenate(self.blocks, out=self.storage.input)

    def sort(self, machine: Machine, kernel, frame, block: np.ndarray):
        """Step 1's ``kernel`` on one rank, submitted to the run's kernel
        threads: a future of the rank's :class:`~repro.core.datapath.DataPath`."""
        if self.storage is None:
            self._draw(machine.kernels, frame)
        span = slice(int(self.block_starts[machine.rank]), int(self.block_starts[machine.rank + 1]))
        words, codes = (None if a is None else a[span] for a in (self.words, self.codes))
        return machine.kernels.submit(
            kernel, frame, self.storage, machine.rank, block, words, None, codes
        )

    def merge(self, machine: Machine, path: DataPath, base: int, run_lengths: list[int]):
        """Step 6 on one rank, submitted to the run's kernel threads: its
        region of the streams from ``base`` merged into the job's outputs.
        Returns ``(keys, provenance)``, the output views the kernel fills;
        the last rank's call hands the arena back once every merge is done."""
        stop = base + sum(run_lengths)
        self.merges.append(machine.kernels.submit(path.merge, base, stop, run_lengths))
        if len(self.merges) == len(self.blocks) and self.arena is not None:
            machine.kernels.checkin(self.arena, self.merges)
        keys, index, proc = (getattr(self.storage, role)[base:stop] for role in OUTPUT_ROLES)
        return keys, Provenance(proc, index)


def _block_stats(blocks: Sequence[np.ndarray]) -> list[tuple[int, int, int, int]]:
    """Every block's key-frame statistics.  Float keys are coded into a
    warm int64 lease, one block at a time, checked in before the run."""
    if blocks[0].dtype.kind != "f":
        return [code_and_stats(block, None)[1] for block in blocks]
    arena = ARENAS.checkout()
    try:
        codes = arena.take(max(map(len, blocks)), WORD_DTYPE)
        return [code_and_stats(block, codes[: len(block)])[1] for block in blocks]
    finally:
        ARENAS.checkin(arena)


class _OnMachine:
    """Simnet's half of the program's method set, on one machine: calls
    and sub-programs for the engine, charged to the cost model, with
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

    def edge(self, step: int, rows: int):
        """Close the step before ``step``, open ``step``: the Figure-7 clock,
        and Marks for the structured tracer (no virtual time, no-ops without
        a tracer, so the golden fingerprint is unaffected)."""
        now = yield Now()
        if step:
            self.out.step_seconds[STEP_LABELS[step - 1]] = now - self.begun
            yield Mark(STEP_LABELS[step - 1], event="end")
        if step < len(STEP_LABELS):
            yield Mark(STEP_LABELS[step])
        self.begun = now

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
        """Folded before the run, outside virtual time: an instant sub-program."""
        return self.job.stats
        yield  # unreached: it makes this a sub-program

    def gather(self, value):
        return gather(self.machine.proc, value, root=MASTER)

    def bcast(self, value):
        return bcast(self.machine.proc, value, root=MASTER)

    def sort(self, kernel, frame, block: np.ndarray):
        """Step 1, words or keys + perm charged the same."""
        machine = self.machine
        pending = self.job.sort(machine, kernel, frame, block)
        seconds = local_sort_seconds(machine, len(block), balanced=self.options.balanced_merge)
        yield machine.compute(seconds, STEP_LABELS[0])
        # Figure 11 accounting: the sort's resident overhead is the permutation
        # (later the provenance), one index per key on either path; the dataset
        # itself belongs to the engine's data store and is not billed to the sort.
        machine.data.reserve("perm", len(block) * INDEX_DTYPE.itemsize)
        path = pending.result()
        # Its label shows on the rank's metrics only off the word path, as the pool's.
        machine.proc.metrics.local_sort_path = surfaced_sort_path(path.label)
        return path

    def exchange(self, path: DataPath, part):
        # Staging the outgoing partitions is a streaming copy; the exchange
        # itself is asynchronous sends + receives (network time).
        machine, cost = self.machine, self.machine.cost
        yield machine.compute(cost.copy_seconds(self.block_bytes, machine.threads), STEP_LABELS[4])
        machine.data.memory.alloc(self.block_bytes, temporary=True)
        ex: ExchangeResult = yield exchange_partitions(
            machine.proc, path, part, self.config, copy_seconds_per_byte=1.0 / cost.copy_bandwidth
        )
        machine.data.memory.free(self.block_bytes, temporary=True)
        return ex.counts_matrix

    def merge(self, path: DataPath, base: int, run_lengths: list[int]):
        """Step 6: one kernel pass over ``run_lengths`` runs, charged as the
        handler's or fold's levels."""
        machine = self.machine
        keys, provenance = self.job.merge(machine, path, base, run_lengths)
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
        machine.data.store("origin_proc", provenance.origin_proc)
        machine.data.store("origin_index", provenance.origin_index)
        machine.data.drop("perm")
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

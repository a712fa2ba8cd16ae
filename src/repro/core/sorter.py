"""The six-step PGX.D distributed sample sort (paper section IV).

One :func:`sample_sort_program` instance runs on every simulated machine:

1. **Local sort** — parallel quicksort across worker threads, combined by
   the balanced-merge handler (:mod:`repro.core.local_sort`).
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
assumed from the model.

Steps 1, 5 and 6 are the pool's too (:mod:`repro.core.datapath`): packed
words when the job's key frame (:class:`SortJob`) fits, keys and an int32
permutation otherwise; both are *charged* as the paper's records (key +
4-byte index, Figure 11), so goldens cannot tell.

As each paper machine sorts and merges on its own worker threads, the
data path's step-1 and step-6 kernels run on the run's kernel threads
(:class:`~repro.pgxd.runtime.KernelPool`), off the event loop: a rank's
local sort is submitted as it enters step 1 and read at step 2, its merge
submitted once step 5 assembled its region, and the run waits for all of
them before it returns.  The kernels are pure, write disjoint regions of
the job's storage, and every charge comes from key counts alone, so
nothing simulated can depend on when, or on how many threads, they ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..pgxd.runtime import Machine
from ..simnet.calls import Mark, Now
from ..simnet.collectives import bcast, gather
from .balanced_merge import merge_levels, merge_levels_cost_seconds
from .datapath import OUTPUT_ROLES, WORD_DTYPE, DataPath, lay_out, local_sort
from .datapath import surfaced_sort_path
from .exchange import ExchangeResult, exchange_partitions
from .local_sort import local_sort_seconds
from .packsort import code_and_stats, derive_key_frame, has_key_codec
from .provenance import Provenance
from .scratch import ARENAS
from .steps import INDEX_DTYPE, agree_splitters, draw_samples, partition_block

#: Master processor rank (the paper's "Master").
MASTER = 0

from .sorter_labels import STEP_LABELS  # noqa: E402  (re-exported)


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
    #: Samples this rank contributed to the Master.
    samples_sent: int = 0
    #: Binary searches executed in step 4.
    searches: int = 0
    #: Keys this rank sent to each destination (row of the counts matrix).
    sent_counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: Keys received from each source.
    received_counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


class SortJob:
    """One simulated job: what its ranks share, and the storage it owns.

    The key frame — ``None`` when it misses, or when the codec has no code
    for the dtype — is folded from every block's statistics before the
    run, outside virtual time (the pool allgathers them in step 1); int
    keys are their own codes (one read, no second pass), float keys are
    coded into a warm lease of the process's arena pool, returned before
    the run.  The job's :class:`~repro.core.datapath.JobStorage` is laid
    out at its first step 1: the outputs fresh, since the results own
    them, and on the word path everything else from one warm arena of the
    run's pool — each rank's step-1 words at its input offset, as wide as
    the frame says, the int64 word stream when keys are narrower than 8
    bytes, and for float keys the input the lossy codes refill from (and,
    under int32 words, the int64 codes they pack from).  The kernels that
    fill it run on the run's threads; the arena goes back once every
    rank's step-6 kernel finished.
    """

    def __init__(self, blocks: Sequence[np.ndarray]):
        dtype = blocks[0].dtype
        self.frame = None
        if has_key_codec(dtype):
            self.frame = derive_key_frame(_block_stats(blocks), dtype, len(blocks))
        self.blocks = blocks
        self.block_starts = np.cumsum([0, *map(len, blocks)], dtype=np.int64)
        self.storage = self.arena = self.words = self.codes = None
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

    def _draw(self, kernels) -> None:
        dtype, n = self.blocks[0].dtype, int(self.block_starts[-1])
        if self.frame is not None:
            self.arena = kernels.checkout()
            self.words = self.arena.take(n, self.frame.word_dtype)
            if dtype.kind == "f" and self.frame.word_dtype != WORD_DTYPE:
                self.codes = self.arena.take(n, WORD_DTYPE)
        self.storage = lay_out(self.block_starts, dtype, self._take, np.ndarray.view)
        if len(self.storage.input):
            np.concatenate(self.blocks, out=self.storage.input)

    def sort(self, machine: Machine, block: np.ndarray):
        """Step 1 on one rank, submitted to the run's kernel threads: a
        future of the rank's :class:`~repro.core.datapath.DataPath`."""
        if self.storage is None:
            self._draw(machine.kernels)
        span = slice(int(self.block_starts[machine.rank]), int(self.block_starts[machine.rank + 1]))
        words, codes = (None if a is None else a[span] for a in (self.words, self.codes))
        return machine.kernels.submit(
            local_sort, self.frame, self.storage, machine.rank, block, words, None, codes
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


def local_sort_step(
    machine: Machine, keys: np.ndarray, options: SortOptions, out: RankSortOutput, job: SortJob
):
    """Step 1 on one machine; returns ``(future of the DataPath, end time)``.

    The sort runs on the run's kernel threads, words or keys + perm
    charged the same.  Step boundaries are marked for the structured
    tracer; Mark consumes no virtual time and is a no-op without a tracer,
    so the golden fingerprint is unaffected.
    """
    t0 = yield Now()
    yield Mark(STEP_LABELS[0])
    path = job.sort(machine, keys)
    seconds = local_sort_seconds(machine, len(keys), balanced=options.balanced_merge)
    yield machine.compute(seconds, STEP_LABELS[0])
    # Figure 11 accounting: the sort's resident overhead is the permutation
    # (later the provenance), one index per key on either path; the dataset
    # itself belongs to the engine's data store and is not billed to the sort.
    machine.data.reserve("perm", len(keys) * INDEX_DTYPE.itemsize)
    t1 = yield Now()
    yield Mark(STEP_LABELS[0], event="end")
    out.step_seconds[STEP_LABELS[0]] = t1 - t0
    return path, t1


def merge_step(
    machine: Machine, options: SortOptions, out: RankSortOutput, run_lengths, keys, provenance
):
    """Step 6 on one machine: store ``keys``/``provenance`` (one kernel pass
    over ``run_lengths`` runs), charged as the handler's or fold's levels."""
    yield Mark(STEP_LABELS[5])
    t_begin = yield Now()
    received_bytes = machine.data.scaled(int(keys.nbytes))
    machine.data.memory.alloc(received_bytes, temporary=True)  # runs pre-merge
    yield machine.compute(
        merge_levels_cost_seconds(
            merge_levels(run_lengths, balanced=options.balanced_merge),
            machine.tasks,
            machine.cost,
            scale=machine.config.data_scale,
        ),
        STEP_LABELS[5],
    )
    machine.data.memory.free(received_bytes, temporary=True)
    machine.data.store("origin_proc", provenance.origin_proc)
    machine.data.store("origin_index", provenance.origin_index)
    machine.data.drop("perm")
    t_end = yield Now()
    yield Mark(STEP_LABELS[5], event="end")
    out.step_seconds[STEP_LABELS[5]] = t_end - t_begin
    out.keys = keys
    out.provenance = provenance


def sample_sort_program(
    machine: Machine, local_keys: np.ndarray, options: SortOptions, job: SortJob
):
    """Generator program implementing the six steps on one machine."""
    keys = np.ascontiguousarray(local_keys)
    rank, size = machine.rank, machine.size
    cfg, cost = machine.config, machine.cost
    out = RankSortOutput(keys=keys, provenance=Provenance.empty())

    # Yielding the step generators (rather than ``yield from``) lets the
    # engine trampoline them: their resumes skip this frame.
    pending, t1 = yield local_sort_step(machine, keys, options, out, job)
    block_bytes = machine.data.scaled(len(keys) * keys.dtype.itemsize)

    if size == 1:
        # Single machine: the local sort is the whole story.
        for label in STEP_LABELS[1:]:
            out.step_seconds[label] = 0.0
            yield Mark(label)
            yield Mark(label, event="end")
        path = _path_of(machine, pending)
        path.write(slice(0, len(keys)), 0)
        out.keys, out.provenance = job.merge(machine, path, 0, [len(keys)])
        out.sent_counts = np.array([len(keys)], dtype=np.int64)
        out.received_counts = np.array([len(keys)], dtype=np.int64)
        return out

    # ----------------------------------------------------- step 2: sampling
    # Steps 2-5 read and ship the sorted keys, or the sorted words.
    yield Mark(STEP_LABELS[1])
    path = _path_of(machine, pending)  # step 1's kernel: its first reader is here
    samples = draw_samples(path.sorted_block, cfg, size, options.sample_factor)
    out.samples_sent = len(samples)
    yield machine.compute(cost.scan_seconds(int(samples.nbytes)), STEP_LABELS[1])
    gathered = yield gather(machine.proc, samples, root=MASTER)
    t2 = yield Now()
    yield Mark(STEP_LABELS[1], event="end")
    out.step_seconds[STEP_LABELS[1]] = t2 - t1

    # ---------------------------------------------------- step 3: splitters
    yield Mark(STEP_LABELS[2])
    if rank == MASTER:
        assert gathered is not None
        yield machine.compute(
            cost.sort_seconds(sum(map(len, gathered)), machine.threads),
            STEP_LABELS[2],
        )
        splitters = agree_splitters(gathered, size)
    else:
        splitters = None
    splitters = yield bcast(machine.proc, splitters, root=MASTER)
    t3 = yield Now()
    yield Mark(STEP_LABELS[2], event="end")
    out.step_seconds[STEP_LABELS[2]] = t3 - t2

    # ---------------------------------------------------- step 4: partition
    yield Mark(STEP_LABELS[3])
    part = partition_block(path.sorted_block, splitters, size, options.investigator)
    out.searches = part.searches
    yield machine.compute(
        cost.binary_search_seconds(part.searches, int(len(keys) * cfg.data_scale)),
        STEP_LABELS[3],
    )
    t4 = yield Now()
    yield Mark(STEP_LABELS[3], event="end")
    out.step_seconds[STEP_LABELS[3]] = t4 - t3

    # ----------------------------------------------------- step 5: exchange
    # Staging the outgoing partitions is a streaming copy; the exchange
    # itself is asynchronous sends + receives (network time).
    yield Mark(STEP_LABELS[4])
    yield machine.compute(cost.copy_seconds(block_bytes, machine.threads), STEP_LABELS[4])
    machine.data.memory.alloc(block_bytes, temporary=True)
    ex: ExchangeResult = yield exchange_partitions(
        machine.proc, path, part, cfg, copy_seconds_per_byte=1.0 / cost.copy_bandwidth
    )
    machine.data.memory.free(block_bytes, temporary=True)
    out.sent_counts = ex.counts_matrix[rank].copy()
    out.received_counts = ex.counts_matrix[:, rank].copy()
    t5 = yield Now()
    yield Mark(STEP_LABELS[4], event="end")
    out.step_seconds[STEP_LABELS[4]] = t5 - t4

    # -------------------------------------------------------- step 6: merge
    run_lengths = ex.counts_matrix[:, rank].tolist()
    base = int(ex.counts_matrix[:, :rank].sum())  # this rank's output region
    merged = job.merge(machine, path, base, run_lengths)
    yield merge_step(machine, options, out, run_lengths, *merged)
    return out


def _path_of(machine: Machine, pending) -> DataPath:
    """The rank's step-1 :class:`DataPath`, its label on the rank's metrics
    (shown only off the word path, as the pool's)."""
    path = pending.result()
    machine.proc.metrics.local_sort_path = surfaced_sort_path(path.label)
    return path

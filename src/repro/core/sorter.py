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

Steps 1, 5 and 6 move packed words when the job's key frame
(:func:`job_frame`) fits, keys and an int32 permutation otherwise, as the
pool does (:mod:`repro.parallel.datapath`); both are *charged* as the
paper's records (key + 4-byte index, Figure 11), so goldens cannot tell.

As each paper machine sorts and merges on its own worker threads, the
word path's step-1 and step-6 kernels run on the run's kernel threads
(:class:`~repro.pgxd.runtime.KernelPool`), off the event loop: a rank's
pack and sort is submitted as it enters step 1 and read at step 2, its
sort of the received runs and unpack submitted once step 5 assembled its
region, and the run waits for all of them before it returns.  The
kernels are pure, write disjoint regions of the job's storage
(:class:`JobFrame`), and every charge comes from key counts alone, so
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
from .exchange import ExchangeResult, exchange_partitions
from .local_sort import local_sort_seconds
from .packsort import KeyFrame, SortedWords, code_and_stats, derive_key_frame, has_key_codec
from .packsort import pack_words, sort_runs_in_place, unpack_words
from .provenance import Provenance
from .steps import INDEX_DTYPE, agree_splitters, draw_samples, merge_received
from .steps import partition_block, sort_block

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


class JobFrame:
    """One word-path job: what its ranks share, and the storage it owns.

    The frame, each rank's input offset and the job-wide outputs (keys,
    origin index, origin processor: one array per role, as the pool's job
    leases) are fixed before the run (:func:`job_frame`).  The storage is
    drawn warm from the run's pool at the job's first step 1: the step-1
    words, one per key with rank ``r``'s at its input offset; the step-5
    receive stream, which for 8-byte keys is the output keys viewed as
    int64 (they decode in place) and otherwise one int64 array; and, for
    float keys, the input the lossy codes refill from.  The kernels that
    fill it run on the run's threads; the storage goes back once every
    rank's step-6 kernel finished.
    """

    def __init__(self, frame: KeyFrame, blocks: Sequence[np.ndarray]):
        n, dtype = sum(map(len, blocks)), frame.dtype
        self.frame, self.blocks = frame, blocks
        self.block_starts = np.cumsum([0, *map(len, blocks[:-1])], dtype=np.int64)
        self.outputs = (np.empty(n, dtype), np.empty(n, INDEX_DTYPE), np.empty(n, np.int16))
        self.arena = self.words = self.stream = self.source = None
        self.merges: list = []

    def _draw(self, kernels) -> None:
        self.arena = kernels.checkout()
        keys = self.outputs[0]
        n, wide = len(keys), keys.itemsize == 8
        storage = self.arena.take(n if wide else 2 * n, np.int64)
        self.words = storage[:n]
        self.stream = keys.view(np.int64) if wide else storage[n:]
        self.source = keys[:0]
        if keys.dtype.kind == "f":
            self.source = np.concatenate(self.blocks, out=self.arena.take(n, keys.dtype))

    def sort(self, machine: Machine, block: np.ndarray):
        """Step 1 on one rank, submitted to the run's kernel threads: a
        future of its :class:`SortedWords`, packed and sorted in the job's
        words (int keys are their own codes)."""
        if self.arena is None:
            self._draw(machine.kernels)
        start = int(self.block_starts[machine.rank])
        words = self.words[start : start + len(block)]
        block_words = SortedWords(words, self.frame, self.source, self.block_starts)
        return machine.kernels.submit(_pack_and_sort, block, machine.rank, block_words)

    def merge(self, machine: Machine, runs: np.ndarray, run_lengths: list[int], base: int):
        """Step 6 on one rank, submitted to the run's kernel threads: its
        ``runs`` (its region of the stream) sorted and decoded into the
        outputs at ``base``.  Returns the output views the kernel fills; the
        last rank's call hands the storage back once every merge is done."""
        keys, index, proc = (out[base : base + len(runs)] for out in self.outputs)
        self.merges.append(machine.kernels.submit(
            _sort_and_unpack, runs, run_lengths, self, keys, index, proc
        ))
        if len(self.merges) == len(self.block_starts):
            machine.kernels.checkin(self.arena, self.merges)
        return keys, Provenance(proc, index)


def _pack_and_sort(block: np.ndarray, rank: int, block_words: SortedWords) -> SortedWords:
    words = block_words.words
    codes = code_and_stats(block, words)[0] if block.dtype.kind == "f" else block
    pack_words(codes, block_words.frame, rank, words).sort()
    return block_words


def _sort_and_unpack(runs, run_lengths, job: JobFrame, keys, index, proc) -> None:
    sort_runs_in_place(runs, run_lengths, job.frame.shift)
    unpack_words(runs, job.frame, job.source, job.block_starts, keys, index, proc)


def job_frame(blocks: Sequence[np.ndarray]) -> JobFrame | None:
    """The word path's job state, or ``None`` when the key frame misses.

    Folds the block statistics the pool allgathers in step 1 once, outside
    virtual time; int keys are their own codes (one read, no second pass).
    """
    dtype = blocks[0].dtype
    if not has_key_codec(dtype):
        return None
    codes = np.empty(max(map(len, blocks)) if dtype.kind == "f" else 0, dtype=np.int64)
    stats = [code_and_stats(block, codes[: len(block)])[1] for block in blocks]
    frame = derive_key_frame(stats, dtype, len(blocks))
    return None if frame is None else JobFrame(frame, blocks)


def merge_keys(machine: Machine, options, key_buffer, index_buffer, run_lengths):
    """Step 6 of the keys + perm path on one rank: ``(keys, provenance)``."""
    outcome = merge_received(
        key_buffer, index_buffer, run_lengths, options.balanced_merge,
        scratch=machine.scratch,
    )
    return outcome.keys, Provenance(outcome.aux[1], outcome.aux[0])


def local_sort_step(
    machine: Machine, keys: np.ndarray, options: SortOptions, out: RankSortOutput, job
):
    """Step 1 on one machine; returns ``((sorted block, perm), end time)``.

    Sorts words with a job frame, keys + perm without, charging the same.
    On the word path the sort runs on the run's kernel threads and the
    block is a future of its :class:`SortedWords` (perm ``None``).  Step
    boundaries are marked for the structured tracer; Mark consumes no
    virtual time and is a no-op without a tracer, so the golden
    fingerprint is unaffected.
    """
    t0 = yield Now()
    yield Mark(STEP_LABELS[0])
    if job is None:
        block, perm, _path = sort_block(keys)
    else:
        block, perm = job.sort(machine, keys), None
    seconds = local_sort_seconds(machine, len(keys), balanced=options.balanced_merge)
    yield machine.compute(seconds, STEP_LABELS[0])
    # Figure 11 accounting: the sort's resident overhead is the permutation
    # (later the provenance), one index per key on either path; the dataset
    # itself belongs to the engine's data store and is not billed to the sort.
    machine.data.reserve("perm", len(keys) * INDEX_DTYPE.itemsize)
    t1 = yield Now()
    yield Mark(STEP_LABELS[0], event="end")
    out.step_seconds[STEP_LABELS[0]] = t1 - t0
    return (block, perm), t1


def merge_step(
    machine: Machine, options: SortOptions, out: RankSortOutput, run_lengths, keys, provenance
):
    """Step 6 on one machine: store ``keys``/``provenance`` (one kernel pass
    over ``run_lengths`` runs), charged as the handler's or fold's levels."""
    yield Mark(STEP_LABELS[5])
    t_begin = yield Now()
    received_bytes = machine.data.scaled(int(keys.nbytes))
    machine.data.memory.alloc(received_bytes, temporary=True)  # runs pre-merge
    machine.scratch.release_all()  # receive buffers + staging are dead
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
    machine: Machine, local_keys: np.ndarray, options: SortOptions, job: JobFrame | None
):
    """Generator program implementing the six steps on one machine; ``job``
    is the :func:`job_frame` (``None``: the keys + perm path)."""
    keys = np.ascontiguousarray(local_keys)
    rank, size = machine.rank, machine.size
    cfg, cost = machine.config, machine.cost
    out = RankSortOutput(keys=keys, provenance=Provenance.empty())

    # Yielding the step generators (rather than ``yield from``) lets the
    # engine trampoline them: their resumes skip this frame.
    # Steps 2-5 read and ship the sorted keys, or the sorted words.
    (block, perm), t1 = yield local_sort_step(machine, keys, options, out, job)
    block_bytes = machine.data.scaled(len(keys) * keys.dtype.itemsize)

    if size == 1:
        # Single machine: the local sort is the whole story.
        for label in STEP_LABELS[1:]:
            out.step_seconds[label] = 0.0
            yield Mark(label)
            yield Mark(label, event="end")
        if job is None:
            out.keys, out.provenance = merge_keys(machine, options, block, perm, [len(keys)])
        else:
            out.keys, out.provenance = job.merge(machine, block.result().words, [len(keys)], 0)
        machine.scratch.release_all()
        out.sent_counts = np.array([len(keys)], dtype=np.int64)
        out.received_counts = np.array([len(keys)], dtype=np.int64)
        return out

    # ----------------------------------------------------- step 2: sampling
    yield Mark(STEP_LABELS[1])
    if job is not None:
        block = block.result()  # step 1's kernel: its first reader is here
    samples = draw_samples(block, cfg, size, options.sample_factor)
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
    part = partition_block(block, splitters, size, options.investigator)
    out.searches = part.searches
    yield machine.compute(
        cost.binary_search_seconds(part.searches, int(len(block) * cfg.data_scale)),
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
        machine.proc,
        block,
        perm,
        part,
        cfg,
        copy_seconds_per_byte=1.0 / cost.copy_bandwidth,
        scratch=machine.scratch,
        stream=None if job is None else job.stream,
    )
    machine.data.memory.free(block_bytes, temporary=True)
    out.sent_counts = ex.counts_matrix[rank].copy()
    out.received_counts = ex.counts_matrix[:, rank].copy()
    t5 = yield Now()
    yield Mark(STEP_LABELS[4], event="end")
    out.step_seconds[STEP_LABELS[4]] = t5 - t4

    # -------------------------------------------------------- step 6: merge
    run_lengths = ex.counts_matrix[:, rank].tolist()
    if job is None:
        merged = merge_keys(machine, options, ex.key_buffer, ex.index_buffer, run_lengths)
    else:
        base = int(ex.counts_matrix[:, :rank].sum())  # this rank's output region
        merged = job.merge(machine, ex.key_buffer, run_lengths, base)
    yield merge_step(machine, options, out, run_lengths, *merged)
    return out

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..pgxd.runtime import Machine
from ..simnet.calls import Mark, Now
from ..simnet.collectives import bcast, gather
from .balanced_merge import merge_levels_cost_seconds
from .exchange import ExchangeResult, exchange_partitions
from .local_sort import parallel_quicksort
from .provenance import Provenance
from .steps import agree_splitters, draw_samples, merge_received, partition_block

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
    #: Reliable-exchange knobs used when a fault plan is attached to the
    #: run (None = :class:`repro.simnet.comm.ResilienceConfig` defaults).
    #: Ignored on fault-free runs, which take the lossless fast path.
    resilience: "object | None" = None

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
    #: Ranks that produced output, agreed by the recovery protocol; None on
    #: the fault-free path (the whole cluster survived by construction).
    survivors: tuple[int, ...] | None = None
    #: Index of the recovery round that committed (0 = first attempt).
    recovery_rounds: int = 0


def local_sort_step(
    machine: Machine, keys: np.ndarray, options: SortOptions, out: RankSortOutput
):
    """Step 1 on one machine; returns ``(LocalSortResult, end time)``.

    The lossless and the resilient programs both yield this generator to
    the engine.  Step boundaries are marked for the structured tracer; Mark
    consumes no virtual time and is a no-op without a tracer, so the golden
    fingerprint is unaffected.
    """
    t0 = yield Now()
    yield Mark(STEP_LABELS[0])
    local = parallel_quicksort(machine, keys, balanced=options.balanced_merge)
    yield machine.compute(local.seconds, STEP_LABELS[0])
    # Figure 11 accounting: the sort's resident overhead is the permutation
    # (later the provenance); the dataset itself belongs to the engine's
    # data store and is not billed to the sort.
    machine.data.store("perm", local.perm)
    t1 = yield Now()
    yield Mark(STEP_LABELS[0], event="end")
    out.step_seconds[STEP_LABELS[0]] = t1 - t0
    return local, t1


def merge_step(
    machine: Machine,
    options: SortOptions,
    out: RankSortOutput,
    key_buffer: np.ndarray,
    index_buffer: np.ndarray,
    run_lengths: list[int],
    sources: "list[int] | None" = None,
):
    """Step 6 on one machine: merge the received runs into ``out``.

    ``key_buffer``/``index_buffer`` hold one sorted run per source back to
    back (``run_lengths``; ``sources`` names the origin ranks when they are
    not ``0..k-1``, as after a crash).  The flat kernel merges them in one
    pass; the *charged* shape is the handler's (or the fold's) levels.
    """
    yield Mark(STEP_LABELS[5])
    t_begin = yield Now()
    received_bytes = machine.data.scaled(int(key_buffer.nbytes))
    machine.data.memory.alloc(received_bytes, temporary=True)  # runs pre-merge
    outcome = merge_received(
        key_buffer,
        index_buffer,
        run_lengths,
        options.balanced_merge,
        sources=sources,
        scratch=machine.scratch,
    )
    machine.scratch.release_all()  # receive buffers + staging are dead
    yield machine.compute(
        merge_levels_cost_seconds(
            outcome.levels,
            machine.tasks,
            machine.cost,
            scale=machine.config.data_scale,
        ),
        STEP_LABELS[5],
    )
    machine.data.memory.free(received_bytes, temporary=True)
    prov = Provenance(origin_proc=outcome.aux[1], origin_index=outcome.aux[0])
    machine.data.store("origin_proc", prov.origin_proc)
    machine.data.store("origin_index", prov.origin_index)
    machine.data.drop("perm")
    t_end = yield Now()
    yield Mark(STEP_LABELS[5], event="end")
    out.step_seconds[STEP_LABELS[5]] = t_end - t_begin
    out.keys = outcome.keys
    out.provenance = prov


def sample_sort_program(machine: Machine, local_keys: np.ndarray, options: SortOptions):
    """Generator program implementing the six steps on one machine."""
    if machine.proc.faults is not None and machine.size > 1:
        # Fault injection is active: take the resilient protocol (seq/ack
        # exchange + recovery rounds).  The lossless fast path below would
        # silently corrupt or deadlock under drops/dups/crashes.
        from .recovery import resilient_sort_program

        result = yield resilient_sort_program(machine, local_keys, options)
        return result
    keys = np.ascontiguousarray(local_keys)
    rank, size = machine.rank, machine.size
    cfg, cost = machine.config, machine.cost
    out = RankSortOutput(keys=keys, provenance=Provenance.empty())

    # Yielding the step generators (rather than ``yield from``) lets the
    # engine trampoline them: their resumes skip this frame.
    local, t1 = yield local_sort_step(machine, keys, options, out)

    if size == 1:
        # Single machine: the local sort is the whole story.
        for label in STEP_LABELS[1:]:
            out.step_seconds[label] = 0.0
            yield Mark(label)
            yield Mark(label, event="end")
        out.keys = local.keys
        out.provenance = Provenance(np.zeros(len(keys), dtype=np.int16), local.perm)
        out.sent_counts = np.array([len(keys)], dtype=np.int64)
        out.received_counts = np.array([len(keys)], dtype=np.int64)
        return out

    # ----------------------------------------------------- step 2: sampling
    yield Mark(STEP_LABELS[1])
    samples = draw_samples(local.keys, cfg, size, options.sample_factor)
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
    part = partition_block(local.keys, splitters, size, options.investigator)
    out.searches = part.searches
    yield machine.compute(
        cost.binary_search_seconds(
            part.searches, int(len(local.keys) * cfg.data_scale)
        ),
        STEP_LABELS[3],
    )
    t4 = yield Now()
    yield Mark(STEP_LABELS[3], event="end")
    out.step_seconds[STEP_LABELS[3]] = t4 - t3

    # ----------------------------------------------------- step 5: exchange
    # Staging the outgoing partitions is a streaming copy; the exchange
    # itself is asynchronous sends + receives (network time).
    yield Mark(STEP_LABELS[4])
    yield machine.compute(
        cost.copy_seconds(machine.data.scaled(int(local.keys.nbytes)), machine.threads),
        STEP_LABELS[4],
    )
    machine.data.memory.alloc(machine.data.scaled(int(local.keys.nbytes)), temporary=True)
    ex: ExchangeResult = yield exchange_partitions(
        machine.proc,
        local.keys,
        local.perm,
        part,
        cfg,
        copy_seconds_per_byte=1.0 / cost.copy_bandwidth,
        scratch=machine.scratch,
    )
    machine.data.memory.free(machine.data.scaled(int(local.keys.nbytes)), temporary=True)
    out.sent_counts = ex.counts_matrix[rank].copy()
    out.received_counts = ex.counts_matrix[:, rank].copy()
    t5 = yield Now()
    yield Mark(STEP_LABELS[4], event="end")
    out.step_seconds[STEP_LABELS[4]] = t5 - t4

    # -------------------------------------------------------- step 6: merge
    yield merge_step(
        machine,
        options,
        out,
        ex.key_buffer,
        ex.index_buffer,
        ex.counts_matrix[:, rank].tolist(),
    )
    return out

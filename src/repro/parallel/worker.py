"""The per-rank worker loop of the multiprocess backend.

One process per rank runs :func:`worker_main` — since PR 9 a *persistent
job loop*: the worker blocks on the control pipe for the next
:class:`JobSpec`, resets its per-job state (collective sequence, ShmSan
epoch clock, tracer), executes the paper's six steps over real OS
parallelism, reports, and loops until the driver sends shutdown.  The
step implementations are shared with the simulated sorter and the
in-process reference backend (the key codec and pack of
:mod:`repro.core.packsort`, regular sampling, Master splitter selection,
the investigator), so the produced partitions are **bit-identical** to
both.

Data plane (all shared memory, described by a :class:`JobSpec`):

* the unsorted input lives in one shm block, rank ``r`` reading
  ``input[bounds[r]:bounds[r+1]]``; workers never write it;
* **provenance rides inside the key** (the *word path*): in step 1 every
  rank allgathers its block's ``(code_min, code_max, code_or, len)``,
  all derive the same :class:`~repro.core.packsort.KeyFrame`, and each
  packs ``(code << shift) | (rank << idx_bits) | index`` into unique
  int64 words, sorts them, and decodes the sorted keys once for steps
  2–4 (samples, cache histograms and ``compute_rank_cuts`` read keys;
  the sample bytes, hence fingerprints and splitters, are unchanged);
* the step-5 exchange writes word slices (8 B/key, nothing else)
  *directly into the receivers' regions* of the word stream: the
  allgathered counts matrix fixes every (src, dst) run's offset, the
  regions are disjoint, so every rank writes its outgoing runs
  concurrently with zero copies through the control plane and zero locks
  — a barrier separates the writes from the merges;
* step 6 sorts the rank's own region **in place in shared memory** —
  words from different ranks compare as ``(key, rank, index)``, which is
  the stable merge order, and they are unique, so no permutation exists
  to apply — and unpacks once, straight into the output leases: origin
  index and origin rank by mask and shift, keys by decoding (8-byte keys
  in place: their word stream *is* the key lease).  The two lossy float
  codes (±0.0, NaN payloads) are refilled from the input lease through
  the provenance just unpacked.  The driver collects from the leases;
* when the frame does not fit (or the codec has no code for the dtype)
  the job takes the **keys + perm fallback**: ``stable_sort_with_order``
  in step 1, sorted keys and an int32 permutation through the exchange
  (two streams), ``flat_kway_merge`` over the region in step 6 with the
  result stored back over it.  ``WorkerReport.local_sort_path`` says
  which path a rank took.  Without provenance a values-only region is
  sorted in place like the words.

Control plane (pickled over one pipe per rank, via the hub in
:mod:`repro.parallel.collectives`): the sample gather, the splitter
broadcast, the counts allgather, and the pre/post-exchange barriers —
bytes proportional to ``p``, never to ``n``; the word path adds one
allgather of four integers per rank, timed and waited inside step 1.

Timing here is *wall-clock* (``time.perf_counter``), which is the whole
point of this backend; the simulated path keeps its virtual clock.

Observability: every worker heartbeats the hub at each step boundary
(always on — six tiny pipe messages that power the crash detector's
which-step-died diagnostics) and, when the parent requested tracing
(``job.trace``), records a :class:`~repro.parallel.tracing.WorkerTrace`
— clock-offset handshake, per-step windows, collective wait spans, one
flow per (src, dst) shm write with bytes (``count × 8`` for a word run)
and the run's byte offset in the exchanged stream, and
counter samples — shipped home on the :class:`WorkerReport` and merged
on the parent into the simnet-schema tracer.

Splitter/sample cache (the Histogram-Sort-with-Sampling idea from
PAPERS.md, adapted to exactness): the driver ships prior-epoch
``(fingerprint, splitters)`` candidates on the :class:`JobSpec`.  Every
rank still draws its regular samples, but instead of gathering the
sample *arrays* it gathers a per-rank sample digest plus one cheap
histogram per candidate; the Master combines the digests into the job's
distribution fingerprint and, on an exact match with a balanced
histogram, broadcasts the candidate index — the splitter selection is
skipped entirely.  Because the fingerprint hashes the exact sample
bytes, a cache hit *guarantees* the cached splitters equal what fresh
selection would produce, so the output stays bit-identical to the
oracle on every path; any miss, imbalance, or forced fallback rejoins
the classic gather-samples/bcast-splitters path.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from multiprocessing.connection import Connection

import numpy as np

from ..core.investigator import compute_rank_cuts, slices_from_cuts
from ..core.packsort import (
    block_code_stats,
    decode_keys,
    derive_key_frame,
    order_preserving_codes,
    pack_words,
    sort_runs_in_place,
    stable_sort_with_order,
    unpack_provenance,
)
from ..core.sampling import sample_count, select_regular_samples
from ..core.scratch import ScratchArena
from ..core.sorter import MASTER, STEP_LABELS, SortOptions
from ..core.splitters import merge_samples, select_splitters
from ..pgxd.config import PgxdConfig
from .arena import ShmLease
from .collectives import WorkerLink
from .layout import exchange_layout
from .shmsan import AccessRecorder
from .tracing import WorkerTrace, WorkerTracer, estimate_clock_offset, peak_rss_bytes


@dataclass(frozen=True)
class JobSpec:
    """Everything a worker needs for one sort, picklable, sent per job."""

    size: int
    #: Prefix bounds of each rank's block in the input lease (size+1).
    block_bounds: tuple[int, ...]
    input_lease: ShmLease
    #: Output stream for keys; also the exchange stream off the word path.
    key_lease: ShmLease
    #: Output stream for origin indices (None without provenance); also an
    #: exchange stream on the keys + perm fallback path.
    index_lease: ShmLease | None
    #: Output stream for origin processors (None without provenance).
    proc_lease: ShmLease | None
    #: Exchange stream of packed int64 words; None when the job cannot
    #: take the word path at all (no provenance, or a key dtype the codec
    #: declines).  For 8-byte keys it aliases :attr:`key_lease` — the
    #: merged words are decoded to keys in place — narrower keys get a
    #: segment of their own.
    word_lease: ShmLease | None
    options: SortOptions
    config: PgxdConfig
    #: Record a :class:`~repro.parallel.tracing.WorkerTrace` (set by the
    #: parent when an ambient obs capture is active; off by default).
    trace: bool = False
    #: Record ShmSan access intervals for every shared-memory touch and
    #: flush them home at step boundaries (off by default; the unsanitized
    #: path pays only ``is not None`` guards).
    sanitize: bool = False
    #: Test hook: seed one invariant break on ``mutate_rank`` (a name from
    #: :data:`repro.parallel.shmsan.MUTATIONS`) — the detector's detector.
    mutate: str | None = None
    mutate_rank: int = 0
    #: Monotonic id the driver stamps on each dispatched job; threaded
    #: into traces and reports so pooled artifacts stay attributable.
    job_id: int = 0
    #: Prior-epoch ``(fingerprint, splitters)`` pairs for this key dtype
    #: and cluster size (newest last).  Empty on cold pools.
    cached_candidates: tuple[tuple[str, np.ndarray], ...] = ()
    #: Test/ops hook: probe the cache (and report the would-be verdict)
    #: but always take the full sampling path.
    force_resample: bool = False
    #: A cached candidate is usable only if the heaviest destination's
    #: histogram load stays under ``tolerance × ideal``.
    cache_balance_tolerance: float = 2.0
    #: Seeded process-level fault plan (:mod:`repro.parallel.chaos`);
    #: ``None`` — the overwhelmingly common case — keeps the worker on
    #: the exact PR-9 code path behind ``is not None`` guards.
    chaos: "object | None" = None
    #: Which attempt of the job this dispatch is (0 on the first try).
    #: Retries re-run the same logical job under a fresh generation; the
    #: chaos plan uses this to model transient vs. persistent faults.
    attempt: int = 0
    #: Original rank identity per worker slot, set by survivor-degraded
    #: re-plans (``rank_ids[slot] = original rank``); ``None`` means the
    #: identity mapping.  Keeps chaos schedules aimed at the same
    #: physical participant across renumberings.
    rank_ids: tuple[int, ...] | None = None


@dataclass
class WorkerReport:
    """Small per-rank metadata returned over the pipe (never bulk data)."""

    rank: int
    #: Keys this rank sent to each destination (row of the counts matrix).
    counts_row: np.ndarray
    #: Wall seconds per step label.
    step_seconds: dict[str, float] = field(default_factory=dict)
    samples_sent: int = 0
    searches: int = 0
    #: Final splitters (Master only; None elsewhere).
    splitters: np.ndarray | None = None
    #: Total wall seconds inside the six steps on this worker.
    wall_seconds: float = 0.0
    #: Measured blocking seconds per step label (collective waits).
    step_wait_seconds: dict[str, float] = field(default_factory=dict)
    #: Measured blocking seconds in gather/bcast/allgather replies.
    recv_wait_seconds: float = 0.0
    #: Measured blocking seconds in barriers.
    barrier_wait_seconds: float = 0.0
    #: Peak resident set size of the worker process, bytes (measured).
    peak_rss_bytes: int = 0
    #: Event payload when the parent requested tracing (None otherwise).
    trace: WorkerTrace | None = None
    #: Splitter-cache verdict for this job: ``cold`` (no candidates
    #: shipped), ``hit``, ``miss`` (fingerprint unknown),
    #: ``fallback-balance`` (matched but histogram too skewed), or
    #: ``fallback-forced`` (``force_resample``).
    splitter_cache: str = "cold"
    #: Exact distribution fingerprint of this job (Master only) — what
    #: the driver commits to its cache alongside the splitters.
    sample_fingerprint: str | None = None
    #: Job id echoed from the spec.
    job_id: int = 0
    #: How provenance travelled, fastest first: ``"through"`` — inside
    #: the packed word, steps 1–6 (the word path); ``"packed"`` — the
    #: job's key frame did not fit, so keys + perm were exchanged, but
    #: this rank's own block still took the packed step-1 sort;
    #: ``"stable"`` — the several-times-slower stable-argsort step 1
    #: (:func:`~repro.core.packsort.stable_sort_with_order`).  ``None``
    #: without provenance, where a plain ``np.sort`` runs instead.
    local_sort_path: str | None = None


class SegmentCache:
    """Worker-side map of attached shm segments, warm across jobs.

    The arena's contract makes this safe: a named segment is never
    resized (growth allocates a *new* segment under a new name), so the
    mapping a worker opened for job *k* still addresses the same pages
    for job *k+n*.  Caching the attachment turns the per-job
    open/mmap/close churn of the spawn-per-sort design into a dict hit.
    Leases are plain (name, dtype, length, offset) descriptors, so views
    are rebuilt per job — only the ``SharedMemory`` handle is pooled.
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    def view(self, lease: ShmLease) -> np.ndarray:
        shm = self._segments.get(lease.name)
        if shm is None:
            shm = shared_memory.SharedMemory(name=lease.name)
            self._segments[lease.name] = shm
        return np.ndarray(
            lease.length,
            dtype=np.dtype(lease.dtype),
            buffer=shm.buf,
            offset=lease.offset_bytes,
        )

    def close(self) -> None:
        for shm in self._segments.values():
            shm.close()
        self._segments.clear()


# ------------------------------------------------- splitter/sample cache


def sample_digest(samples: np.ndarray) -> str:
    """Exact digest of one rank's regular sample (bytes, not values)."""
    return hashlib.sha1(
        np.ascontiguousarray(samples).tobytes()
    ).hexdigest()


def combine_sample_fingerprint(
    digests: list[str], dtype: np.dtype, size: int
) -> str:
    """Combine per-rank digests into the job's distribution fingerprint.

    The fingerprint pins everything the splitter selection consumes: key
    dtype, cluster size, and the exact per-rank sample bytes in rank
    order.  Equal fingerprint ⇒ identical merged sample ⇒ identical
    splitters — which is what lets a cache hit skip selection without
    risking the bit-identity contract.
    """
    acc = hashlib.sha1(f"{np.dtype(dtype).str}|p{size}".encode())
    for digest in digests:
        acc.update(digest.encode())
    return acc.hexdigest()


def _candidate_histogram(
    sorted_keys: np.ndarray, splitters: np.ndarray, size: int
) -> np.ndarray:
    """Per-destination key counts this rank would send under ``splitters``.

    One ``searchsorted`` over the already-sorted block — the "one cheap
    histogram pass" that stands in for re-running selection when a
    candidate's fingerprint matches.
    """
    cuts = np.searchsorted(sorted_keys, splitters, side="right")
    bounds = np.concatenate(([0], cuts, [len(sorted_keys)]))
    return np.diff(bounds[: size + 1]).astype(np.int64)


def _run_six_steps(
    rank: int,
    plan: JobSpec,
    link: WorkerLink,
    segments: SegmentCache,
    scratch: ScratchArena,
) -> WorkerReport:
    options, config, size = plan.options, plan.config, plan.size
    track = options.track_provenance
    report = WorkerReport(
        rank=rank,
        counts_row=np.zeros(size, dtype=np.int64),
        job_id=plan.job_id,
    )

    def _attach(lease: ShmLease) -> np.ndarray:
        return segments.view(lease)

    recorder = AccessRecorder(rank) if plan.sanitize else None
    mutation = plan.mutate if rank == plan.mutate_rank else None

    def _beat(step: str, rows: int) -> None:
        # Heartbeat the hub and piggyback a sanitizer-log flush on the
        # same step boundary, so a crash mid-run leaves the analyzer
        # every access up to the last boundary.  The chaos plan is
        # consulted first: a planned kill must not leave a heartbeat for
        # the step it never entered.
        if link.chaos is not None:
            link.chaos.at_step_boundary(step)
        link.heartbeat(step, rows)
        if recorder is not None:
            link.flush_san(recorder.drain())

    tracer: WorkerTracer | None = None
    if plan.trace:
        # Clock-offset handshake: align this process's perf_counter with
        # the hub's before any event is recorded, then barrier so every
        # rank enters step 1 from a common point.  Re-estimated per job:
        # a pooled worker's offset drifts between jobs.
        tracer = WorkerTracer(rank, job_id=plan.job_id)
        link.tracer = tracer
        if link.chaos is not None:
            link.chaos.tracer = tracer  # surviving injections leave fault events
        offset, rtt = estimate_clock_offset(link.probe)
        tracer.trace.clock_offset = offset
        tracer.trace.clock_rtt = rtt
        link.barrier()

    input_block = _attach(plan.input_lease)
    ex_keys = _attach(plan.key_lease)
    ex_index = _attach(plan.index_lease) if track else None
    out_proc = _attach(plan.proc_lease) if track else None
    lo, hi = plan.block_bounds[rank], plan.block_bounds[rank + 1]
    block = input_block[lo:hi]
    if recorder is not None:
        recorder.record(
            plan.input_lease, lo, hi, "r", 1, link.epoch, "input-read"
        )

    _beat(STEP_LABELS[0], len(block))
    t0 = time.perf_counter()  # repro: noqa[R002] — real backend: measured step wall time is the product
    # ------------------------------------------------ step 1: local sort
    # Word path: one allgather of block statistics fixes the job's key
    # frame on every rank; if it fits, the unit that is sorted, exchanged
    # and merged from here on is the packed (code, rank, index) word.
    # Otherwise the same kernel as the simulated sorter's
    # parallel_quicksort (packed or stable argsort, bit-identical either
    # way) yields keys + an int32 permutation.
    frame = None
    if plan.word_lease is not None:
        codes = order_preserving_codes(block)
        frame = derive_key_frame(
            link.allgather(block_code_stats(codes, block.dtype.kind == "f")),
            block.dtype,
            size,
        )
    if frame is not None:
        block_starts = np.asarray(plan.block_bounds, dtype=np.int64)
        # Step-1 temporaries come from the worker's warm scratch pool:
        # 16 bytes/key of fresh pages per job would be the op's largest
        # page-fault bill.
        words = pack_words(
            codes, frame, rank, out=scratch.take(len(block), np.int64)
        )
        del codes
        words.sort()
        sorted_keys = scratch.take(len(block), block.dtype)
        decode_keys(words, frame, sorted_keys, input_block, block_starts)
        report.local_sort_path = "through"
        outgoing = [(_attach(plan.word_lease), plan.word_lease, words)]
    elif track:
        sorted_keys, order, report.local_sort_path = stable_sort_with_order(block)
        perm = order.astype(np.int32)
        del order  # 8 bytes/key that would otherwise sit under the step-6 peak
        outgoing = [
            (ex_keys, plan.key_lease, sorted_keys),
            (ex_index, plan.index_lease, perm),
        ]
    else:
        sorted_keys = np.sort(block)
        outgoing = [(ex_keys, plan.key_lease, sorted_keys)]
    t1 = time.perf_counter()  # repro: noqa[R002] — real backend: measured step wall time is the product
    report.step_seconds[STEP_LABELS[0]] = t1 - t0

    # -------------------------------------------------- step 2: sampling
    # Samples are always drawn (they are cheap and they feed the exact
    # fingerprint); what the cache changes is what crosses the control
    # plane: digests + histograms instead of the sample arrays.
    _beat(STEP_LABELS[1], len(sorted_keys))
    count = sample_count(
        config, size, sorted_keys.dtype.itemsize, options.sample_factor
    )
    samples = select_regular_samples(sorted_keys, count)
    report.samples_sent = len(samples)
    splitters = None
    candidates = plan.cached_candidates
    if candidates:
        digest = sample_digest(samples)
        histograms = [
            _candidate_histogram(sorted_keys, cand_splitters, size)
            for _fp, cand_splitters in candidates
        ]
        probe = link.gather((digest, histograms), root=MASTER)
        if rank == MASTER:
            assert probe is not None
            fingerprint = combine_sample_fingerprint(
                [d for d, _h in probe], sorted_keys.dtype, size
            )
            report.sample_fingerprint = fingerprint
            chosen = next(
                (
                    i
                    for i, (cand_fp, _s) in enumerate(candidates)
                    if cand_fp == fingerprint
                ),
                None,
            )
            if chosen is None:
                decision = ("miss", None)
            elif plan.force_resample:
                decision = ("fallback-forced", None)
            else:
                loads = np.sum([h[chosen] for _d, h in probe], axis=0)
                ideal = max(float(loads.sum()) / size, 1.0)
                if float(loads.max()) / ideal > plan.cache_balance_tolerance:
                    decision = ("fallback-balance", None)
                else:
                    decision = ("hit", chosen)
        else:
            decision = None
        verdict, chosen = link.bcast(decision, root=MASTER)
        report.splitter_cache = verdict
        if chosen is not None:
            splitters = candidates[chosen][1]
            if rank == MASTER:
                report.splitters = splitters
    t2 = time.perf_counter()  # repro: noqa[R002] — real backend: measured step wall time is the product
    report.step_seconds[STEP_LABELS[1]] = t2 - t1

    # ------------------------------------------------- step 3: splitters
    # Skipped entirely on a cache hit (splitters already in hand after
    # two collectives); every other verdict rejoins the classic
    # gather-samples → select → broadcast path, so all ranks agree on
    # the collective schedule (the verdict broadcast synchronized them).
    _beat(STEP_LABELS[2], report.samples_sent)
    if splitters is None:
        gathered = link.gather(samples, root=MASTER)
        if rank == MASTER:
            assert gathered is not None
            splitters = select_splitters(merge_samples(gathered), size)
            report.splitters = splitters
            if report.sample_fingerprint is None:
                report.sample_fingerprint = combine_sample_fingerprint(
                    [sample_digest(s) for s in gathered],
                    sorted_keys.dtype,
                    size,
                )
        else:
            splitters = None
        splitters = link.bcast(splitters, root=MASTER)
    t3 = time.perf_counter()  # repro: noqa[R002] — real backend: measured step wall time is the product
    report.step_seconds[STEP_LABELS[2]] = t3 - t2

    # ------------------------------------------------- step 4: partition
    _beat(STEP_LABELS[3], len(sorted_keys))
    cut = compute_rank_cuts(
        sorted_keys, splitters, size, investigator=options.investigator
    )
    report.searches = cut.searches
    out_slices = slices_from_cuts(cut.cuts, len(sorted_keys))
    counts = np.array(
        [sl.stop - sl.start for sl in out_slices], dtype=np.int64
    )
    report.counts_row = counts
    t4 = time.perf_counter()  # repro: noqa[R002] — real backend: measured step wall time is the product
    report.step_seconds[STEP_LABELS[3]] = t4 - t3

    # -------------------------------------------------- step 5: exchange
    # Everyone learns the counts matrix, which fixes each (src, dst)
    # run's offset in the shared exchange stream; writes are disjoint.
    _beat(STEP_LABELS[4], len(sorted_keys))
    all_counts = link.allgather(counts)
    counts_matrix = np.stack(all_counts)
    layout = exchange_layout(counts_matrix)
    # What travels: the word stream alone, or keys (+ perm) — see step 1.
    stream_len = len(outgoing[0][0])
    offset_itemsize = outgoing[0][2].dtype.itemsize
    row_bytes = sum(payload.dtype.itemsize for _s, _l, payload in outgoing)
    shifted = False
    for dst in range(size):
        sl = out_slices[dst]
        if sl.stop == sl.start:
            continue
        pos = layout.run_offset(rank, dst)
        end = pos + (sl.stop - sl.start)
        if mutation == "offset-off-by-one" and not shifted:
            # Seeded invariant break: slide the first nonempty run one
            # element off its counts-derived home (into a neighbour's
            # run, or backwards at the stream's end) — the overlap
            # ShmSan's offset and race checks must catch.
            if end + 1 <= stream_len:
                pos, end, shifted = pos + 1, end + 1, True
            elif pos >= 1:
                pos, end, shifted = pos - 1, end - 1, True
        t_w0 = time.perf_counter() if tracer is not None else 0.0  # repro: noqa[R002] — real backend: measured flow timing is the product
        for stream, lease, payload in outgoing:
            stream[pos:end] = payload[sl]
            if recorder is not None:
                recorder.record(
                    lease, pos, end, "w", 5, link.epoch,
                    "exchange-write", dst=dst,
                )
        if tracer is not None:
            tracer.flow(
                dst,
                (sl.stop - sl.start) * row_bytes,
                pos * offset_itemsize,
                t_w0,
                time.perf_counter(),  # repro: noqa[R002] — real backend: measured flow timing is the product
            )
    if mutation == "skip-merge-barrier":
        # Seeded invariant break: post the barrier contribution (so the
        # hub and the other ranks stay solvent) but charge ahead
        # without waiting — this rank's epoch clock does not advance,
        # so its merge runs concurrent with the others' exchange
        # writes.  The happens-before analysis must flag the races.
        link.post_only("barrier")
    else:
        link.barrier()  # all runs landed; regions are safe to read
    t5 = time.perf_counter()  # repro: noqa[R002] — real backend: measured step wall time is the product
    report.step_seconds[STEP_LABELS[4]] = t5 - t4

    # ----------------------------------------------------- step 6: merge
    # The rank's region holds one sorted run per source, back to back in
    # source order.  Words are unique and ordered as (key, source, index)
    # — the stable merge order — so the region is sorted in place, in
    # shared memory, and unpacked once straight into the output streams;
    # a values-only region (no provenance) is sorted in place the same
    # way.  The keys + perm fallback runs the flat k-way kernel and
    # stores the result back over the (now dead) exchange region.  Either
    # way the driver reads the output from the leases — no pickling.
    base, total = layout.region(rank)
    _beat(STEP_LABELS[5], total)
    stop = base + total
    run_lengths = counts_matrix[:, rank].tolist()
    touched = [(lease, "r", "merge-read") for _s, lease, _p in outgoing]
    touched += [(lease, "w", "merge-write") for _s, lease, _p in outgoing]
    if frame is not None:
        region = outgoing[0][0][base:stop]
        sort_runs_in_place(region, run_lengths)
        unpack_provenance(region, frame, ex_index[base:stop], out_proc[base:stop])
        refilled = decode_keys(
            region, frame, ex_keys[base:stop], input_block, block_starts
        )
        touched += [
            (plan.index_lease, "w", "index-write"),
            (plan.proc_lease, "w", "proc-write"),
            (plan.key_lease, "w", "key-write"),
        ]
        if refilled and recorder is not None:
            recorder.record(
                plan.input_lease, 0, len(input_block), "r", 6, link.epoch,
                "refill-read",
            )
    elif track:
        from ..core.balanced_merge import flat_kway_merge

        idx_region = ex_index[base:stop]
        proc_col = np.empty(total, dtype=np.int16)
        bounds = layout.run_bounds(rank)
        for src in range(size):
            proc_col[bounds[src] : bounds[src + 1]] = src
        outcome = flat_kway_merge(
            ex_keys[base:stop],
            run_lengths,
            [idx_region, proc_col],
            balanced=options.balanced_merge,
        )
        ex_keys[base:stop] = outcome.keys
        idx_region[:] = outcome.aux[0]
        out_proc[base:stop] = outcome.aux[1]
        touched.append((plan.proc_lease, "w", "proc-write"))
    else:
        sort_runs_in_place(ex_keys[base:stop], run_lengths)
    if recorder is not None:
        for lease, kind, label in touched:
            recorder.record(lease, base, stop, kind, 6, link.epoch, label)
        link.flush_san(recorder.drain())
    t6 = time.perf_counter()  # repro: noqa[R002] — real backend: measured step wall time is the product
    report.step_seconds[STEP_LABELS[5]] = t6 - t5
    report.wall_seconds = t6 - t0
    report.step_wait_seconds = dict(link.wait_by_step)
    report.recv_wait_seconds = link.wait_by_kind["recv-wait"]
    report.barrier_wait_seconds = link.wait_by_kind["barrier-wait"]
    report.peak_rss_bytes = peak_rss_bytes()
    if tracer is not None:
        for start, end, label in zip(
            (t0, t1, t2, t3, t4, t5),
            (t1, t2, t3, t4, t5, t6),
            STEP_LABELS,
        ):
            tracer.step(start, end, label)
        report.trace = tracer.trace
    return report


def worker_main(rank: int, size: int, conn: Connection) -> None:
    """Process entry point: the persistent per-rank job loop.

    Spawned once per pool generation.  Blocks on the control pipe for
    each :class:`JobSpec`, resets the link's per-job state (collective
    sequence, epoch clock, tracer — see
    :meth:`~repro.parallel.collectives.WorkerLink.reset`), runs the six
    steps against the warm :class:`SegmentCache`, reports done, and
    waits for the next dispatch.  A ``("stop",)`` message (or EOF from a
    vanished driver) ends the loop and releases the cached attachments.

    Any exception inside a job is serialized to the driver (which
    re-raises it as a typed
    :class:`~repro.parallel.errors.WorkerFailedError`); the worker then
    exits hard so a broken rank can never wedge the cluster — the
    driver's respawn policy builds the *next* generation around the
    hole.
    """
    link = WorkerLink(rank, size, conn)
    segments = SegmentCache()
    scratch = ScratchArena()
    try:
        while True:
            try:
                job = link.recv_job()
            except (EOFError, OSError):
                break  # driver vanished without a stop message
            if job is None:
                break
            link.reset()
            if job.chaos is not None:
                # Chaos schedules address *original* rank ids; under a
                # survivor-degraded re-plan this slot's identity rides on
                # the spec, so a poisoned rank stays poisoned through any
                # renumbering and excluded ranks take no one down with them.
                identity = (
                    job.rank_ids[rank] if job.rank_ids is not None else rank
                )
                link.chaos = job.chaos.worker_state(
                    identity, job.job_id, job.attempt
                )
            try:
                report = _run_six_steps(rank, job, link, segments, scratch)
                link.send_done(report)
                scratch.release_all()
            except BaseException as exc:  # repro: noqa[R006] — process boundary: the exception is serialized to the driver, which re-raises it typed
                try:
                    link.send_error(type(exc).__name__, traceback.format_exc())
                except Exception:  # repro: noqa[R006] — pipe already gone; the hub detects the crash by liveness instead
                    pass
                os._exit(1)
    finally:
        segments.close()

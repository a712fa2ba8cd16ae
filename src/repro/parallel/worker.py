"""The per-rank worker loop of the multiprocess backend.

One process per rank runs :func:`worker_main`, a *persistent job loop*:
the worker blocks on the control pipe for the next :class:`JobSpec`,
resets its per-job state (collective sequence, ShmSan epoch clock,
tracer), executes the paper's six steps over real OS parallelism, reports,
and loops until the driver sends shutdown.

This module is the pool's binding of the one sort program
(:func:`repro.core.program.six_steps`, the simulator's too): a per-job
:class:`_Job` serves its steps — a step edge is the step clock, chaos,
the heartbeat and a ShmSan flush; collectives are pipe calls; step 1
sorts inline in scratch words; step 5 writes shared memory — so the
produced partitions are **bit-identical** to the simulator's and to the
reference backend's.  *What* is sorted, exchanged and merged — packed
words, or keys + perm — is the job's
:class:`~repro.core.datapath.DataPath`, chosen once in step 1;
*where* every (src, dst) run lands in shared memory is
:mod:`repro.parallel.layout`'s to say; workers never write the input.

Control plane (pickled over one pipe per rank, via the hub in
:mod:`repro.parallel.collectives`): the sample gather (or the splitter
cache probe of :mod:`repro.parallel.splitter_cache`), the splitter
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
flow per (src, dst) shm write with bytes (``count × 4`` or ``count × 8``
for a word run, as wide as the job's key frame)
and the run's byte offset in the exchanged stream, and
counter samples — shipped home on the :class:`WorkerReport` and merged
on the parent into the simnet-schema tracer.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from multiprocessing.connection import Connection

import numpy as np

from ..checks.hb import KEYS_AND_PERM
from ..core.datapath import THROUGH, WORD_DTYPE, DataPath, JobStorage
from ..core.packsort import code_and_stats
from ..core.program import MASTER, RankSteps, six_steps
from ..core.scratch import ScratchArena
from ..core.sorter import STEP_LABELS, SortOptions
from ..core.steps import BlockPartition
from ..pgxd.config import PgxdConfig
from .arena import ShmLease
from .collectives import WorkerLink
from .layout import exchange_layout
from .shmsan import AccessRecorder
from .splitter_cache import SplitterProbe
from .tracing import WorkerTrace, WorkerTracer, estimate_clock_offset, peak_rss_bytes


@dataclass(frozen=True)
class JobSpec:
    """Everything a worker needs for one sort, picklable, sent per job."""

    size: int
    #: The job's storage as arena leases (the input staged, the outputs
    #: and word stream to be written), in the one layout of
    #: :func:`~repro.core.datapath.lay_out`.
    leases: JobStorage
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
    #: The splitter cache the job carries: prior epochs' candidates for
    #: its key dtype and cluster size (none on cold pools).
    cache: SplitterProbe = SplitterProbe(())
    #: Seeded process-level fault plan (:mod:`repro.parallel.chaos`);
    #: ``None`` is the overwhelmingly common case.
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
    #: shipped), ``hit``, ``miss`` (fingerprint unknown), or
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
    #: (:func:`~repro.core.packsort.stable_sort_with_order`).  The label of
    #: the job's :class:`~repro.core.datapath.DataPath`, which also
    #: declares the two fields below — read those, not the label.
    local_sort_path: str = THROUGH
    #: Lease roles the job's step 5 wrote (ShmSan expects every run there).
    exchanged: tuple[str, ...] = KEYS_AND_PERM
    #: Bytes one exchanged key cost across those streams.
    bytes_per_key: int = 0


class SegmentCache:
    """Worker-side map of attached shm segments, warm across jobs.

    The arena's contract makes this safe: a named segment is never
    resized (growth allocates a *new* segment under a new name), so the
    mapping a worker opened for job *k* still addresses the same pages
    for job *k+n*, and attaching is a dict hit.  Leases are plain (name,
    dtype, length, offset) descriptors, so views are rebuilt per job —
    only the ``SharedMemory`` handle is pooled.
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


class _Job:
    """One job on one rank: the pool's half of the program's method set
    (:mod:`repro.core.program`), each method returning its value, and the
    hooks at the step edges — heartbeat + chaos, the step clock, the
    ShmSan recorder, the tracer."""

    def __init__(self, rank, plan: JobSpec, link: WorkerLink, segments, scratch: ScratchArena):
        self.rank, self.size, self.config = rank, plan.size, plan.config
        self.plan, self.link, self.scratch = plan, link, scratch
        self.cache = plan.cache
        self.recorder = AccessRecorder(rank) if plan.sanitize else None
        self.mutation = plan.mutate if rank == plan.mutate_rank else None
        #: Clock reads at the step edges: ``marks[i]`` opens step ``i + 1``.
        self.marks: list[float] = []
        #: The block's codes, coded for the frame's statistics.
        self.codes: np.ndarray | None = None
        self.tracer: WorkerTracer | None = None
        if plan.trace:
            # Clock-offset handshake: align this process's perf_counter with
            # the hub's before any event is recorded, then barrier so every
            # rank enters step 1 from a common point.  Re-estimated per job:
            # a pooled worker's offset drifts between jobs.
            self.tracer = link.tracer = WorkerTracer(rank, job_id=plan.job_id)
            if link.chaos is not None:
                link.chaos.tracer = self.tracer  # surviving injections leave fault events
            trace = self.tracer.trace
            trace.clock_offset, trace.clock_rtt = estimate_clock_offset(link.probe)
            link.barrier()
        self.views = plan.leases.map(segments.view)

    def run(self) -> WorkerReport:
        lo, hi = self.plan.leases.block_starts[self.rank : self.rank + 2].tolist()
        block = self.views.input[lo:hi]
        self.record("input", lo, hi, "r", 1, "input-read")
        program, value = six_steps(self, block, self.plan.options), None
        try:
            while True:
                value = program.send(value)
        except StopIteration as done:
            return self.finish(done.value)

    def record(self, role, lo, hi, kind, step, label, dst=None) -> None:
        if self.recorder is not None:
            self.recorder.record(
                getattr(self.plan.leases, role), lo, hi, kind, step,
                self.link.epoch, label, dst=dst,
            )

    def _mark(self) -> None:
        self.marks.append(time.perf_counter())  # repro: noqa[R002] — real backend: measured step wall time is the product

    def _flush(self) -> None:
        if self.recorder is not None:
            self.link.flush_san(self.recorder.drain())

    def edge(self, step: int, rows: int) -> None:
        """The edge into ``step`` (0-based): step clock, then heartbeat.

        The heartbeat piggybacks a sanitizer-log flush, so a crash mid-run
        leaves the analyzer every access up to the last boundary.  The
        chaos plan is consulted first: a planned kill must not leave a
        heartbeat for the step it never entered.  Past step 6 the log is
        flushed and the clock stops.
        """
        if step == len(STEP_LABELS):
            self._flush()
            self._mark()
            return
        if step:
            self._mark()
        if self.link.chaos is not None:
            self.link.chaos.at_step_boundary(STEP_LABELS[step])
        self.link.heartbeat(STEP_LABELS[step], rows)
        self._flush()
        if not step:
            self._mark()  # the heartbeat into step 1 is outside the timed steps

    def charge(self, step: int, count: int) -> None:
        """Nothing to charge: the wall clock measures the step."""

    def frame_stats(self, block: np.ndarray) -> list | None:
        """Float keys are coded into a warm int64 lease, int keys are their
        own codes; one allgather of four integers per rank, inside step 1."""
        if self.views.words is None:
            return None
        coded = self.scratch.take(len(block), WORD_DTYPE) if block.dtype.kind == "f" else None
        self.codes, stats = code_and_stats(block, coded)
        return self.link.allgather(stats)

    def sort(self, kernel, frame, block: np.ndarray) -> DataPath:
        """Step 1, inline.  The words, as wide as the frame says, come from
        the worker's warm scratch pool — fresh pages per job would be the
        op's largest page-fault bill — except that int64 float words are
        packed in place over their codes."""
        words = None
        if frame is not None:
            in_place = block.dtype.kind == "f" and frame.word_dtype == WORD_DTYPE
            words = self.codes if in_place else self.scratch.take(len(block), frame.word_dtype)
        return kernel(frame, self.views, self.rank, block, words, self.codes)

    def gather(self, value):
        return self.link.gather(value, root=MASTER)

    def bcast(self, value):
        return self.link.bcast(value, root=MASTER)

    def exchange(self, path: DataPath, part: BlockPartition) -> np.ndarray:
        """Step 5: every outgoing run goes straight into its receiver's region.

        Everyone learns the counts matrix, which fixes each (src, dst) run's
        offset in the shared exchange streams; the regions are disjoint, so
        all ranks write concurrently, lock-free.
        """
        rank, link, tracer = self.rank, self.link, self.tracer
        layout = exchange_layout(np.stack(link.allgather(part.counts)))
        writes = [
            (dst, sl, layout.run_offset(rank, dst))
            for dst, sl in enumerate(part.slices)
            if sl.stop > sl.start
        ]
        if self.mutation == "offset-off-by-one":
            # Seeded invariant break: slide the first nonempty run one element
            # off its counts-derived home (into a neighbour's run, or backwards
            # at the stream's end) — the overlap ShmSan's offset and race
            # checks must catch.
            stream_len = len(path.streams[0][1])
            for i, (dst, sl, pos) in enumerate(writes):
                shift = 1 if pos + (sl.stop - sl.start) < stream_len else -1
                if pos + shift >= 0:
                    writes[i] = (dst, sl, pos + shift)
                    break
        offset_itemsize = path.streams[0][2].dtype.itemsize
        for dst, sl, pos in writes:
            end = pos + (sl.stop - sl.start)
            t_w0 = time.perf_counter() if tracer is not None else 0.0  # repro: noqa[R002] — real backend: measured flow timing is the product
            path.write(sl, pos)
            for role in path.exchanged:
                self.record(role, pos, end, "w", 5, "exchange-write", dst=dst)
            if tracer is not None:
                tracer.flow(
                    dst,
                    (end - pos) * path.bytes_per_key,
                    pos * offset_itemsize,
                    t_w0,
                    time.perf_counter(),  # repro: noqa[R002] — real backend: measured flow timing is the product
                )
        if self.mutation == "skip-merge-barrier":
            # Seeded invariant break: post the barrier contribution (so the
            # hub and the other ranks stay solvent) but charge ahead without
            # waiting — this rank's epoch clock does not advance, so its merge
            # runs concurrent with the others' exchange writes.  The
            # happens-before analysis must flag the races.
            link.post_only("barrier")
        else:
            link.barrier()  # all runs landed; regions are safe to read
        return layout.counts

    def merge(self, path: DataPath, base: int, run_lengths: list[int]) -> None:
        """Step 6: the path merges the rank's region into the job's leases,
        where the driver reads the output — no pickling."""
        stop = base + sum(run_lengths)
        accesses = path.merge(base, stop, run_lengths)
        if self.recorder is not None:
            for kind, label in (("r", "merge-read"), ("w", "merge-write")):
                for role in path.exchanged:
                    self.record(role, base, stop, kind, 6, label)
            for role, lo, hi, kind, label in accesses:
                self.record(role, lo, hi, kind, 6, label)

    def finish(self, steps: RankSteps) -> WorkerReport:
        link, marks, path = self.link, self.marks, steps.path
        windows = list(zip(STEP_LABELS, marks, marks[1:]))
        if self.tracer is not None:
            for label, begin, end in windows:
                self.tracer.step(begin, end, label)
        return WorkerReport(
            rank=self.rank,
            counts_row=steps.partition.counts,
            step_seconds={label: end - begin for label, begin, end in windows},
            splitters=steps.splitters if self.rank == MASTER else None,
            wall_seconds=marks[-1] - marks[0],
            step_wait_seconds=dict(link.wait_by_step),
            recv_wait_seconds=link.wait_by_kind["recv-wait"],
            barrier_wait_seconds=link.wait_by_kind["barrier-wait"],
            peak_rss_bytes=peak_rss_bytes(),
            trace=None if self.tracer is None else self.tracer.trace,
            splitter_cache=steps.verdict,
            sample_fingerprint=steps.fingerprint,
            job_id=self.plan.job_id,
            local_sort_path=path.label,
            exchanged=path.exchanged,
            bytes_per_key=path.bytes_per_key,
        )


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
                report = _Job(rank, job, link, segments, scratch).run()
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

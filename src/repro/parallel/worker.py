"""The per-rank worker loop of the multiprocess backend.

One process per rank runs :func:`worker_main`, a *persistent job loop*:
the worker blocks on the control pipe for the next :class:`JobSpec`,
resets its per-job state (collective sequence, ShmSan epoch clock,
tracer), executes the paper's six steps over real OS parallelism, reports,
and loops until the driver sends shutdown.

This module is the pool's binding of the one sort program
(:func:`repro.core.program.six_steps`, the simulator's too): a per-job
:class:`_Job` serves its steps — a step edge is the step clock, the
fault plan's kills and stragglers, the heartbeat and a ShmSan flush;
collectives go through the generation's control region; step 1 sorts
inline, in words packed over the staged block where they may go; step 5
writes shared memory — so the produced partitions are **bit-identical**
to the simulator's and to the reference backend's.  *What* is sorted,
exchanged and merged — packed words, or keys + perm — is the job's
:class:`~repro.core.datapath.DataPath`, chosen once in step 1; *where*
every (src, dst) run lands in shared memory is
:mod:`repro.parallel.layout`'s to say.  A worker writes the input in one
place: a word-path rank whose frame does not refill packs and sorts its
words over its own staged block, which nothing reads after step 1 (a
refilling frame keeps the input as its refill source).

Control plane (the shared-memory :class:`~repro.parallel.collectives.ControlRegion`
every rank of the generation inherits): the sample gather (or the
splitter cache probe of :mod:`repro.parallel.splitter_cache`), the
splitter broadcast, the counts allgather and the post-exchange barrier,
each a slot write, one barrier and a read — bytes proportional to ``p``,
never to ``n``; the word path adds one allgather of five integers per
rank (the block's statistics), timed and waited inside step 1.  An
untraced, unsanitized, fault-free job moves two messages over a worker's
pipe: its dispatch in, its report out.

Timing here is *wall-clock* (``time.perf_counter``), which is the whole
point of this backend; the simulated path keeps its virtual clock.

Observability: every worker writes a heartbeat into its row of the
region at each step boundary (always on — six stores that power the
crash detector's which-step-died diagnostics and the live-progress sink)
and, when the parent requested tracing (``job.trace``), records a
:class:`~repro.parallel.tracing.WorkerTrace` — clock-offset handshake,
per-step windows, collective wait spans, one flow per (src, dst) shm
write with bytes (``count × 4`` or ``count × 8`` for a word run, as wide
as the job's key frame) and the run's byte offset in the exchanged
stream, and counter samples — shipped home on the :class:`WorkerReport`
and merged on the parent into the simnet-schema tracer.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from dataclasses import dataclass, field, replace
from multiprocessing import shared_memory
from multiprocessing.connection import Connection

import numpy as np

from ..checks.hb import KEYS_AND_PERM
from ..core.datapath import THROUGH, DataPath, JobStorage
from ..core.packsort import block_stats
from ..core.program import MASTER, RankSteps, six_steps
from ..core.scratch import ScratchArena
from ..core.sorter import STEP_LABELS, SortOptions
from ..core.steps import BlockPartition
from ..faults import FaultPlan
from ..pgxd.config import PgxdConfig
from .arena import ShmLease
from .collectives import ControlRegion, WorkerLink
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
    #: This attempt's fault plan, addressed by worker slot
    #: (:meth:`~repro.faults.FaultPlan.for_attempt`); ``None`` is the
    #: overwhelmingly common case.
    faults: FaultPlan | None = None


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
    hooks at the step edges — the fault plan, the step clock, the
    heartbeat, the ShmSan recorder, the tracer."""

    def __init__(self, rank, plan: JobSpec, link: WorkerLink, segments, scratch: ScratchArena):
        self.rank, self.size, self.config = rank, plan.size, plan.config
        self.plan, self.link, self.scratch = plan, link, scratch
        self.cache = plan.cache
        self.recorder = link.recorder = AccessRecorder(rank) if plan.sanitize else None
        self.mutation = plan.mutate if rank == plan.mutate_rank else None
        link.early_read = self.mutation == "read-slot-before-barrier"
        #: Clock reads at the step edges: ``marks[i]`` opens step ``i + 1``.
        self.marks: list[float] = []
        self.tracer: WorkerTracer | None = None
        if plan.trace:
            # Clock-offset handshake: align this process's perf_counter with
            # the hub's before any event is recorded, then barrier so every
            # rank enters step 1 from a common point.  Re-estimated per job:
            # a pooled worker's offset drifts between jobs.
            self.tracer = link.tracer = WorkerTracer(rank, job_id=plan.job_id)
            trace = self.tracer.trace
            trace.clock_offset, trace.clock_rtt = estimate_clock_offset(link.probe)
            link.barrier()
        self.views = plan.leases.map(segments.view)
        #: The slot's planned kill step and compute multiplier; hangs and
        #: mutes are the link's to realise.
        self.faults = plan.faults
        if plan.faults is not None:
            self.kill_step, self.slow = plan.faults.kill_step(rank), plan.faults.slow_mult(rank)
            link.hang, link.muted = plan.faults.hang_op(rank), rank in plan.faults.muted
            link.delay = plan.faults if plan.faults.delay_prob > 0.0 else None

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

    def record(self, role, lo, hi, kind, step, label, dst=None, dtype=None) -> None:
        """Log elements ``[lo, hi)`` of ``role``'s lease, counted in
        ``dtype`` when given (a view of the lease in another dtype)."""
        if self.recorder is not None:
            lease = getattr(self.plan.leases, role)
            if dtype is not None:
                lease = replace(lease, dtype=dtype)
            self.recorder.record(lease, lo, hi, kind, step, self.link.epoch, label, dst=dst)

    def _mark(self) -> None:
        self.marks.append(time.perf_counter())  # repro: noqa[R002] — real backend: measured step wall time is the product

    def _flush(self) -> None:
        if self.recorder is not None:
            self.link.flush_san(self.recorder.drain())

    def edge(self, step: int, rows: int) -> None:
        """The edge into ``step`` (0-based): step clock, then heartbeat.

        The heartbeat piggybacks a sanitizer-log flush, so a crash mid-run
        leaves the analyzer every access up to the last boundary.  The
        fault plan is consulted first: a planned kill must not leave a
        heartbeat for the step it never entered.  Past step 6 the log is
        flushed and the clock stops.
        """
        if step == len(STEP_LABELS):
            self._flush()
            self._mark()
            return
        if self.faults is not None:
            self._inject(step)
        if step:
            self._mark()
        self.link.heartbeat(STEP_LABELS[step], rows)
        self._flush()
        if not step:
            self._mark()  # the heartbeat into step 1 is outside the timed steps

    def _inject(self, step: int) -> None:
        """A slow rank stretches the step it closes to ``slow`` times its
        wall, before the clock reads; a planned kill is a real fail-stop —
        no atexit hooks, no error report, the pipe simply hits EOF."""
        if step and self.slow > 1.0:
            pause = (self.slow - 1.0) * (time.perf_counter() - self.marks[-1])  # repro: noqa[R002] — real backend: a slow rank's pause scales its measured step
            if self.tracer is not None:
                self.tracer.fault("slow", f"{STEP_LABELS[step - 1]}: +{pause * 1e3:.2f}ms")
            time.sleep(pause)
        if STEP_LABELS[step] == self.kill_step:
            os.kill(os.getpid(), signal.SIGKILL)

    def charge(self, step: int, count: int) -> None:
        """Nothing to charge: the wall clock measures the step."""

    def frame_stats(self, block: np.ndarray) -> list | None:
        """The block's statistics, read without writing a code; one
        allgather of five integers per rank, inside step 1."""
        if self.views.words is None:
            return None
        return self.link.allgather(block_stats(block))

    def sort(self, kernel, frame, block: np.ndarray) -> DataPath:
        """Step 1, inline.  The words, as wide as the frame says, are packed
        over the rank's staged slice of the input lease whenever a word is
        no wider than a key and the frame does not refill: nothing reads
        the input after step 1 then, so the block is sorted where the
        driver staged it (int32 words over 8-byte keys take the slice's
        first half).  A refilling frame's words, and int64 words of narrow
        keys, come from the worker's warm scratch pool, which leaves the
        staged input intact — the refill source — and fresh pages per job
        would be the op's largest page-fault bill."""
        words = None
        if frame is not None:
            word = frame.word_dtype
            if word.itemsize > block.itemsize or frame.refills:
                words = self.scratch.take(len(block), word)
            else:
                words = block.view(word)[: len(block)]
                if self.recorder is not None:
                    self._record_pack(len(words), word)
        return kernel(frame, self.views, self.rank, block, words)

    def _record_pack(self, count: int, word: np.dtype) -> None:
        """Log step 1's pack: ``count`` words over the rank's staged block."""
        bounds = self.plan.leases.block_starts[self.rank : self.rank + 2]
        lo, hi = (bounds * self.views.input.itemsize // word.itemsize).tolist()
        self.record("input", lo, lo + count, "w", 1, "step-1-pack", dtype=word)
        if self.mutation == "pack-past-block":
            # Seeded invariant break: log one more word, just past the
            # rank's staged block — the start of the next rank's, which
            # that rank packs in the same epoch; the race check must flag
            # the overlap.  (Only the log overruns: the neighbour's bytes
            # stay intact, so the job completes.)
            self.record("input", hi, hi + 1, "w", 1, "step-1-pack", dtype=word)

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
            # Seeded invariant break: post the barrier arrival (so the
            # other ranks stay solvent) but charge ahead without waiting —
            # this rank's epoch clock does not advance, so its merge runs
            # concurrent with the others' exchange writes.  The
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


def worker_main(rank: int, size: int, conn: Connection, region: ControlRegion) -> None:
    """Process entry point: the persistent per-rank job loop.

    Spawned once per pool generation, sharing the generation's control
    ``region``.  Blocks on the control pipe for each :class:`JobSpec`,
    resets the link's per-job state (collective sequence, epoch clock,
    tracer — see
    :meth:`~repro.parallel.collectives.WorkerLink.reset`), runs the six
    steps against the warm :class:`SegmentCache`, reports done, and
    waits for the next dispatch.  A ``("stop",)`` message (or EOF from a
    vanished driver) ends the loop and releases the cached attachments; a
    driver that vanishes while the worker waits in a barrier ends the job
    as an error, and the worker exits.

    Any exception inside a job is serialized to the driver (which
    re-raises it as a typed
    :class:`~repro.parallel.errors.WorkerFailedError`); the worker then
    exits hard so a broken rank can never wedge the cluster — the
    driver's respawn policy builds the *next* generation around the
    hole.
    """
    link = WorkerLink(rank, size, conn, region)
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

"""The per-rank worker loop of the multiprocess backend.

One process per rank runs :func:`worker_main`, a *persistent job loop*:
the worker blocks on the control pipe for the next :class:`JobSpec`,
resets its per-job state (collective sequence, ShmSan epoch clock,
tracer), executes the paper's six steps over real OS parallelism, reports,
and loops until the driver sends shutdown.

This module is the pool's binding of the one sort program
(:func:`repro.core.program.six_steps`, the simulator's too): a per-job
:class:`_Job` serves its steps — a step edge walks the job's observers
(the fault plan where it names the rank, the step clock, the heartbeat
unless muted, a ShmSan flush when sanitizing), built once per job;
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

Observability: the heartbeats feed the crash detector's which-step-died
diagnostics and the live-progress sink; a traced job (``job.trace``)
records a :class:`~repro.parallel.tracing.WorkerTrace` — clock-offset
handshake, per-step windows, collective wait spans, one flow per (src,
dst) shm write with its bytes and byte offset in the exchanged stream —
shipped home on the :class:`WorkerReport` and merged on the parent into
the simnet-schema tracer.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from dataclasses import dataclass, field
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
    #: ShmSan's ``(mutation, rank)`` when sanitizing: log every shared-memory
    #: touch, flush the log home at each step edge, and seed ``mutation``
    #: (None, or a :data:`repro.parallel.shmsan.MUTATIONS` name) on ``rank``.
    sanitize: tuple[str | None, int] | None = None
    #: Monotonic id the driver stamps on each dispatched job; threaded
    #: into traces and reports so pooled artifacts stay attributable.
    job_id: int = 0
    #: The splitter cache the job carries: prior epochs' candidates for
    #: its key dtype and cluster size (none on cold pools).
    cache: SplitterProbe = SplitterProbe(())
    #: This attempt's fault plan, addressed by worker slot
    #: (:meth:`~repro.faults.FaultPlan.for_attempt`), or ``None``.
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
    #: shipped), ``hit`` or ``miss`` (fingerprint unknown).
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


def _unsanitized(accesses, step: int, epoch: int, dst: int | None = None) -> None:
    """Where an unsanitized job's data-path accesses go: nowhere."""


class _PlannedFaults:
    """The fault plan on a rank it names.  At each edge, before the clock
    reads, a slow rank stretches the step it closes (step 6 too, at the
    edge past it) and a kill is a real fail-stop (the pipe hits EOF)
    before a heartbeat can claim the step it enters; a muted rank's edges
    leave a trace note.  A hung rank's job talks to its link through this
    object, which stalls before collective ``hang``."""

    def __init__(self, plan: FaultPlan, rank: int, link: WorkerLink, tracer):
        self.hang, self.kill = plan.hang_op(rank), plan.kill_step(rank)
        self.slow, self.muted = plan.slow_mult(rank), rank in plan.muted
        self.link, self.tracer = link, tracer

    def on_edge(self, step: int, rows: int) -> None:
        if step and self.slow > 1.0:
            pause = (self.slow - 1.0) * (time.perf_counter() - self.link.marks[-1])  # repro: noqa[R002] — real backend: a slow rank's pause scales its measured step
            self._note("slow", f"{STEP_LABELS[step - 1]}: +{pause * 1e3:.2f}ms")
            time.sleep(pause)
        if step == len(STEP_LABELS):
            return  # the end: no step to enter
        if STEP_LABELS[step] == self.kill:
            os.kill(os.getpid(), signal.SIGKILL)
        if self.muted:
            self._note("mute", f"suppressed heartbeat at {STEP_LABELS[step]}")

    def __getattr__(self, name: str):
        if name == self.hang:
            self.hang = None
            self._note("hang", f"before {name}")
            self.link.stall()
        return getattr(self.link, name)

    def _note(self, kind: str, detail: str) -> None:
        if self.tracer is not None:
            self.tracer.fault(kind, detail)


class _Job:
    """One job on one rank: the pool's half of the program's method set
    (:mod:`repro.core.program`), each method returning its value."""

    def __init__(self, rank, plan: JobSpec, link: WorkerLink, segments, scratch: ScratchArena):
        self.rank, self.size, self.config = rank, plan.size, plan.config
        self.plan, self.link, self.scratch = plan, link, scratch
        self.cache = plan.cache
        self.tracer = link.tracer = WorkerTracer(rank, job_id=plan.job_id) if plan.trace else None
        #: What each step edge runs, in order: the fault plan where it names
        #: this rank, the step clock, the heartbeat unless muted, and a
        #: ShmSan flush when sanitizing.
        self.observers = [link.clock, link.heartbeat]
        if plan.faults is not None:
            link.delay = plan.faults if plan.faults.delay_prob > 0.0 else None
            faults = _PlannedFaults(plan.faults, rank, link, self.tracer)
            if faults.muted:
                self.observers.pop()
            if faults.kill or faults.slow > 1.0 or faults.muted:
                self.observers.insert(0, faults.on_edge)
            if faults.hang:
                self.link = faults
        #: Where the data path's accesses go: ShmSan's recorder when
        #: sanitizing, which every edge flushes home.
        self.stamp, self.mutation = _unsanitized, None
        if plan.sanitize:
            mutation, mutant = plan.sanitize
            self.mutation = mutation if rank == mutant else None
            link.recorder = AccessRecorder(rank, plan.leases)
            self.stamp = link.recorder.stamp
            self.observers.append(link.flush_san)
        link.early_read = self.mutation == "read-slot-before-barrier"
        if plan.trace:
            # Clock-offset handshake: align this process's perf_counter with
            # the hub's before any event is recorded, then barrier so every
            # rank enters step 1 from a common point.  Re-estimated per job:
            # a pooled worker's offset drifts between jobs.  (A hang stalls
            # the program's collective, never this one.)
            trace = self.tracer.trace
            trace.clock_offset, trace.clock_rtt = estimate_clock_offset(link.probe)
            link.barrier()
        self.views = plan.leases.map(segments.view)

    def run(self) -> WorkerReport:
        block, read = self.views.block(self.rank)
        self.stamp([read], 1, self.link.epoch)
        program, value = six_steps(self, block, self.plan.options), None
        try:
            while True:
                value = program.send(value)
        except StopIteration as done:
            return self.finish(done.value)

    def edge(self, step: int, rows: int) -> None:
        """The edge into ``step`` (0-based; past step 6, the end)."""
        for observe in self.observers:
            observe(step, rows)

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
        over the rank's staged slice of the input lease (``words=None``)
        whenever a word is no wider than a key and the frame does not
        refill: nothing reads the input after step 1 then, so the block is
        sorted where the driver staged it (int32 words over 8-byte keys
        take the slice's first half).  A refilling frame's words, and int64
        words of narrow keys, come from the worker's warm scratch pool,
        which leaves the staged input intact — the refill source — and
        fresh pages per job would be the op's largest page-fault bill."""
        words = None
        if frame is not None and (frame.word_dtype.itemsize > block.itemsize or frame.refills):
            words = self.scratch.take(len(block), frame.word_dtype)
        path = kernel(frame, self.views, self.rank, block, words)
        packed = path.packed
        if packed and self.mutation == "pack-past-block":
            # Seeded invariant break: log one more word, just past the
            # rank's staged block — the start of the next rank's, which
            # that rank packs in the same epoch; the race check must flag
            # the overlap.  (Only the log overruns: the neighbour's bytes
            # stay intact, so the job completes.)
            end = int(self.views.block_starts[self.rank + 1]) * block.itemsize
            packed = [*packed, ("input", end, end + frame.word_dtype.itemsize, "w", "step-1-pack")]
        self.stamp(packed, 1, self.link.epoch)
        return path

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
            t_w0 = time.perf_counter() if tracer is not None else 0.0  # repro: noqa[R002] — real backend: measured flow timing is the product
            self.stamp(path.write(sl, pos), 5, link.epoch, dst)
            if tracer is not None:
                tracer.flow(
                    dst,
                    (sl.stop - sl.start) * path.bytes_per_key,
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
        self.stamp(path.merge(base, base + sum(run_lengths), run_lengths), 6, self.link.epoch)

    def finish(self, steps: RankSteps) -> WorkerReport:
        link, marks, path = self.link, self.link.marks, steps.path
        windows, trace = list(zip(STEP_LABELS, marks, marks[1:])), None
        if self.tracer is not None:
            for label, begin, end in windows:
                self.tracer.step(begin, end, label)
            trace = self.tracer.trace
        return WorkerReport(
            rank=self.rank,
            counts_row=steps.partition.counts,
            step_seconds={label: end - begin for label, begin, end in windows},
            splitters=steps.splitters if self.rank == MASTER else None,
            wall_seconds=marks[-1] - marks[0],
            step_wait_seconds={STEP_LABELS[s - 1]: wait for s, wait in link.wait_by_step.items()},
            recv_wait_seconds=link.wait_by_kind["recv-wait"],
            barrier_wait_seconds=link.wait_by_kind["barrier-wait"],
            peak_rss_bytes=peak_rss_bytes(),
            trace=trace,
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

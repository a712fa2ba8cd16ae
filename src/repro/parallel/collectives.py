"""Control-plane collectives for the process backend: one shared-memory
control region per worker generation.

The sort's *data* moves through leased shared memory
(:mod:`repro.parallel.arena`).  Its control plane — step 1's statistics
allgather, step 2's sample gather (or the splitter cache's probe), step
3's splitter broadcast, step 4's counts allgather and the post-exchange
barrier — moves through a :class:`ControlRegion`, which the driver
creates for each worker generation and its workers inherit at fork.  The
paper's steps run with no hub, and so do these: a collective is *write
your slot, barrier, read*.  The region holds two banks of per-rank
payload slots (sized from the paper's 256 KB/p sample budget, plus a
header), an arrival counter under one lock with one semaphore per rank,
and per rank its arrival flags and a six-entry heartbeat row of
``(rows, perf_counter)``.

The banks alternate by arrival number: a rank writes bank ``k % 2`` for
its ``k``-th collective, and reaches collective ``k + 2`` — that bank's
next writer — only after every rank arrived at ``k + 1``, that is, after
every reader of collective ``k`` finished.  One barrier per collective is
enough, and the count of completed collectives stays a global
happens-before clock (:mod:`repro.checks.hb`) that ShmSan stamps slot
writes and reads with.  The barrier's last arriver resets the counter and
releases every peer's semaphore; a waiter acquires its own in bounded
slices, checking each time that its driver is alive, so no worker
outlives a SIGKILLed driver.  Under a fault plan, ``delay`` spikes come
from the releasing rank, drawn from the plan's seed and the collective's
sequence number; a hang or a mute is the worker's fault observer's
(:mod:`repro.parallel.worker`).

The driver's :func:`serve_control_plane` serves no collective; it
watches: a dead worker becomes a typed
:class:`~repro.parallel.errors.WorkerCrashedError` carrying the last step
in its heartbeat row, the per-phase deadline reads the arrival flags to
name the ranks missing from an open collective, and each time the hub
wakes it forwards new heartbeats, in step order, to the progress sink.
One duplex pipe per worker carries what is off the step path: the **job
plane** (:func:`dispatch_job`'s ``("job", spec)`` and
:func:`send_shutdown`'s ``("stop",)``, awaited in
:meth:`WorkerLink.recv_job`), the ``done`` and ``error`` reports, the
tracing clock ``probe`` and ShmSan flushes.  Each job starts from
:meth:`WorkerLink.reset`, so ShmSan epochs and trace attribution never
bleed across jobs.  A :class:`WorkerLink` built without a region keeps
the pipe transport, the hub relaying its collectives; only the perf
ledger's collective round-trip battery builds one.
"""

from __future__ import annotations

import os
import pickle
import time
from multiprocessing.connection import Connection, wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable

import numpy as np

from ..core.sorter_labels import STEP_LABELS
from .arena import ShmLease
from .errors import ControlPlaneTimeout, ProtocolError, WorkerCrashedError, WorkerFailedError

#: How often the hub wakes to watch the workers, and how long one slice of
#: a worker's wait lasts before it checks on its driver (seconds).
_POLL_SECONDS = 0.25
#: How long a planned hang sleeps before giving up on being terminated.
HANG_SECONDS = 3600.0
#: The collectives, by the code a slot header and an arrival flag carry.
OPS = ("barrier", "gather", "bcast", "allgather")
#: A slot header's int64 fields: sequence number, op code, root, bytes.
_HEADER = 4
#: The region's first word: ranks arrived at the open barrier (under the lock).
_COUNT = 0
#: Slot bytes beyond the largest array a job moves: pickle framing and
#: the small payloads (statistics, digests, the cache verdict).
SLOT_SLACK = 4096


def slot_payload_bytes(size: int, sample_bytes: int, itemsize: int) -> int:
    """Payload bytes one rank's slot must hold for a job: its step-2
    samples (the paper's 256 KB/p budget times the sample factor) or the
    Master's ``p - 1`` splitters (key, tie place, tie size), whichever is
    larger, plus :data:`SLOT_SLACK`."""
    return max(sample_bytes, size * (itemsize + 16)) + SLOT_SLACK


class ControlRegion:
    """One worker generation's control plane, in memory its workers share.

    Handed to each worker as a process argument (inherited at fork;
    pickled at spawn, which multiprocessing allows while starting a
    process); it lives as long as the generation.  Workers touch it
    through flat memoryviews (a scalar access costs a fraction of a numpy
    one), the driver through numpy views.  Words: the arrival count (under
    the lock); per rank its arrival flags, the time it arrived and its
    heartbeat row; then the two slot banks.
    """

    _made = 0

    def __init__(self, ctx, size: int, payload_bytes: int):
        ControlRegion._made += 1
        self.size = size
        #: Slot words, header included; the payload capacity in bytes.
        self.slot_words = _HEADER + -(-payload_bytes // 8)
        self.payload_bytes = 8 * (self.slot_words - _HEADER)
        #: Names the slots for ShmSan (no file backs them).
        self.name = f"control-region-{os.getpid()}-{ControlRegion._made}"
        self._raw = ctx.RawArray("B", 8 * (self._first_slot() + 2 * size * self.slot_words))
        self.lock = ctx.Lock()
        self.sems = [ctx.Semaphore(0) for _ in range(size)]
        self._map()

    def _first_slot(self) -> int:
        return 1 + 4 * self.size + 2 * len(STEP_LABELS) * self.size

    def _map(self) -> None:
        size, steps = self.size, len(STEP_LABELS)
        flat = np.frombuffer(self._raw, dtype=np.uint8)
        self.bytes = memoryview(flat)
        self.q = self.bytes.cast("q")
        self.d = self.bytes.cast("d")
        #: Word offsets of the per-rank blocks and of the first slot.
        self.arrivals_at = _COUNT + 1
        self.opened_at = self.arrivals_at + 3 * size
        self.beats_at = self.opened_at + size
        self.slots_at = self._first_slot()
        words, floats = flat.view(np.int64), flat.view(np.float64)
        #: Driver-side views: per rank (arrivals, sequence number, op code),
        #: the ``perf_counter`` it arrived at, and per step (rows, stamp).
        self.arrivals = words[self.arrivals_at : self.opened_at].reshape(size, 3)
        self.opened = floats[self.opened_at : self.beats_at]
        self.beats = floats[self.beats_at : self.slots_at].reshape(size, steps, 2)
        #: The slot banks as a lease, for ShmSan's bounds and race checks.
        self.lease = ShmLease(
            self.name, np.dtype(np.uint8), 16 * size * self.slot_words, 8 * self.slots_at
        )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for view in ("bytes", "q", "d", "arrivals", "opened", "beats", "lease"):
            del state[view]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._map()

    def header(self, bank: int, rank: int) -> int:
        """Word offset of ``rank``'s slot header in ``bank``."""
        return self.slots_at + (bank * self.size + rank) * self.slot_words

    def write(self, bank: int, rank: int, seq: int, code: int, root: int, *payload) -> None:
        """Post ``rank``'s header and, when given, its one payload in ``bank``.

        The payload is pickled with its arrays' bytes out of band: a count
        and the lengths of those buffers, the pickle stream, then each
        buffer copied straight from its array — one copy in, one out.
        """
        q, at = self.q, self.header(bank, rank)
        nbytes = 0
        if payload:
            buffers: list = []
            stream = pickle.dumps(payload[0], protocol=5, buffer_callback=buffers.append)
            raws = [buffer.raw() for buffer in buffers]
            nbytes = 8 * (1 + len(raws)) + len(stream) + sum(raw.nbytes for raw in raws)
            if nbytes > self.payload_bytes:
                raise ProtocolError(
                    f"rank {rank}: a {nbytes}-byte payload overflows the "
                    f"{self.payload_bytes}-byte slot of the control region"
                )
            word = at + _HEADER
            q[word] = len(raws)
            for i, raw in enumerate(raws):
                q[word + 1 + i] = raw.nbytes
            pos = 8 * (word + 1 + len(raws))
            for chunk in (stream, *raws):
                self.bytes[pos : pos + len(chunk)] = chunk
                pos += len(chunk)
        q[at], q[at + 1], q[at + 2], q[at + 3] = seq, code, root, nbytes

    def read(self, bank: int, rank: int) -> Any:
        """The payload ``rank`` posted in ``bank``, copied out of the slot."""
        q, at = self.q, self.header(bank, rank)
        word = at + _HEADER
        lengths = [q[word + 1 + i] for i in range(q[word])]
        end = 8 * word + q[at + 3]
        pos = end - sum(lengths)
        stream = self.bytes[8 * (word + 1 + len(lengths)) : pos]
        buffers = []
        for length in lengths:
            buffers.append(bytearray(self.bytes[pos : pos + length]))
            pos += length
        return pickle.loads(stream, buffers=buffers)

    def disagreeing(self, bank: int, seq: int, code: int, root: int) -> int | None:
        """The first rank whose header in ``bank`` differs from this one."""
        q = self.q
        for rank in range(self.size):
            at = self.header(bank, rank)
            if q[at] != seq or q[at + 1] != code or q[at + 2] != root:
                return rank
        return None

    # ------------------------------------------------------ driver side

    def progress_mark(self) -> tuple[float, int]:
        """Changes whenever any rank beats or arrives."""
        return float(self.beats[:, :, 1].sum()), int(self.arrivals[:, 0].sum())

    def clear_beats(self) -> None:
        """Forget the last job's heartbeats (every worker is parked)."""
        self.beats.fill(0.0)

    def last_beat(self, rank: int) -> tuple[int, float] | None:
        """``(step index, perf_counter)`` of ``rank``'s latest beat."""
        stamps = self.beats[rank, :, 1]
        beaten = np.flatnonzero(stamps)
        if not len(beaten):
            return None
        return int(beaten[-1]), float(stamps[beaten[-1]])

    def open_collective(self) -> tuple[str, float, tuple[int, ...]] | None:
        """``("op#seq", opened at, missing ranks)`` of the collective the
        furthest ranks wait in, or ``None`` when no rank waits."""
        # Flags first, times second: a worker stores them the other way round.
        flags = self.arrivals.copy()
        opened = self.opened.copy()
        counts = flags[:, 0]
        missing = np.flatnonzero(counts < counts.max())
        if not len(missing):
            return None
        waiting = np.flatnonzero(counts == counts.max())
        first = waiting[np.argmin(opened[waiting])]
        _, seq, code = flags[first].tolist()
        return f"{OPS[code]}#{seq}", float(opened[first]), tuple(missing.tolist())


def _sources(op: str, rank: int, root: int, size: int) -> tuple[int, ...] | range:
    """The ranks whose contributions ``op`` hands ``rank``."""
    if op == "bcast":
        return (root,)
    if op == "allgather" or (op == "gather" and rank == root):
        return range(size)
    return ()


def _result(op: str, rank: int, root: int, size: int, read: Callable[[int], Any]) -> Any:
    """What ``op`` returns on ``rank``, reading contributions with ``read``:
    the rank-ordered list at a gather's root (``None`` elsewhere), the
    root's payload for a bcast, the full list for an allgather, ``None``
    for a barrier."""
    if op == "bcast":
        return read(root)
    sources = _sources(op, rank, root, size)
    return [read(peer) for peer in sources] if sources else None


def _sleep_watching(driver: int, seconds: float) -> None:
    """Sleep ``seconds`` in slices, leaving early if the driver died."""
    for _ in range(int(seconds / _POLL_SECONDS)):
        time.sleep(_POLL_SECONDS)
        _check_driver(driver)


def _check_driver(driver: int) -> None:
    if os.getppid() != driver:
        raise EOFError("the driver exited while this worker waited")


class WorkerLink:
    """Worker-side endpoint: blocking collectives through the control region.

    Mirrors the simnet collective API (:mod:`repro.simnet.collectives`)
    closely enough that the six-step program reads the same in both
    backends: ``gather`` returns the rank-ordered list at the root and
    ``None`` elsewhere, ``bcast`` returns the root's payload everywhere,
    ``allgather`` returns the full list to all ranks, ``barrier`` returns
    once every rank arrived.

    Every collective's blocking time is accumulated by kind
    (``barrier`` → barrier wait, everything else → recv wait) and by the
    current step (set by :meth:`clock`); when a
    :class:`~repro.parallel.tracing.WorkerTracer` is attached the same
    interval is also recorded as a wait span.
    """

    def __init__(self, rank: int, size: int, conn: Connection, region: ControlRegion | None = None):
        self.rank = rank
        self.size = size
        self.conn = conn
        #: The generation's control region; ``None`` keeps the pipe relay.
        self.region = region
        #: The driver this worker was started by (its parent), watched
        #: while waiting.
        self._driver = os.getppid()
        #: Collectives this rank arrived at over the generation: picks the
        #: bank, and is never reset (every rank counts the same).
        self._arrivals = 0
        #: Releases owed to arrivals posted without waiting.
        self._owed = 0
        self._seq = 0
        self._fresh()
        #: Completed collectives on this rank.  Every collective is a full
        #: barrier and all ranks run the same program, so this count is a
        #: *global* happens-before clock: accesses in different epochs are
        #: ordered, accesses in the same epoch are concurrent.  ShmSan
        #: stamps every shared-memory access interval with it.
        self.epoch = 0

    def _fresh(self) -> None:
        #: Attached tracer (None on untraced runs — the guard pattern).
        self.tracer = None
        #: The job's fault plan when it spikes barrier releases.
        self.delay = None
        #: ShmSan's recorder when sanitizing: slot writes and reads are logged.
        self.recorder = None
        #: Mutation hook (``read-slot-before-barrier``): read the peers'
        #: slot headers before the barrier, as a buggy worker would.
        self.early_read = False
        #: The current step (1-based, 0 before step 1), and the step clock:
        #: ``marks[i]`` opens step ``i + 1``.
        self._step = 0
        self.marks: list[float] = []
        #: Measured blocking seconds, by wait kind and by step (1-based).
        self.wait_by_kind = {"recv-wait": 0.0, "barrier-wait": 0.0}
        self.wait_by_step: dict[int, float] = {}

    def reset(self) -> None:
        """Return the link to its just-spawned state for the next job.

        Pooled workers reuse one link across many sorts; every per-job
        quantity — the collective sequence counter, the epoch
        happens-before clock ShmSan stamps accesses with, the measured
        wait accumulators, the attached tracer and delay plan — must
        start fresh or state from job *k* would corrupt the analysis of
        job *k+1*.  A release owed to an arrival posted without waiting
        (the ``skip-merge-barrier`` mutation) is taken here: that barrier
        completed before the job's last rank reported done, so the wait
        is immediate, and the next barrier cannot return early.
        """
        while self._owed:
            self._acquire(self.region.sems[self.rank])
            self._owed -= 1
        self._seq = 0
        self.epoch = 0
        self._fresh()

    def recv_job(self):
        """Block until the next job dispatch; ``None`` means shut down.

        Skips anything that is not a ``("job", spec)`` or ``("stop", ...)``
        tuple — unknown kinds, truncated tuples, non-tuples — so a stray
        message can never be mistaken for a dispatch.  EOF from a driver
        that dropped the pipe without a stop message propagates to the
        caller (the pool loop treats it as shutdown).
        """
        while True:
            msg = self.conn.recv()
            if isinstance(msg, tuple) and msg:
                if msg[0] == "job" and len(msg) == 2:
                    return msg[1]
                if msg[0] == "stop":
                    return None

    def _collective(self, op: str, payload: Any = None, root: int = 0) -> Any:
        self._seq += 1
        start = time.perf_counter()  # repro: noqa[R002] — real backend: measured blocking time is the point
        if self.region is None:
            self.conn.send(("coll", op, self._seq, self.rank, root, payload))
            reply = self.conn.recv()
        else:
            reply = self._through_region(op, payload, root)
        self.epoch += 1
        end = time.perf_counter()  # repro: noqa[R002] — real backend: measured blocking time is the point
        kind = "barrier-wait" if op == "barrier" else "recv-wait"
        self.wait_by_kind[kind] += end - start
        if self._step:
            self.wait_by_step[self._step] = self.wait_by_step.get(self._step, 0.0) + (end - start)
        if self.tracer is not None:
            self.tracer.wait(kind, op, start, end)
        return reply

    def _through_region(self, op: str, payload: Any, root: int) -> Any:
        """Write this rank's slot, barrier, read: one collective."""
        region, rank, seq, code = self.region, self.rank, self._seq, OPS.index(op)
        bank = self._arrivals & 1
        posts = op in ("gather", "allgather") or (op == "bcast" and rank == root)
        region.write(bank, rank, seq, code, root, *((payload,) if posts else ()))
        self._record("w", bank, rank, True)
        if self.early_read:
            # Seeded invariant break: the peers' headers, read while they
            # may still be writing them — the race check must flag it.
            region.disagreeing(bank, seq, code, root)
            for peer in range(self.size):
                if peer != rank:
                    self._record("r", bank, peer, False)
        self._barrier(seq, code)
        peer = region.disagreeing(bank, seq, code, root)
        if peer is not None:
            at = region.header(bank, peer)
            raise ProtocolError(
                f"rank {rank} posted {op}#{seq} with root {root}, rank {peer} "
                f"posted {OPS[region.q[at + 1]]}#{region.q[at]} with root "
                f"{region.q[at + 2]}"
            )
        reply = _result(op, rank, root, self.size, lambda peer: region.read(bank, peer))
        if self.recorder is not None:
            sources = _sources(op, rank, root, self.size)
            for peer in range(self.size):
                self._record("r", bank, peer, peer in sources, epoch=self.epoch + 1)
        return reply

    def _record(self, kind: str, bank: int, peer: int, payload: bool, epoch=None) -> None:
        """Log a slot access: the header, and the payload when ``payload``."""
        if self.recorder is not None:
            region = self.region
            at = region.header(bank, peer)
            nbytes = region.q[at + 3] if payload else 0
            lo = 8 * (at - region.slots_at)
            self.recorder.record(
                region.lease, lo, lo + 8 * _HEADER + nbytes, kind, self._step,
                self.epoch if epoch is None else epoch,
                "slot-write" if kind == "w" else "slot-read",
            )

    def _barrier(self, seq: int, code: int, wait: bool = True) -> None:
        """Arrive at collective ``seq``; the last arriver releases every
        peer's semaphore, every other rank waits on its own (unless told
        not to, when the release it skips is owed to :meth:`reset`)."""
        region, rank = self.region, self.rank
        q = region.q
        self._arrivals += 1
        # The time first and the count last: the hub reads them the other
        # way round, so a count it sees is never paired with a stale time.
        region.d[region.opened_at + rank] = time.perf_counter()  # repro: noqa[R002] — real backend: the phase deadline reads when a collective opened
        at = region.arrivals_at + 3 * rank
        q[at + 1], q[at + 2] = seq, code
        q[at] = self._arrivals
        self._acquire(region.lock)
        try:
            count = q[_COUNT] + 1
            last = count == self.size
            q[_COUNT] = 0 if last else count
        finally:
            region.lock.release()
        if last:
            if self.delay is not None:
                draw = np.random.default_rng([self.delay.seed, seq]).random
                for _ in range(self.size):
                    if draw() < self.delay.delay_prob:
                        time.sleep(self.delay.delay_spike)
            for peer in range(self.size):
                if peer != rank:
                    region.sems[peer].release()
        elif wait:
            self._acquire(region.sems[rank])
        else:
            self._owed += 1

    def _acquire(self, lock) -> None:
        """Acquire in bounded slices, checking on the driver between them."""
        while not lock.acquire(timeout=_POLL_SECONDS):
            _check_driver(self._driver)

    def barrier(self) -> None:
        self._collective("barrier")

    def gather(self, payload: Any, root: int = 0) -> list | None:
        return self._collective("gather", payload, root)

    def bcast(self, payload: Any, root: int = 0) -> Any:
        return self._collective("bcast", payload, root)

    def allgather(self, payload: Any) -> list:
        return self._collective("allgather", payload)

    def post_only(self, op: str) -> None:
        """Arrive at a collective without waiting for its completion.

        **Mutation hook, not an API.**  ShmSan's ``skip-merge-barrier``
        mutation uses this to model a buggy worker that posts its barrier
        arrival but charges ahead without waiting — the other ranks stay
        solvent (all ``p`` arrivals land, they are released), but this
        rank's epoch clock does *not* advance, so its subsequent accesses
        are concurrent with the pre-barrier writes.  The release it skips
        is taken by :meth:`reset` before the next job.
        """
        self._seq += 1
        code, bank = OPS.index(op), self._arrivals & 1
        self.region.write(bank, self.rank, self._seq, code, 0)
        self._record("w", bank, self.rank, True)
        self._barrier(self._seq, code, wait=False)

    def flush_san(self, step: int, rows: int) -> None:
        """Edge observer when sanitizing: ship the drained access log home,
        fire-and-forget, so a worker that crashes mid-run has delivered it
        up to the last edge — the partial-analysis path."""
        records = self.recorder.drain()
        if records:
            self.conn.send(("san", self.rank, records))

    # ------------------------------------------------- observability plane

    def probe(self) -> float:
        """Round-trip one clock probe; returns the hub's ``perf_counter``.

        Per-rank, not a collective: the hub answers immediately, so the
        round trip bounds the clock-offset estimate (see
        :func:`repro.parallel.tracing.estimate_clock_offset`).
        """
        self.conn.send(("probe", self.rank))
        return self.conn.recv()

    def clock(self, step: int, rows: int) -> None:
        """Edge observer, always on: the step clock reads as the rank enters
        ``step`` (0-based; past the last step, the end), and the collective
        waits and ShmSan slot records that follow are that step's."""
        self.marks.append(time.perf_counter())  # repro: noqa[R002] — real backend: measured step wall time is the product
        self._step = step + 1

    def heartbeat(self, step: int, rows: int) -> None:
        """Edge observer unless muted: a liveness beat entering ``step``
        with ``rows``, in the rank's row.  A muted rank writes none, which
        degrades crash *detection* to "no heartbeat received"."""
        if step < len(STEP_LABELS):
            beats = self.region.d
            at = self.region.beats_at + 2 * (len(STEP_LABELS) * self.rank + step)
            beats[at], beats[at + 1] = rows, time.perf_counter()  # repro: noqa[R002] — real backend: a heartbeat's age is wall time

    def stall(self) -> None:
        """A planned hang: sleep, alive, until the hub's phase deadline
        ends the job (or the driver goes)."""
        _sleep_watching(self._driver, HANG_SECONDS)

    def send_done(self, payload: Any) -> None:
        self.conn.send(("done", self.rank, payload))

    def send_error(self, exc_type: str, traceback_text: str) -> None:
        self.conn.send(("error", self.rank, exc_type, traceback_text))


def dispatch_job(conns: list[Connection], region: ControlRegion, spec: Any) -> None:
    """Send one job spec to every pooled worker (driver side).

    The counterpart of :meth:`WorkerLink.recv_job`, framed as
    ``("job", spec)``.  Every worker is parked, so the last job's
    heartbeats are cleared from the region first.  After dispatching, the
    driver must run :func:`serve_control_plane` over the same conns to
    completion (or tear the pool down on error) before dispatching again.
    """
    region.clear_beats()
    message = ForkingPickler.dumps(("job", spec))  # pickled once for all
    for conn in conns:
        conn.send_bytes(message)


def send_shutdown(conns: list[Connection]) -> None:
    """Ask every pooled worker to exit its job loop (driver side).

    Best-effort by design: a worker that already died (crash tests, OS
    kill) leaves a broken pipe behind, and shutdown must still reach the
    survivors.
    """
    for conn in conns:
        try:
            conn.send(("stop",))
        except (OSError, ValueError):
            pass  # repro: noqa[R006] — pipe already dead; shutdown is best-effort


def serve_control_plane(
    conns: list[Connection],
    processes: list,
    *,
    region: ControlRegion | None = None,
    timeout_seconds: float | None = None,
    phase_timeout_seconds: float | None = None,
    progress=None,
    san_sink=None,
) -> dict[int, Any]:
    """Watch a job's workers until every one reports done.

    ``conns[rank]`` is the driver end of rank's pipe; ``processes[rank]``
    the worker process (anything with ``is_alive()`` and ``exitcode``);
    ``region`` the generation's :class:`ControlRegion` (``None`` only for
    links that relay their collectives over the pipes).  ``progress``,
    when given, receives every heartbeat as ``progress(rank, step_label,
    rows)``, in step order per rank; ``san_sink``, when given, receives
    every flushed batch of sanitizer access records as ``san_sink(rank,
    records)`` (delivered at step boundaries, so a partial log survives a
    crash).  Returns ``{rank: done_payload}``.  Raises
    :class:`~repro.parallel.errors.WorkerCrashedError` when a pipe hits
    EOF or a process dies before reporting (carrying the dead rank's last
    heartbeat step and its age),
    :class:`~repro.parallel.errors.WorkerFailedError` when a worker
    reports an exception (:class:`~repro.parallel.errors.ProtocolError`
    when that exception was the control plane's own), and
    :class:`~repro.parallel.errors.ControlPlaneTimeout` when
    ``timeout_seconds`` passes without any progress — no message, beat or
    arrival — naming each rank's last heartbeat.

    ``phase_timeout_seconds`` arms the *per-phase deadline*: no single
    collective may stay open longer than this, even while other activity
    keeps resetting the global no-progress clock.  This is what detects a
    hung-but-alive rank promptly — the resulting
    :class:`ControlPlaneTimeout` names the ``missing_ranks`` that never
    arrived, so the retry layer can charge the failure to a specific rank
    with no corpse to point at.
    """
    return _Hub(conns, processes, region, progress, san_sink).serve(
        timeout_seconds, phase_timeout_seconds
    )


class _Hub:
    """The driver's watch over one job: liveness, deadlines, reports."""

    def __init__(self, conns, processes, region, progress, san_sink):
        self.conns, self.processes, self.region = conns, processes, region
        self.progress, self.san_sink = progress, san_sink
        self.size = len(conns)
        self.rank_of = {id(conn): rank for rank, conn in enumerate(conns)}
        self.active: set[int] = set(range(self.size))
        self.done: dict[int, Any] = {}
        #: Heartbeat entries forwarded to the progress sink, per rank.
        self.forwarded = [0] * self.size
        #: Pipe-relayed collectives (region-less links): seq -> {rank: payload}.
        self.relayed: dict[int, dict[int, Any]] = {}

    def serve(self, timeout_seconds, phase_timeout_seconds) -> dict[int, Any]:
        last_progress = time.perf_counter()  # repro: noqa[R002] — real backend: liveness/timeout bookkeeping needs the wall clock
        seen = None
        while self.active:
            ready = wait([self.conns[r] for r in self.active], timeout=_POLL_SECONDS)
            now = time.perf_counter()  # repro: noqa[R002] — real backend: liveness/timeout bookkeeping needs the wall clock
            if self.region is not None:
                self.watch(now, phase_timeout_seconds)
            if ready:
                last_progress = now
                for conn in ready:
                    self.handle(self.rank_of[id(conn)], conn)
                continue
            for rank in sorted(self.active):
                if not self.processes[rank].is_alive() and not self.conns[rank].poll():
                    raise self.crash(rank)
            # A new beat or arrival is progress too.
            state = None if self.region is None else self.region.progress_mark()
            if state != seen:
                seen, last_progress = state, now
            if timeout_seconds is not None and now - last_progress > timeout_seconds:
                raise ControlPlaneTimeout(
                    now - last_progress, self.phase(), heartbeats=self.beat_summary()
                )
        if self.relayed:
            raise ProtocolError(
                "all workers reported done but collectives never completed: "
                + ", ".join(f"#{seq}" for seq in sorted(self.relayed))
            )
        return self.done

    def watch(self, now: float, phase_timeout_seconds) -> None:
        """Forward new heartbeats, in step order, and hold the phase deadline."""
        region = self.region
        if self.progress is not None:
            beats = region.beats
            for rank in range(self.size):
                step = self.forwarded[rank]
                while step < len(STEP_LABELS) and beats[rank, step, 1] != 0.0:
                    self.progress(rank, STEP_LABELS[step], int(beats[rank, step, 0]))
                    step += 1
                self.forwarded[rank] = step
        if phase_timeout_seconds is None:
            return
        open_ = region.open_collective()
        if open_ is not None and now - open_[1] > phase_timeout_seconds:
            name, opened, missing = open_
            raise ControlPlaneTimeout(
                now - opened,
                f"collective {name} open past its {phase_timeout_seconds:.1f}s"
                f" phase deadline",
                heartbeats=self.beat_summary(),
                missing_ranks=missing,
            )

    def handle(self, rank: int, conn: Connection) -> None:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            raise self.crash(rank) from None
        kind = msg[0]
        if kind == "done":
            self.done[rank] = msg[2]
            self.active.discard(rank)
        elif kind == "error":
            step, _age = self.last_beat(rank)
            if msg[2] == ProtocolError.__name__:
                raise ProtocolError(f"worker rank {rank}: {msg[3]}")
            raise WorkerFailedError(rank, msg[2], msg[3], last_step=step)
        elif kind == "san":
            if self.san_sink is not None:
                self.san_sink(rank, msg[2])
        elif kind == "probe":
            # Clock-sync handshake: answer with the hub clock, now.
            conn.send(time.perf_counter())  # repro: noqa[R002] — real backend: the clock-sync handshake IS a clock read
        elif kind == "coll":
            self.relay(msg)
        else:
            raise ProtocolError(f"unknown control message kind {kind!r}")

    def relay(self, msg: tuple) -> None:
        """One region-less link's contribution; answer all once complete."""
        _, op, seq, sender, root, payload = msg
        held = self.relayed.setdefault(seq, {})
        held[sender] = payload
        if len(held) == self.size:
            del self.relayed[seq]
            for rank, conn in enumerate(self.conns):
                conn.send(_result(op, rank, root, self.size, held.__getitem__))

    def phase(self) -> str:
        open_ = None if self.region is None else self.region.open_collective()
        if open_ is not None:
            return f"collectives pending: {open_[0]}"
        if self.relayed:
            return "collectives pending: " + ", ".join(f"#{seq}" for seq in sorted(self.relayed))
        return "between collectives"

    def last_beat(self, rank: int) -> tuple[str | None, float | None]:
        beat = None if self.region is None else self.region.last_beat(rank)
        if beat is None:
            return None, None
        step, stamp = beat
        return STEP_LABELS[step], time.perf_counter() - stamp  # repro: noqa[R002] — real backend: heartbeat age for crash diagnostics

    def beat_summary(self) -> str:
        parts = [
            f"r{rank}@{step}"
            for rank in range(self.size)
            for step in [self.last_beat(rank)[0]]
            if step is not None
        ]
        return "last heartbeats: " + ", ".join(parts) if parts else "no heartbeats received"

    def crash(self, rank: int) -> WorkerCrashedError:
        exitcode = getattr(self.processes[rank], "exitcode", None)
        step, age = self.last_beat(rank)
        return WorkerCrashedError(rank, exitcode, self.phase(), last_step=step, heartbeat_age=age)

"""Pipe-based control-plane collectives for the process backend.

The sort's *data* never touches a pipe — it moves through shared memory
(:mod:`repro.parallel.arena`).  What does cross pipes is the lightweight
control plane the six-step algorithm needs: the sample gather to the
Master, the splitter broadcast, the counts-matrix allgather before the
exchange, and barriers around the shared-memory writes.

Topology is a star: each worker holds one duplex pipe to the driver, and
the driver runs :func:`serve_control_plane` — a tiny collective server
that collects one contribution per rank per operation, computes the reply
(gather/bcast/allgather/barrier), and answers every participant.  All
ranks execute the same program, so operations arrive in the same order on
every pipe and are matched by an (op, sequence) key.

The hub is also the backend's *liveness monitor*: while waiting for
contributions it watches worker processes, so a crashed rank surfaces as a
typed :class:`~repro.parallel.errors.WorkerCrashedError` instead of the
barrier deadlock it would cause in a leaderless design.  Workers send a
fire-and-forget **heartbeat** at every step boundary (rank, step label,
rows); the hub keeps the latest per rank, forwards them to an optional
live-progress sink (the CLI's ``--progress``), and folds the last beat of
a dead or hung rank into the crash/timeout diagnostics — a worker that
dies mid-run reports *which step* it died in.

Two per-rank (non-collective) message kinds support observability: a
``probe`` is answered immediately with the hub's ``perf_counter`` reading
(the clock-offset handshake of :mod:`repro.parallel.tracing`), and a
``hb`` heartbeat is recorded without a reply.  Worker-side, the
:class:`WorkerLink` always measures its blocking time per collective
(two clock reads per call — noise next to a pipe round-trip) so real
runs report measured wait seconds even without a tracer attached.

The same star also carries the **job plane** of the persistent pool
(PR 9): between sorts every worker blocks in :meth:`WorkerLink.recv_job`
waiting for the driver's :func:`dispatch_job` (a ``("job", spec)``
message) or :func:`send_shutdown` (``("stop",)``).  Dispatch messages
are self-describing tuples so a worker can drain any stale collective
reply left queued on its pipe (e.g. by the ``skip-merge-barrier``
mutation's abandoned barrier) without misreading it as a job.  Each job
starts from :meth:`WorkerLink.reset`: sequence numbers, the epoch clock,
wait accumulators, and the tracer all return to their just-spawned state
so ShmSan epochs and trace attribution never bleed across jobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any

import numpy as np

from .errors import ControlPlaneTimeout, ProtocolError, WorkerCrashedError

#: How often the hub wakes to check worker liveness while idle (seconds).
_POLL_SECONDS = 0.25
#: How long a planned hang sleeps before giving up on being terminated.
HANG_SECONDS = 3600.0


class WorkerLink:
    """Worker-side endpoint: blocking collectives over one pipe.

    Mirrors the simnet collective API (:mod:`repro.simnet.collectives`)
    closely enough that the six-step program reads the same in both
    backends: ``gather`` returns the rank-ordered list at the root and
    ``None`` elsewhere, ``bcast`` returns the root's payload everywhere,
    ``allgather`` returns the full list to all ranks, ``barrier`` returns
    once every rank arrived.

    Every collective's blocking time is accumulated by kind
    (``barrier`` → barrier wait, everything else → recv wait) and by the
    current step label (set by the worker loop via :attr:`step_label`);
    when a :class:`~repro.parallel.tracing.WorkerTracer` is attached the
    same interval is also recorded as a wait span.
    """

    def __init__(self, rank: int, size: int, conn: Connection):
        self.rank = rank
        self.size = size
        self.conn = conn
        self._seq = 0
        #: Attached tracer (None on untraced runs — the guard pattern).
        self.tracer = None
        #: The collective op this job's fault plan stalls the rank before
        #: (None on fault-free runs — the same guard pattern) ...
        self.hang: str | None = None
        #: ... and whether it suppresses the rank's heartbeats.
        self.muted = False
        #: Label of the step the worker loop is currently inside.
        self.step_label = ""
        #: Measured blocking seconds, by wait kind and by step label.
        self.wait_by_kind = {"recv-wait": 0.0, "barrier-wait": 0.0}
        self.wait_by_step: dict[str, float] = {}
        #: Completed collectives on this rank.  Every collective is a full
        #: barrier through the hub (the reply only arrives after all ranks
        #: contributed) and all ranks run the same program, so this count
        #: is a *global* happens-before clock: accesses in different epochs
        #: are ordered, accesses in the same epoch are concurrent.  ShmSan
        #: stamps every shared-memory access interval with it.
        self.epoch = 0

    def reset(self) -> None:
        """Return the link to its just-spawned state for the next job.

        Pooled workers reuse one link across many sorts; every per-job
        quantity — the collective sequence counter (the hub matches ops
        by ``(op, seq)``, so both sides must restart from zero), the
        epoch happens-before clock ShmSan stamps accesses with, the
        measured wait accumulators, and the attached tracer — must start
        fresh or state from job *k* would corrupt the analysis of job
        *k+1*.  The hub's matching state is per ``serve_control_plane``
        call, so resetting the worker side is sufficient.
        """
        self._seq = 0
        self.epoch = 0
        self.tracer = None
        self.hang, self.muted = None, False
        self.step_label = ""
        self.wait_by_kind = {"recv-wait": 0.0, "barrier-wait": 0.0}
        self.wait_by_step = {}

    def recv_job(self):
        """Block until the next job dispatch; ``None`` means shut down.

        Drains anything that is not a ``("job", spec)`` or ``("stop",)``
        tuple: a worker that ran the ``skip-merge-barrier`` mutation (or
        any ``post_only`` path) finishes its job with the hub's reply to
        the abandoned collective still queued on the pipe, and that stale
        message must not be mistaken for the next dispatch.  EOF from a
        driver that dropped the pipe without a stop message propagates to
        the caller (the pool loop treats it as shutdown).
        """
        while True:
            msg = self.conn.recv()
            if isinstance(msg, tuple) and msg:
                if msg[0] == "job" and len(msg) == 2:
                    return msg[1]
                if msg[0] == "stop":
                    return None
            # Stale collective reply (or unknown debris): drop and re-wait.

    def _collective(self, op: str, payload: Any = None, root: int = 0) -> Any:
        if self.hang is not None and op == self.hang:
            # hang-at-collective: the planned rank sleeps here instead of
            # contributing — no process dies, so only the hub's per-phase
            # deadline can convert this into a typed, rank-attributed
            # ControlPlaneTimeout.
            self.hang = None
            if self.tracer is not None:
                self.tracer.fault("hang", f"before {op}")
            time.sleep(HANG_SECONDS)
        self._seq += 1
        start = time.perf_counter()  # repro: noqa[R002] — real backend: measured pipe-blocking time is the point
        self.conn.send(("coll", op, self._seq, self.rank, root, payload))
        reply = self.conn.recv()
        self.epoch += 1
        end = time.perf_counter()  # repro: noqa[R002] — real backend: measured pipe-blocking time is the point
        kind = "barrier-wait" if op == "barrier" else "recv-wait"
        self.wait_by_kind[kind] += end - start
        if self.step_label:
            self.wait_by_step[self.step_label] = (
                self.wait_by_step.get(self.step_label, 0.0) + (end - start)
            )
        if self.tracer is not None:
            self.tracer.wait(kind, op, start, end)
        return reply

    def barrier(self) -> None:
        self._collective("barrier")

    def gather(self, payload: Any, root: int = 0) -> list | None:
        return self._collective("gather", payload, root)

    def bcast(self, payload: Any, root: int = 0) -> Any:
        return self._collective("bcast", payload, root)

    def allgather(self, payload: Any) -> list:
        return self._collective("allgather", payload)

    def post_only(self, op: str) -> None:
        """Contribute to a collective without waiting for its completion.

        **Mutation hook, not an API.**  ShmSan's ``skip-merge-barrier``
        mutation uses this to model a buggy worker that posts its barrier
        contribution but charges ahead without waiting — the hub stays
        solvent (all ``p`` contributions arrive, other ranks unblock), but
        this rank's epoch clock does *not* advance, so its subsequent
        accesses are concurrent with the pre-barrier writes.  The reply
        the hub eventually sends stays queued on the pipe unread; the
        worker exits before it would matter.
        """
        self._seq += 1
        self.conn.send(("coll", op, self._seq, self.rank, 0, None))

    def flush_san(self, records: list) -> None:
        """Fire-and-forget: ship drained sanitizer access records home.

        Called at step boundaries and on completion when sanitizing is
        active, so a worker that crashes mid-run has already delivered its
        log up to the last boundary — the partial-analysis path.
        """
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

    def heartbeat(self, step: str, rows: int) -> None:
        """Fire-and-forget liveness beat: entering ``step`` with ``rows``.

        Also rotates :attr:`step_label` so subsequent collective waits are
        attributed to the new step.  A muted rank still rotates the label
        (the sort is unaffected) but suppresses the pipe message —
        degrading crash *detection* to "no heartbeat received", which is
        precisely the diagnostics path the ``mute=`` fault exercises.
        """
        self.step_label = step
        if self.muted:
            if self.tracer is not None:
                self.tracer.fault("mute", f"suppressed heartbeat at {step}")
            return
        self.conn.send(("hb", self.rank, step, int(rows)))

    def send_done(self, payload: Any) -> None:
        self.conn.send(("done", self.rank, payload))

    def send_error(self, exc_type: str, traceback_text: str) -> None:
        self.conn.send(("error", self.rank, exc_type, traceback_text))


def dispatch_job(conns: list[Connection], spec: Any) -> None:
    """Send one job spec to every pooled worker (driver side).

    The counterpart of :meth:`WorkerLink.recv_job`.  Dispatch is the only
    parent→worker message outside collective replies, and it is framed as
    ``("job", spec)`` so the worker's drain loop can tell it apart from a
    stale reply.  After dispatching, the driver must run
    :func:`serve_control_plane` over the same conns to completion (or
    tear the pool down on error) before dispatching again.
    """
    for conn in conns:
        conn.send(("job", spec))


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


@dataclass
class _PendingOp:
    root: int
    contributions: dict[int, Any]
    #: Hub clock when the first contribution opened this collective —
    #: what the per-phase deadline measures against.
    opened_at: float = 0.0


def _reply(op: str, pending: _PendingOp, size: int) -> dict[int, Any]:
    """Compute each rank's reply for a completed collective."""
    if op == "barrier":
        return {rank: None for rank in range(size)}
    if op == "gather":
        ordered = [pending.contributions[r] for r in range(size)]
        return {
            rank: (ordered if rank == pending.root else None)
            for rank in range(size)
        }
    if op == "bcast":
        value = pending.contributions[pending.root]
        return {rank: value for rank in range(size)}
    if op == "allgather":
        ordered = [pending.contributions[r] for r in range(size)]
        return {rank: ordered for rank in range(size)}
    raise ProtocolError(f"unknown collective op {op!r}")


def serve_control_plane(
    conns: list[Connection],
    processes: list,
    *,
    timeout_seconds: float | None = None,
    phase_timeout_seconds: float | None = None,
    progress=None,
    san_sink=None,
    faults=None,
) -> dict[int, Any]:
    """Drive the collective hub until every worker reports done.

    ``conns[rank]`` is the driver end of rank's pipe; ``processes[rank]``
    the worker process (anything with ``is_alive()`` and ``exitcode``).
    ``progress``, when given, receives every heartbeat as
    ``progress(rank, step_label, rows)``; ``san_sink``, when given,
    receives every flushed batch of sanitizer access records as
    ``san_sink(rank, records)`` (delivered at step boundaries, so a
    partial log survives a crash).  Returns ``{rank:
    done_payload}``.  Raises
    :class:`~repro.parallel.errors.WorkerCrashedError` when a pipe hits
    EOF or a process dies with messages outstanding (carrying the dead
    rank's last heartbeat step and its age),
    :class:`~repro.parallel.errors.WorkerFailedError` when a worker
    reports an exception (re-raised by the caller from the payload), and
    :class:`~repro.parallel.errors.ControlPlaneTimeout` when
    ``timeout_seconds`` passes without any progress (naming each rank's
    last heartbeat, so a hang reports which step every worker was in).

    ``phase_timeout_seconds`` arms the *per-phase deadline*: no single
    collective may stay open longer than this, even while other traffic
    (heartbeats, sanitizer flushes) keeps resetting the global
    no-progress clock.  This is what detects a hung-but-alive rank
    promptly — the resulting :class:`ControlPlaneTimeout` names the
    ``missing_ranks`` whose contribution never arrived, so the retry
    layer can charge the failure to a specific rank with no corpse to
    point at.

    ``faults``, when given, is the attempt's
    :class:`~repro.faults.FaultPlan`: with ``delay_prob`` set each
    collective reply may be preceded by a ``delay_spike``, drawn from the
    plan's seed (the pipe-star latency fault).  The fault-free path pays
    one ``is not None`` check per reply.
    """
    from .errors import WorkerFailedError

    draw = None
    if faults is not None and faults.delay_prob > 0.0:
        draw = np.random.default_rng(faults.seed).random

    size = len(conns)
    rank_of = {id(conn): rank for rank, conn in enumerate(conns)}
    active: set[int] = set(range(size))
    done: dict[int, Any] = {}
    pending: dict[tuple[str, int], _PendingOp] = {}
    #: rank -> (step label, rows, hub time the beat arrived).
    heartbeats: dict[int, tuple[str, int, float]] = {}
    last_progress = time.perf_counter()  # repro: noqa[R002] — real backend: liveness/timeout bookkeeping needs the wall clock

    def phase() -> str:
        if pending:
            ops = ", ".join(f"{op}#{seq}" for op, seq in sorted(pending))
            return f"collectives pending: {ops}"
        return "between collectives"

    def last_beat(rank: int) -> tuple[str | None, float | None]:
        beat = heartbeats.get(rank)
        if beat is None:
            return None, None
        step, _rows, seen = beat
        return step, time.perf_counter() - seen  # repro: noqa[R002] — real backend: heartbeat age for crash diagnostics

    def beat_summary() -> str:
        if not heartbeats:
            return "no heartbeats received"
        parts = [
            f"r{rank}@{heartbeats[rank][0]}" for rank in sorted(heartbeats)
        ]
        return "last heartbeats: " + ", ".join(parts)

    def crash(rank: int) -> WorkerCrashedError:
        proc = processes[rank]
        exitcode = getattr(proc, "exitcode", None)
        step, age = last_beat(rank)
        return WorkerCrashedError(
            rank, exitcode, phase(), last_step=step, heartbeat_age=age
        )

    def check_phase_deadline(now: float) -> None:
        if phase_timeout_seconds is None or not pending:
            return
        key = min(pending, key=lambda k: pending[k].opened_at)
        slot = pending[key]
        age = now - slot.opened_at
        if age > phase_timeout_seconds:
            op, seq = key
            missing = tuple(
                r for r in range(size) if r not in slot.contributions
            )
            raise ControlPlaneTimeout(
                age,
                f"collective {op}#{seq} open past its {phase_timeout_seconds:.1f}s"
                f" phase deadline",
                heartbeats=beat_summary(),
                missing_ranks=missing,
            )

    while active:
        ready = wait([conns[r] for r in active], timeout=_POLL_SECONDS)
        now = time.perf_counter()  # repro: noqa[R002] — real backend: liveness/timeout bookkeeping needs the wall clock
        check_phase_deadline(now)
        if not ready:
            for rank in sorted(active):
                proc = processes[rank]
                if not proc.is_alive() and not conns[rank].poll():
                    raise crash(rank)
            if (
                timeout_seconds is not None
                and now - last_progress > timeout_seconds
            ):
                raise ControlPlaneTimeout(
                    now - last_progress, phase(), heartbeats=beat_summary()
                )
            continue
        last_progress = now
        for conn in ready:
            rank = rank_of[id(conn)]
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                raise crash(rank) from None
            kind = msg[0]
            if kind == "done":
                done[msg[1]] = msg[2]
                active.discard(msg[1])
            elif kind == "error":
                step, _age = last_beat(msg[1])
                raise WorkerFailedError(msg[1], msg[2], msg[3], last_step=step)
            elif kind == "hb":
                _, sender, step, rows = msg
                heartbeats[sender] = (step, rows, now)
                if progress is not None:
                    progress(sender, step, rows)
            elif kind == "san":
                _, sender, records = msg
                if san_sink is not None:
                    san_sink(sender, records)
            elif kind == "probe":
                # Clock-sync handshake: answer with the hub clock, now.
                conns[msg[1]].send(time.perf_counter())  # repro: noqa[R002] — real backend: the clock-sync handshake IS a clock read
            elif kind == "coll":
                _, op, seq, sender, root, payload = msg
                key = (op, seq)
                slot = pending.get(key)
                if slot is None:
                    slot = pending[key] = _PendingOp(
                        root=root, contributions={}, opened_at=now
                    )
                elif slot.root != root:
                    raise ProtocolError(
                        f"collective {op}#{seq}: rank {sender} named root "
                        f"{root}, earlier ranks named {slot.root}"
                    )
                if sender in slot.contributions:
                    raise ProtocolError(
                        f"collective {op}#{seq}: duplicate contribution "
                        f"from rank {sender}"
                    )
                slot.contributions[sender] = payload
                if len(slot.contributions) == size:
                    del pending[key]
                    replies = _reply(op, slot, size)
                    for peer, reply in replies.items():
                        if draw is not None and draw() < faults.delay_prob:
                            time.sleep(faults.delay_spike)
                        conns[peer].send(reply)
            else:
                raise ProtocolError(f"unknown control message kind {kind!r}")
    if pending:
        ops = ", ".join(f"{op}#{seq}" for op, seq in sorted(pending))
        raise ProtocolError(
            f"all workers reported done but collectives never completed: {ops}"
        )
    return done

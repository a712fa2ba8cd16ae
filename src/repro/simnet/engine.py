"""Deterministic discrete-event engine executing simulated cluster programs.

A *program* is a generator function ``fn(proc, *args, **kwargs)`` where
``proc`` is the :class:`ProcessHandle` for the rank running it.  The generator
yields :mod:`repro.simnet.calls` operations; the engine interprets each one,
advances the virtual clock, and resumes the generator with the operation's
result.  Real payloads (numpy arrays, Python objects) travel inside messages,
so program outputs are bit-exact real computations — only *time* is simulated.

Execution is fully deterministic: ties in the event queue are broken by a
monotonically increasing sequence number, and no wall-clock or OS scheduling
enters any simulated path.

The engine is a scheduler and a set of call handlers:

* events are slotted records ``(time, seq, kind, rank, arg)``; the
  scheduler (:meth:`Simulator._loop`) pops the earliest one and hands it to
  one method per kind — step a rank's generator, deliver a message, crash a
  rank — with no per-event closure allocation;
* a step interprets each yielded call through one handler per call class,
  looked up by exact class in ``_CALL_HANDLERS``;
* ``Send`` and ``Isend`` share one message path (:meth:`Simulator._post`),
  and ``Isend`` and ``Compute`` one resume rule
  (:meth:`Simulator._resume_at`): a strictly-earliest wake-up steps on
  inline, ties queue;
* each rank's mailbox is indexed by ``(src, tag)`` channel plus per-source,
  per-tag, and arrival-order views, making every match shape — exact,
  ``ANY_SOURCE``, ``ANY_TAG``, or both wildcards — amortized O(1);
* ``Isend`` completions reuse a FIFO due-queue instead of the heap (their
  resume times are monotone, so no ordering work is needed).

All of this is behavior-invariant: virtual times, metrics, and message
ordering are bit-identical to the original interpreter (locked by the golden
determinism test in ``tests/integration/test_golden_determinism.py``).
"""

from __future__ import annotations

import gc
import itertools
from collections import deque
from heapq import heappop, heappush
from types import GeneratorType
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import TYPE_CHECKING, Any, Callable, Generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sanitizer import SimSan

from .calls import (
    ANY_SOURCE,
    ANY_TAG,
    Alloc,
    Barrier,
    Compute,
    Crash,
    Free,
    Isend,
    Mark,
    Message,
    Now,
    Probe,
    Recv,
    Send,
    Sleep,
)
from .errors import (
    DeadlockError,
    InvalidCallError,
    ProcessFailure,
    RankCrashedError,
    UnknownRankError,
)
from ..faults import MAX_RETRANSMITS, active_fault_plan
from .metrics import ClusterMetrics, ProcessMetrics
from .network import Fabric, NetworkModel

Program = Callable[..., Generator]

#: Event kinds interpreted by the run loop (slot 2 of an event record).
_EV_STEP = 0  #: resume rank's generator with ``arg`` as the send value
_EV_DELIVER = 1  #: deliver ``arg`` (a Message) to its destination mailbox
_EV_CRASH = 2  #: fail-stop the rank, ending the run (a planned kill fired)


class _Status(Enum):
    READY = auto()
    WAITING = auto()  # resume already scheduled (compute/sleep/send completion)
    BLOCKED_RECV = auto()
    BLOCKED_BARRIER = auto()
    DONE = auto()


#: The members by module name: looking one up on the class
#: (``_Status.DONE``) costs the time of several events' worth of work.
_READY, _WAITING, _BLOCKED_RECV, _BLOCKED_BARRIER, _DONE = _Status


@dataclass
class ProcessHandle:
    """Per-rank facade handed to program generators.

    Exposes the rank, the cluster size, and the process's metrics object so
    programs (and layered runtimes such as :mod:`repro.pgxd`) can attribute
    costs without reaching into engine internals.  When the simulator runs
    under SimSan, ``sanitizer`` carries the active
    :class:`~repro.simnet.sanitizer.SimSan` so comm facades (e.g.
    :class:`~repro.simnet.mpi.SimComm`) can register request handles; it is
    ``None`` on unsanitized runs.  ``traced`` and ``kill_step`` (the step
    the fault plan kills the rank entering) pick its step edges' observers.
    """

    rank: int
    size: int
    metrics: ProcessMetrics
    sanitizer: "SimSan | None" = None
    traced: bool = False
    kill_step: str | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessHandle(rank={self.rank}, size={self.size})"


class _Mailbox:
    """Arrival-ordered message store with O(1) matching for every spec shape.

    Messages are held as single-slot entries in arrival order.  The common
    case — the earliest live message satisfies the spec, which is what both
    wildcard drains (``Recv()``) and single-channel trains produce — is a
    head pop with no bookkeeping at all.  The first time a match *skips* the
    head (selective recv over an interleaved mailbox), three index views are
    built — exact ``(src, tag)`` channel, per-source, per-tag — and kept up
    to date by subsequent pushes, making every later selective match a head
    pop of the right view.  Consuming a message empties its entry; stale
    entries are skipped (and dropped) lazily when another view reaches them,
    so every entry is appended and popped at most once per view — amortized
    O(1) regardless of which wildcard combination each ``Recv`` uses.  FIFO
    order per matching set is exactly arrival order, as with a linear scan.
    """

    __slots__ = ("_arrival", "_channels", "_by_src", "_by_tag", "_indexed", "_live")

    def __init__(self) -> None:
        self._arrival: deque = deque()
        self._channels: dict[tuple[int, int], deque] | None = None
        self._by_src: dict[int, deque] | None = None
        self._by_tag: dict[int, deque] | None = None
        self._indexed = False
        self._live = 0

    def push(self, msg: Message) -> None:
        entry = [msg]
        self._arrival.append(entry)
        self._live += 1
        if self._indexed:
            self._channels.setdefault((msg.src, msg.tag), deque()).append(entry)
            self._by_src.setdefault(msg.src, deque()).append(entry)
            self._by_tag.setdefault(msg.tag, deque()).append(entry)
            # Consumed entries linger in views that are never queried;
            # compact when stale entries dominate to bound memory.
            if len(self._arrival) > 64 and len(self._arrival) > 2 * self._live:
                self._compact()

    def match(self, src: int, tag: int, consume: bool = True) -> Message | None:
        """Earliest-arrival message matching ``(src, tag)`` (wildcards ok)."""
        arrival = self._arrival
        while arrival:
            entry = arrival[0]
            msg = entry[0]
            if msg is None:  # consumed through an index view
                arrival.popleft()
                continue
            if (src == ANY_SOURCE or src == msg.src) and (
                tag == ANY_TAG or tag == msg.tag
            ):
                if consume:
                    arrival.popleft()
                    entry[0] = None
                    self._live -= 1
                return msg
            break  # head doesn't match: selective lookup needed
        else:
            return None
        # Selective path (at least one of src/tag is specific, since a full
        # wildcard always matches the live head above).
        if not self._indexed:
            self._build_indexes()
        if src != ANY_SOURCE:
            queue = (
                self._channels.get((src, tag))
                if tag != ANY_TAG
                else self._by_src.get(src)
            )
        else:
            queue = self._by_tag.get(tag)
        if not queue:
            return None
        while queue:
            entry = queue[0]
            msg = entry[0]
            if msg is None:
                queue.popleft()
                continue
            if consume:
                queue.popleft()
                entry[0] = None
                self._live -= 1
            return msg
        return None

    def _build_indexes(self) -> None:
        self._channels = channels = {}
        self._by_src = by_src = {}
        self._by_tag = by_tag = {}
        for entry in self._arrival:
            msg = entry[0]
            if msg is None:
                continue
            channels.setdefault((msg.src, msg.tag), deque()).append(entry)
            by_src.setdefault(msg.src, deque()).append(entry)
            by_tag.setdefault(msg.tag, deque()).append(entry)
        self._indexed = True

    def _compact(self) -> None:
        live = [entry for entry in self._arrival if entry[0] is not None]
        self._arrival = deque(live)
        self._build_indexes()

    def live_messages(self) -> "Generator[Message, None, None]":
        """Yield unconsumed messages in arrival order (sanitizer finalize)."""
        for entry in self._arrival:
            if entry[0] is not None:
                yield entry[0]

    def __len__(self) -> int:
        return self._live


@dataclass
class _ProcState:
    handle: ProcessHandle
    gen: Generator
    metrics: ProcessMetrics = field(init=False)
    status: _Status = _Status.READY
    #: Suspended parent generators of trampolined sub-programs: a program
    #: may ``yield`` a generator instead of ``yield from``-ing it; the
    #: engine then drives the child directly (no per-resume delegation
    #: through the parent frame) and resumes the parent with the child's
    #: return value.  Exceptions unwind through this stack exactly as
    #: ``yield from`` would propagate them.
    stack: list = field(default_factory=list)
    mailbox: _Mailbox = field(default_factory=_Mailbox)
    recv_spec: "Recv | None" = None
    #: True when the pending block is a Probe: deliver without consuming.
    probe_only: bool = False
    blocked_since: float = 0.0
    barrier_seq: int = 0
    result: Any = None

    def __post_init__(self) -> None:
        self.metrics = self.handle.metrics


#: A call handler: ``fn(simulator, rank, state, call)`` returns the value the
#: rank's generator resumes with, or ``_BLOCKED``.
_Handler = Callable[["Simulator", int, _ProcState, Any], Any]


class Simulator:
    """Event-driven executor for a fixed set of rank programs.

    Parameters
    ----------
    num_ranks:
        Number of processes (machines) in the cluster.
    network:
        Timing model for the interconnect; defaults to the paper's FDR
        InfiniBand parameters.

    :meth:`run` is a scheduler and a set of handlers.  The scheduler pops
    the earliest event and hands it to one method per event kind: step a
    rank's generator, deliver a message, or crash a rank.  A step
    interprets what the generator yields through ``_CALL_HANDLERS``, one
    handler per call class, matched by exact class.

    Observers attach through their ambient scopes, read once, here:

    * the innermost :func:`repro.obs.capture` gives the run a
      :class:`repro.obs.Tracer` of its own, recording typed
      span/flow/counter events;
    * the innermost :func:`repro.simnet.sanitizer.sanitize` scope attaches
      its :class:`repro.simnet.sanitizer.SimSan`, which checks the run for
      comm-layer misuse (use-after-Isend, leaked requests, unmatched
      messages, tag collisions);
    * the innermost :func:`repro.faults.inject_faults` scope injects its
      :class:`repro.faults.FaultPlan`'s message drops, delays, link
      degradation and slow nodes, and names each rank's ``kill_step`` on
      its handle (the rank yields :class:`Crash` there).

    Each is tested through one ``is not None`` guard per hook, and no hook
    of a tracer or sanitizer touches virtual time, metrics or event order,
    so observed runs are bit-identical to plain ones and the fault-free
    path stays bit-identical to the golden fingerprint.
    """

    def __init__(
        self,
        num_ranks: int,
        network: NetworkModel | None = None,
    ) -> None:
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        self.num_ranks = num_ranks
        self.network = network or NetworkModel()
        self.fabric = Fabric(self.network, num_ranks)
        from ..obs.context import active_capture
        from .sanitizer import active_sanitizer

        cap = active_capture()
        tracer = None if cap is None else cap.new_session(self)
        self._tracer = tracer
        if tracer is not None:
            tracer.num_ranks = max(tracer.num_ranks, num_ranks)
            self.fabric.tracer = tracer
        self._sanitizer = active_sanitizer()
        faults = active_fault_plan()
        #: Per-run FaultState, or None — the single object every fault
        #: guard of the run tests.
        self._faults = faults.begin_run(num_ranks) if faults is not None else None
        self._kill_at = {}  #: rank -> the step label it dies entering
        if self._faults is not None:
            self.fabric.faults = self._faults
            self._kill_at = {rank: faults.kill_step(rank) for rank in range(num_ranks)}
        self._procs: dict[int, _ProcState] = {}
        self._events: list[tuple[float, int, int, int, Any]] = []
        #: FIFO of Isend completions: their resume times are ``now`` plus a
        #: constant overhead, hence monotone — a deque replaces heap churn.
        self._due: deque[tuple[float, int, int, int, Any]] = deque()
        self._seq = itertools.count()
        self._now = 0.0
        self._barriers: dict[int, list[int]] = {}
        #: Events interpreted by the last :meth:`run` (perf instrumentation);
        #: a rank stepping on inline past a wait counts as its wake-up event.
        self.events_processed = 0
        self._ran = False

    # ------------------------------------------------------------------ API

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def add_process(self, fn: Program, *args: Any, rank: int | None = None, **kwargs: Any) -> int:
        """Register ``fn(proc, *args, **kwargs)`` as the program for a rank.

        Ranks default to registration order.  Returns the assigned rank.
        """
        if rank is None:
            rank = len(self._procs)
        if rank in self._procs:
            raise ValueError(f"rank {rank} already has a program")
        if not 0 <= rank < self.num_ranks:
            raise UnknownRankError(f"rank {rank} outside [0, {self.num_ranks})")
        traced, kill_step = self._tracer is not None, self._kill_at.get(rank)
        handle = ProcessHandle(rank, self.num_ranks, ProcessMetrics(rank), self._sanitizer, traced, kill_step)
        gen = fn(handle, *args, **kwargs)
        if not isinstance(gen, Generator):
            raise InvalidCallError(
                f"program for rank {rank} must be a generator function, got {type(gen)!r}"
            )
        self._procs[rank] = _ProcState(handle, gen)
        return rank

    def add_program(self, fn: Program, *args: Any, **kwargs: Any) -> None:
        """Register the same program on every rank (SPMD style)."""
        for rank in range(self.num_ranks):
            self.add_process(fn, *args, rank=rank, **kwargs)

    def run(self) -> ClusterMetrics:
        """Execute until all processes finish; returns cluster metrics.

        Raises :class:`DeadlockError` if every live process is blocked with
        no event pending (:class:`RankCrashedError` when a fault plan's
        kill fires), and :class:`ProcessFailure` if a program raises.
        """
        if self._ran:
            raise RuntimeError("Simulator.run() may only be called once")
        if len(self._procs) != self.num_ranks:
            raise RuntimeError(
                f"{len(self._procs)} programs registered for {self.num_ranks} ranks"
            )
        self._ran = True
        for rank in sorted(self._procs):
            self._schedule_step(0.0, rank, None)
        if self._sanitizer is not None:
            self._sanitizer.begin_run(self)
        # The run allocates short-lived tracked objects (heap tuples, call
        # and Message dataclasses) at event rate; with the default gen-0
        # threshold that is a cyclic-GC pass every few hundred events over
        # objects that die by refcount anyway.  Pause collection for the
        # run's duration (restored in the finally below, even on failure).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._finish(self._loop())
        finally:
            if gc_was_enabled:
                gc.enable()

    def metrics(self) -> ClusterMetrics:
        """Snapshot of cluster metrics (valid after :meth:`run`)."""
        procs = [self._procs[r].metrics for r in sorted(self._procs)]
        return ClusterMetrics(
            processes=procs,
            makespan=self._now,
            remote_bytes=self.fabric.remote_bytes,
            local_bytes=self.fabric.local_bytes,
            messages=self.fabric.messages,
        )

    def result(self, rank: int) -> Any:
        """Return value of the rank's program generator."""
        return self._procs[rank].result

    def results(self) -> list[Any]:
        """Return values of all programs, ordered by rank."""
        return [self._procs[r].result for r in sorted(self._procs)]

    # ------------------------------------------------------------ scheduler

    def _loop(self) -> int | None:
        """Pop events in ``(time, seq)`` order, from the heap or the Isend
        due-queue, and hand each to its kind's method until none is left.
        Returns the rank whose planned crash ended the run, else None."""
        events = self._events
        due = self._due
        procs = self._procs
        step = self._step
        deliver = self._deliver
        processed = 0
        try:
            while events or due:
                if due and (not events or due[0] < events[0]):
                    event = due.popleft()
                else:
                    event = heappop(events)
                self._now = event[0]
                processed += 1
                kind = event[2]
                if kind == _EV_STEP:
                    step(event[3], event[4])
                elif kind == _EV_DELIVER:
                    deliver(event[4])
                elif procs[event[3]].status is not _DONE:
                    # A crash: the rank fail-stops, and the run ends with it:
                    # on a reliable transport its peers would wait on it
                    # forever.
                    return event[3]
            return None
        finally:
            self.events_processed += processed

    def _step(self, rank: int, value: Any) -> None:
        """Resume ``rank``'s generator with ``value`` and interpret what it
        yields until it blocks or finishes."""
        state = self._procs[rank]
        if state.status is _DONE:
            return  # a finished rank has nothing to resume
        state.status = _READY
        gen = state.gen
        send = gen.send
        thrown: BaseException | None = None
        while True:
            try:
                if thrown is None:
                    call = send(value)
                else:
                    error, thrown = thrown, None
                    call = gen.throw(error)
            except StopIteration as stop:
                if state.stack:
                    # A trampolined sub-program finished: resume the
                    # suspended parent with its return value, exactly as
                    # ``yield from`` would.
                    gen = state.gen = state.stack.pop()
                    send = gen.send
                    value = stop.value
                    continue
                state.status = _DONE
                state.result = stop.value
                state.metrics.finished_at = self._now
                return
            except DeadlockError:
                raise
            except Exception as exc:  # surfaces program bugs w/ rank
                if state.stack:
                    # Unwind through suspended trampoline parents: the
                    # exception is thrown into the parent at its yield
                    # site, matching ``yield from`` propagation.
                    gen = state.gen = state.stack.pop()
                    send = gen.send
                    thrown = exc
                    continue
                state.status = _DONE
                raise ProcessFailure(rank, exc) from exc
            cls = call.__class__
            if cls is GeneratorType:
                # Trampoline: the program yielded a sub-program generator.
                # Drive the child directly — its StopIteration value resumes
                # the parent above — instead of paying a ``yield from``
                # delegation frame on every resume.  No event is scheduled,
                # so virtual time and pop order are untouched.
                state.stack.append(gen)
                gen = state.gen = call
                send = gen.send
                value = None
                continue
            handler = _CALL_HANDLERS.get(cls)
            try:
                if handler is None:
                    raise _uninterpretable(rank, call)
                value = handler(self, rank, state, call)
            except Exception as exc:  # repro: noqa[R006] — not swallowed: re-thrown into the program at its yield site above
                # Errors in a call (bad rank, over-free, ...) are raised at
                # the program's yield site so programs may handle them.
                thrown = exc
                continue
            if value is _BLOCKED:
                return

    def _deliver(self, msg: Message) -> None:
        """Place an arriving message; wake its rank if it matches.

        A rank blocked in Recv/Probe implies its mailbox held no matching
        message when it blocked (and every later match would have woken
        it), so only the *arriving* message needs testing against the
        blocked spec — no scan.
        """
        now = self._now
        msg.delivered_at = now
        dst = msg.dst
        state = self._procs[dst]
        tracer = self._tracer
        if tracer is not None:
            tracer.delivered(dst, now, msg.nbytes)
        if self._sanitizer is not None:
            self._sanitizer.on_deliver(msg)
        spec = state.recv_spec
        if (
            state.status is _BLOCKED_RECV
            and (spec.src == ANY_SOURCE or spec.src == msg.src)
            and (spec.tag == ANY_TAG or spec.tag == msg.tag)
        ):
            metrics = state.metrics
            metrics.recv_wait_seconds += now - state.blocked_since
            if tracer is not None:
                tracer.span(dst, state.blocked_since, now - state.blocked_since, "recv-wait")
            if state.probe_only:
                state.mailbox.push(msg)  # the probed message stays for a later Recv
            else:
                metrics.record_receive(msg.nbytes)
            state.recv_spec = None
            state.probe_only = False
            state.status = _WAITING
            heappush(self._events, (now, next(self._seq), _EV_STEP, dst, msg))
            return
        state.mailbox.push(msg)

    def _finish(self, crashed: int | None) -> ClusterMetrics:
        """End the run: tell the tracer and the sanitizer how it ended, then
        raise the crash or deadlock that ended it, or return its metrics."""
        blocked = {
            r: st.status.name for r, st in self._procs.items() if st.status is not _DONE
        }
        if crashed is not None:
            error = self._crash(crashed)
        elif blocked:
            error = DeadlockError(blocked, details=self._deadlock_details())
        else:
            error = None
        if self._tracer is not None:
            self._tracer.finish(self._now)
        sanitizer = self._sanitizer
        if sanitizer is not None:
            leftovers = {
                r: list(st.mailbox.live_messages())
                for r, st in sorted(self._procs.items())
                if len(st.mailbox)
            }
            if error is None:
                sanitizer.finish_run(self, leftovers)
            else:
                sanitizer.abort_run(leftovers, error.details)
        if error is not None:
            raise error
        return self.metrics()

    def _schedule_step(self, time: float, rank: int, value: Any) -> None:
        heappush(self._events, (time, next(self._seq), _EV_STEP, rank, value))

    def _resume_at(self, rank: int, state: _ProcState, t: float, queue: "deque | list") -> Any:
        """Wake ``rank`` at ``t``, when the call it is busy with ends.

        If ``t`` strictly precedes every queued event, the queued wake-up
        would be the very next pop: skip the round trip, move the clock and
        let the rank step on (returns None, its call's result).  Ties must
        queue: an equal-time event already queued carries a smaller sequence
        number and pops first.  ``queue`` is the Isend due-queue, whose
        times are monotone, or the heap.
        """
        events = self._events
        due = self._due
        if (not events or t < events[0][0]) and (not due or t < due[0][0]):
            self._now = t
            self.events_processed += 1
            return None
        event = (t, next(self._seq), _EV_STEP, rank, None)
        if queue is due:
            due.append(event)
        else:
            heappush(events, event)
        state.status = _WAITING
        return _BLOCKED

    def _block(self, state: _ProcState, status: _Status) -> Any:
        state.status = status
        state.blocked_since = self._now
        return _BLOCKED

    def _crash(self, rank: int) -> RankCrashedError:
        """Fail-stop ``rank`` now (fault injection): its error ends the run."""
        now = self._now
        metrics = self._procs[rank].metrics
        metrics.crashed = True
        metrics.finished_at = now
        if self._tracer is not None:
            self._tracer.fault(rank, now, "crash", detail=f"t={now:.6g}")
        return RankCrashedError(rank, now)

    def _deadlock_details(self) -> dict[int, dict[str, Any]]:
        """Per-rank diagnosis of a deadlock: who is blocked on what.

        Built only on the failure path, so cost is irrelevant; the result
        feeds :class:`DeadlockError` (and SimSan's report when attached) so
        an all-ranks-blocked hang names each rank's awaited source/tag and
        pending mailbox instead of a bare status word.
        """
        details: dict[int, dict[str, Any]] = {}
        for rank, state in sorted(self._procs.items()):
            if state.status is _DONE:
                continue
            entry: dict[str, Any] = {
                "status": state.status.name,
                "blocked_since": state.blocked_since,
                "mailbox_messages": len(state.mailbox),
            }
            if state.status is _BLOCKED_RECV and state.recv_spec is not None:
                entry["waiting_for"] = {
                    "src": state.recv_spec.src,
                    "tag": state.recv_spec.tag,
                    "probe": state.probe_only,
                }
            elif state.status is _BLOCKED_BARRIER:
                entry["waiting_for"] = {"barrier_seq": state.barrier_seq - 1}
            details[rank] = entry
        return details

    # ----------------------------------------------------------- messaging

    def _post(self, rank: int, state: _ProcState, call: Send) -> float:
        """The one message path of ``Send`` and ``Isend``: hand ``call``'s
        message to the fabric, count and record it, and queue its delivery.
        Returns the time the sender's NIC is done with it."""
        dst = call.dst
        if not 0 <= dst < self.num_ranks:
            raise UnknownRankError(f"rank {rank} sent to invalid rank {dst}")
        now = self._now
        nbytes = call.nbytes
        sender_done, delivered = self.fabric.transfer(rank, dst, nbytes, now)
        msg = Message(rank, dst, call.tag, nbytes, call.payload, now)
        metrics = state.metrics
        metrics.messages_sent += 1
        metrics.bytes_sent += nbytes
        if self._tracer is not None:
            self._tracer.flow(rank, dst, call.tag, nbytes, now, delivered)
        if self._sanitizer is not None:
            self._sanitizer.on_send(msg, nonblocking=call.__class__ is Isend)
        if self._faults is None or dst == rank:
            heappush(self._events, (delivered, next(self._seq), _EV_DELIVER, dst, msg))
        else:
            self._deliver_under_faults(msg, delivered)
        return sender_done

    def _deliver_under_faults(self, msg: Message, delivered: float) -> None:
        """Queue a remote ``msg`` as the run's fault plan has it arrive:
        later by one retransmit per dropped copy, by a delay spike, or
        behind its link's earlier traffic — or never, once every
        retransmission dropped too."""
        src, dst, now = msg.src, msg.dst, msg.sent_at
        tracer = self._tracer
        drops, arrival = self._faults.fate(src, dst, delivered)
        if drops:
            metrics = self._procs[src].metrics
            metrics.messages_dropped += drops
            metrics.retries += min(drops, MAX_RETRANSMITS)
            if tracer is not None:
                tracer.fault(src, now, "drop", src=src, dst=dst, detail=f"tag={msg.tag} x{drops}")
        if arrival is None:  # lost for good: its receiver deadlocks the run
            if self._sanitizer is not None:
                self._sanitizer.on_drop(msg)
            return
        heappush(self._events, (arrival, next(self._seq), _EV_DELIVER, dst, msg))
        if arrival > delivered and tracer is not None:
            tracer.fault(src, now, "delay", src=src, dst=dst, detail=f"+{arrival - delivered:.2e}s")

    # ------------------------------------------------------- call handlers

    def _do_isend(self, rank: int, state: _ProcState, call: Isend) -> Any:
        overhead = self.network.per_message_overhead
        if self._tracer is not None:
            # Before the post: a message the fault plan drops or delays
            # leaves its markers after the sender's span.
            self._tracer.span(rank, self._now, overhead, "send")
        self._post(rank, state, call)
        state.metrics.send_seconds += overhead
        if overhead > 0.0:
            return self._resume_at(rank, state, self._now + overhead, self._due)
        return None

    def _do_send(self, rank: int, state: _ProcState, call: Send) -> Any:
        now = self._now
        sender_done = self._post(rank, state, call)
        state.metrics.send_seconds += sender_done - now
        if self._tracer is not None:
            self._tracer.span(rank, now, sender_done - now, "send")
        self._schedule_step(sender_done, rank, None)
        state.status = _WAITING
        return _BLOCKED

    def _do_recv(self, rank: int, state: _ProcState, call: Recv) -> Any:
        msg = state.mailbox.match(call.src, call.tag)
        if msg is not None:
            state.metrics.record_receive(msg.nbytes)
            return msg
        state.recv_spec = call
        state.probe_only = False
        return self._block(state, _BLOCKED_RECV)

    def _do_probe(self, rank: int, state: _ProcState, call: Probe) -> Any:
        msg = state.mailbox.match(call.src, call.tag, consume=False)
        if msg is not None or not call.blocking:
            return msg
        state.recv_spec = Recv(src=call.src, tag=call.tag)
        state.probe_only = True
        return self._block(state, _BLOCKED_RECV)

    def _do_compute(self, rank: int, state: _ProcState, call: Compute) -> Any:
        seconds = call.seconds
        if self._faults is not None:
            seconds *= self._faults.slow_mult[rank]
        state.metrics.record_compute(seconds, call.label)
        if self._tracer is not None:
            self._tracer.span(rank, self._now, seconds, "compute", call.label or "")
        return self._resume_at(rank, state, self._now + seconds, self._events)

    def _do_sleep(self, rank: int, state: _ProcState, call: Sleep) -> Any:
        self._schedule_step(self._now + call.seconds, rank, None)
        state.status = _WAITING
        return _BLOCKED

    def _do_now(self, rank: int, state: _ProcState, call: Now) -> Any:
        return self._now

    def _do_alloc(self, rank: int, state: _ProcState, call: Alloc) -> Any:
        memory = state.metrics.memory
        memory.alloc(call.nbytes, temporary=call.temporary)
        if self._tracer is not None:
            self._sample_memory(rank, memory)
        return None

    def _do_free(self, rank: int, state: _ProcState, call: Free) -> Any:
        memory = state.metrics.memory
        memory.free(call.nbytes, temporary=call.temporary)
        if self._tracer is not None:
            self._sample_memory(rank, memory)
        return None

    def _do_mark(self, rank: int, state: _ProcState, call: Mark) -> Any:
        # Tracer annotation: no virtual time, no metrics — with no tracer this
        # is a no-op, so marked programs are bit-identical to unmarked ones.
        if self._tracer is not None:
            self._tracer.mark(rank, self._now, call.label, call.event)
        return None

    def _do_crash(self, rank: int, state: _ProcState, call: Crash) -> Any:
        # A planned kill: the rank fail-stops now, and the crash event ends
        # the run once this instant's events ran.
        state.status = _WAITING
        heappush(self._events, (self._now, next(self._seq), _EV_CRASH, rank, None))
        return _BLOCKED

    def _sample_memory(self, rank: int, memory: Any) -> None:
        tracer = self._tracer
        now = self._now
        tracer.counter(rank, now, "mem.resident", float(memory.resident))
        tracer.counter(rank, now, "mem.temporary", float(memory.temporary))

    def _enter_barrier(self, rank: int, state: _ProcState, call: Barrier) -> Any:
        seq = state.barrier_seq
        state.barrier_seq += 1
        waiting = self._barriers.setdefault(seq, [])
        waiting.append(rank)
        if len(waiting) == self.num_ranks:
            arrivals = self._barriers.pop(seq)
            now = self._now
            tracer = self._tracer
            for other in arrivals:
                if other == rank:
                    continue
                other_state = self._procs[other]
                other_state.metrics.barrier_wait_seconds += (
                    now - other_state.blocked_since
                )
                if tracer is not None:
                    tracer.span(
                        other,
                        other_state.blocked_since,
                        now - other_state.blocked_since,
                        "barrier-wait",
                        call.name,
                    )
                other_state.status = _WAITING
                self._schedule_step(now, other, None)
            return None  # the last arriver proceeds immediately
        return self._block(state, _BLOCKED_BARRIER)


#: One handler per call class, looked up by exact class: a subclass of a
#: call is rejected, never run through its base's handler (an ``Isend``
#: subclass would otherwise resolve to the blocking ``Send``).  Plain
#: functions, never bound methods: a table of ``self.<method>`` is a
#: reference cycle, which would keep every finished run (and its result
#: arrays) alive until a cyclic collection.
_CALL_HANDLERS: dict[type, _Handler] = {
    Isend: Simulator._do_isend,
    Send: Simulator._do_send,
    Recv: Simulator._do_recv,
    Probe: Simulator._do_probe,
    Compute: Simulator._do_compute,
    Barrier: Simulator._enter_barrier,
    Sleep: Simulator._do_sleep,
    Now: Simulator._do_now,
    Alloc: Simulator._do_alloc,
    Free: Simulator._do_free,
    Mark: Simulator._do_mark,
    Crash: Simulator._do_crash,
}


def _uninterpretable(rank: int, call: Any) -> InvalidCallError:
    """The error for a yield no handler takes; it names the call class the
    object subclasses, if any."""
    for base in type(call).__mro__:
        if base in _CALL_HANDLERS:
            return InvalidCallError(
                f"rank {rank} yielded {call!r}: {base.__name__} is matched by exact "
                "class and cannot be subclassed"
            )
    return InvalidCallError(f"rank {rank} yielded uninterpretable object {call!r}")


class _BlockedSentinel:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<BLOCKED>"


_BLOCKED = _BlockedSentinel()

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

Engine internals are engineered for event throughput, since every paper
experiment is bottlenecked on this loop:

* events are slotted records ``(time, seq, kind, rank, arg)`` interpreted by
  a tight loop in :meth:`Simulator.run` — no per-event closure allocation;
* yielded calls dispatch through a type-keyed handler table instead of an
  isinstance chain;
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
import heapq
import itertools
from collections import deque
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


@dataclass
class ProcessHandle:
    """Per-rank facade handed to program generators.

    Exposes the rank, the cluster size, and the process's metrics object so
    programs (and layered runtimes such as :mod:`repro.pgxd`) can attribute
    costs without reaching into engine internals.  When the simulator runs
    under SimSan, ``sanitizer`` carries the active
    :class:`~repro.simnet.sanitizer.SimSan` so comm facades (e.g.
    :class:`~repro.simnet.mpi.SimComm`) can register request handles; it is
    ``None`` on unsanitized runs.
    """

    rank: int
    size: int
    metrics: ProcessMetrics
    sanitizer: "SimSan | None" = None

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
      degradation, slow nodes and step-addressed kills (a kill fires at
      the rank's ``Mark`` opening the step).

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
        self.fault_plan = faults
        #: Per-run FaultState, or None — the single object every fault
        #: guard in the run loop tests.
        self._faults = faults.begin_run(num_ranks) if faults is not None else None
        if self._faults is not None:
            self.fabric.faults = self._faults
        self._procs: dict[int, _ProcState] = {}
        self._events: list[tuple[float, int, int, int, Any]] = []
        #: FIFO of Isend completions: their resume times are ``now`` plus a
        #: constant overhead, hence monotone — a deque replaces heap churn.
        self._due: deque[tuple[float, int, int, int, Any]] = deque()
        self._seq = itertools.count()
        self._now = 0.0
        self._barriers: dict[int, list[int]] = {}
        #: Events interpreted by the last :meth:`run` (perf instrumentation).
        self.events_processed = 0
        self._ran = False
        #: Per-instance copy of :attr:`_CALL_HANDLERS`, so subclass lookups
        #: cached by :meth:`_resolve_handler` stay with this simulator.
        #: Plain functions, never bound methods: a table of ``self.<method>``
        #: is a reference cycle, which would keep every finished run (and
        #: its result arrays) alive until a cyclic collection.
        self._handlers: dict[type, _Handler] = dict(self._CALL_HANDLERS)

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
        handle = ProcessHandle(rank, self.num_ranks, ProcessMetrics(rank), self._sanitizer)
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
        fstate = self._faults
        for rank in sorted(self._procs):
            self._schedule_step(0.0, rank, None)
        # Tight interpreter: pop the globally next event from the heap or the
        # monotone Isend due-queue, then act on its kind slot.  The step and
        # deliver interpreters are inlined here so every run-invariant binding
        # (queues, heap ops, fabric, handler table, status constants) is
        # resolved once per run instead of once per event; with ~2 events per
        # simulated message that preamble would otherwise dominate.
        events = self._events
        due = self._due
        due_append = due.append
        heappop = heapq.heappop
        heappush = heapq.heappush
        procs = [self._procs[r] for r in range(self.num_ranks)]
        nx = self._seq.__next__
        transfer = self.fabric.transfer
        # Model parameters are fixed at construction time (tests configure
        # NetworkModel, then build the Simulator), so the constant per-send
        # overhead can be read once.
        overhead = self.network.per_message_overhead
        handlers = self._handlers
        handlers_get = handlers.get
        # Structured tracer, or None: every recording site below is guarded
        # by one `is not None` test on this local, so the disabled path
        # stays on the fast path.
        tracer = self._tracer
        # SimSan, or None: same single-guard discipline.  Hooks observe
        # messages only (fingerprints, channel counters) — they never feed
        # back into times or ordering, so sanitized runs stay bit-identical.
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.begin_run(self)
        num_ranks = self.num_ranks
        READY = _Status.READY
        WAITING = _Status.WAITING
        DONE = _Status.DONE
        BLOCKED_RECV = _Status.BLOCKED_RECV
        processed = 0
        # The loop allocates short-lived tracked objects (heap tuples, call
        # and Message dataclasses) at event rate; with the default gen-0
        # threshold that is a cyclic-GC pass every few hundred events over
        # objects that die by refcount anyway.  Pause collection for the
        # run's duration (restored in the finally below, even on failure).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run_events(
                events,
                due,
                due_append,
                heappop,
                heappush,
                procs,
                nx,
                transfer,
                overhead,
                handlers_get,
                tracer,
                sanitizer,
                num_ranks,
                READY,
                WAITING,
                DONE,
                BLOCKED_RECV,
                processed,
                fstate,
            )
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run_events(
        self,
        events,
        due,
        due_append,
        heappop,
        heappush,
        procs,
        nx,
        transfer,
        overhead,
        handlers_get,
        tracer,
        sanitizer,
        num_ranks,
        READY,
        WAITING,
        DONE,
        BLOCKED_RECV,
        processed,
        fstate,
    ) -> ClusterMetrics:
        crashed = None
        while events or due:
            if due and (not events or due[0] < events[0]):
                event = due.popleft()
            else:
                event = heappop(events)
            now = event[0]
            self._now = now
            processed += 1
            if event[2] == _EV_STEP:
                # ---- step: advance one rank's generator until it blocks.
                rank = event[3]
                value = event[4]
                state = procs[rank]
                if state.status is DONE:
                    continue  # a finished rank has nothing to resume
                state.status = READY
                gen = state.gen
                send = gen.send
                metrics = state.handle.metrics
                mailbox = state.mailbox
                pending_exc: BaseException | None = None
                while True:
                    try:
                        if pending_exc is not None:
                            call = gen.throw(pending_exc)
                            pending_exc = None
                        else:
                            call = send(value)
                    except StopIteration as stop:
                        if state.stack:
                            # A trampolined sub-program finished: resume the
                            # suspended parent with its return value, exactly
                            # as ``yield from`` would.
                            gen = state.stack.pop()
                            state.gen = gen
                            send = gen.send
                            value = stop.value
                            continue
                        state.status = DONE
                        state.result = stop.value
                        metrics.finished_at = now
                        break
                    except DeadlockError:
                        raise
                    except Exception as exc:  # surfaces program bugs w/ rank
                        if state.stack:
                            # Unwind through suspended trampoline parents —
                            # the exception is thrown into the parent at its
                            # yield site, matching ``yield from`` propagation.
                            gen = state.stack.pop()
                            state.gen = gen
                            send = gen.send
                            pending_exc = exc
                            continue
                        state.status = DONE
                        raise ProcessFailure(rank, exc) from exc
                    cls = call.__class__
                    try:
                        if cls is Isend:
                            dst = call.dst
                            if not 0 <= dst < num_ranks:
                                raise UnknownRankError(
                                    f"rank {rank} sent to invalid rank {dst}"
                                )
                            nbytes = call.nbytes
                            _, delivered = transfer(rank, dst, nbytes, now)
                            msg = Message(
                                rank, dst, call.tag, nbytes, call.payload, now
                            )
                            metrics.messages_sent += 1
                            metrics.bytes_sent += nbytes
                            if tracer is not None:
                                tracer.flow(
                                    rank, dst, call.tag, nbytes, now, delivered
                                )
                                tracer.span(rank, now, overhead, "send")
                            if sanitizer is not None:
                                sanitizer.on_send(msg, nonblocking=True)
                            if fstate is None or dst == rank:
                                heappush(
                                    events, (delivered, nx(), _EV_DELIVER, dst, msg)
                                )
                            else:
                                self._deliver_under_faults(msg, delivered)
                            metrics.send_seconds += overhead
                            if overhead > 0.0:
                                # Inline resume: if this rank's wake-up
                                # strictly precedes every queued event, the
                                # queued copy would be the very next pop —
                                # skip the round-trip and keep stepping.
                                # Ties must queue: an equal-time event
                                # already queued carries a smaller sequence
                                # number and pops first.
                                t = now + overhead
                                if (not events or t < events[0][0]) and (
                                    not due or t < due[0][0]
                                ):
                                    now = t
                                    self._now = t
                                    processed += 1
                                    value = None
                                    continue
                                due_append((t, nx(), _EV_STEP, rank, None))
                                state.status = WAITING
                                break
                            value = None
                            continue
                        if cls is Recv:
                            msg = mailbox.match(call.src, call.tag)
                            if msg is not None:
                                metrics.messages_received += 1
                                metrics.bytes_received += msg.nbytes
                                value = msg
                                continue
                            state.status = BLOCKED_RECV
                            state.recv_spec = call
                            state.probe_only = False
                            state.blocked_since = now
                            break
                        if cls is Compute:
                            seconds = call.seconds
                            if fstate is not None:
                                seconds *= fstate.slow_mult[rank]
                            metrics.record_compute(seconds, call.label)
                            if tracer is not None:
                                tracer.span(
                                    rank,
                                    now,
                                    seconds,
                                    "compute",
                                    call.label or "",
                                )
                            # Same inline-resume rule as the Isend overhead
                            # wait above: strictly-earliest wake-ups skip
                            # the heap; ties queue to preserve pop order.
                            t = now + seconds
                            if (not events or t < events[0][0]) and (
                                not due or t < due[0][0]
                            ):
                                now = t
                                self._now = t
                                processed += 1
                                value = None
                                continue
                            heappush(events, (t, nx(), _EV_STEP, rank, None))
                            state.status = WAITING
                            break
                        if cls is GeneratorType:
                            # Trampoline: the program yielded a sub-program
                            # generator.  Drive the child directly — its
                            # StopIteration value resumes the parent above —
                            # instead of paying a ``yield from`` delegation
                            # frame on every resume.  No event is scheduled,
                            # so virtual time and pop order are untouched.
                            state.stack.append(gen)
                            gen = call
                            state.gen = gen
                            send = gen.send
                            value = None
                            continue
                        handler = handlers_get(cls)
                        if handler is None:
                            handler = self._resolve_handler(rank, call)
                        value = handler(self, rank, state, call)
                    except Exception as exc:  # repro: noqa[R006] — not swallowed: re-thrown into the program at its yield site below
                        # Errors in a call (bad rank, over-free, ...) are
                        # raised at the program's yield site so programs may
                        # handle them.
                        pending_exc = exc
                        continue
                    if value is _BLOCKED:
                        break
            elif event[2] == _EV_DELIVER:
                # ---- deliver: place an arriving message; wake the rank if
                # it matches.  A rank blocked in Recv/Probe implies its
                # mailbox held no matching message when it blocked (and every
                # later match would have woken it), so only the *arriving*
                # message needs testing against the blocked spec — no scan.
                msg = event[4]
                msg.delivered_at = now
                state = procs[msg.dst]
                if tracer is not None:
                    tracer.delivered(msg.dst, now, msg.nbytes)
                if sanitizer is not None:
                    sanitizer.on_deliver(msg)
                if state.status is BLOCKED_RECV:
                    spec = state.recv_spec
                    if (spec.src == ANY_SOURCE or spec.src == msg.src) and (
                        spec.tag == ANY_TAG or spec.tag == msg.tag
                    ):
                        metrics = state.handle.metrics
                        metrics.recv_wait_seconds += now - state.blocked_since
                        if tracer is not None:
                            tracer.span(
                                msg.dst,
                                state.blocked_since,
                                now - state.blocked_since,
                                "recv-wait",
                            )
                        if state.probe_only:
                            # The probed message stays for a later Recv.
                            state.mailbox.push(msg)
                        else:
                            metrics.messages_received += 1
                            metrics.bytes_received += msg.nbytes
                        state.recv_spec = None
                        state.probe_only = False
                        state.status = WAITING
                        heappush(events, (now, nx(), _EV_STEP, msg.dst, msg))
                        continue
                state.mailbox.push(msg)
            elif procs[event[3]].status is not DONE:
                # ---- crash: the rank fail-stops, and the run ends with it:
                # on a reliable transport its peers would wait on it forever.
                crashed = event[3]
                break
        self.events_processed = processed
        blocked = {
            r: st.status.name for r, st in self._procs.items() if st.status is not DONE
        }
        if crashed is not None:
            error = self._crash(crashed)
        elif blocked:
            error = DeadlockError(blocked, details=self._deadlock_details())
        else:
            error = None
        if tracer is not None:
            tracer.finish(self._now)
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

    def metrics(self) -> ClusterMetrics:
        """Snapshot of cluster metrics (valid after :meth:`run`)."""
        procs = [self._procs[r].handle.metrics for r in sorted(self._procs)]
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

    # ------------------------------------------------------------- internals

    def _schedule_step(self, time: float, rank: int, value: Any) -> None:
        heapq.heappush(self._events, (time, next(self._seq), _EV_STEP, rank, value))

    def _crash(self, rank: int) -> RankCrashedError:
        """Fail-stop ``rank`` now (fault injection): its error ends the run."""
        now = self._now
        metrics = self._procs[rank].handle.metrics
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
            if state.status is _Status.DONE:
                continue
            entry: dict[str, Any] = {
                "status": state.status.name,
                "blocked_since": state.blocked_since,
                "mailbox_messages": len(state.mailbox),
            }
            if state.status is _Status.BLOCKED_RECV and state.recv_spec is not None:
                entry["waiting_for"] = {
                    "src": state.recv_spec.src,
                    "tag": state.recv_spec.tag,
                    "probe": state.probe_only,
                }
            elif state.status is _Status.BLOCKED_BARRIER:
                entry["waiting_for"] = {"barrier_seq": state.barrier_seq - 1}
            details[rank] = entry
        return details

    def _resolve_handler(self, rank: int, call: Any) -> _Handler:
        """Slow path: find (and cache) the handler for a call subclass."""
        for base in type(call).__mro__:
            if base in (Isend, Recv, Compute):
                # Interpreted inline by exact class; resolving on would run
                # an Isend subclass through the *blocking* Send handler.
                raise InvalidCallError(
                    f"rank {rank} yielded {call!r}: {base.__name__} is interpreted "
                    "inline and cannot be subclassed"
                )
            handler = self._handlers.get(base)
            if handler is not None:
                self._handlers[type(call)] = handler
                return handler
        raise InvalidCallError(f"rank {rank} yielded uninterpretable object {call!r}")

    # ------------------------------------------------------- call handlers

    def _do_send(self, rank: int, state: _ProcState, call: Send) -> Any:
        sender_done = self._inject(rank, call)
        state.handle.metrics.send_seconds += sender_done - self._now
        if self._tracer is not None:
            self._tracer.span(rank, self._now, sender_done - self._now, "send")
        self._schedule_step(sender_done, rank, None)
        state.status = _Status.WAITING
        return _BLOCKED

    def _do_probe(self, rank: int, state: _ProcState, call: Probe) -> Any:
        msg = state.mailbox.match(call.src, call.tag, consume=False)
        if msg is not None or not call.blocking:
            return msg
        state.status = _Status.BLOCKED_RECV
        state.recv_spec = Recv(src=call.src, tag=call.tag)
        state.probe_only = True
        state.blocked_since = self._now
        return _BLOCKED

    def _do_sleep(self, rank: int, state: _ProcState, call: Sleep) -> Any:
        self._schedule_step(self._now + call.seconds, rank, None)
        state.status = _Status.WAITING
        return _BLOCKED

    def _do_now(self, rank: int, state: _ProcState, call: Now) -> Any:
        return self._now

    def _do_alloc(self, rank: int, state: _ProcState, call: Alloc) -> Any:
        memory = state.handle.metrics.memory
        memory.alloc(call.nbytes, temporary=call.temporary)
        if self._tracer is not None:
            self._sample_memory(rank, memory)
        return None

    def _do_free(self, rank: int, state: _ProcState, call: Free) -> Any:
        memory = state.handle.metrics.memory
        memory.free(call.nbytes, temporary=call.temporary)
        if self._tracer is not None:
            self._sample_memory(rank, memory)
        return None

    def _do_mark(self, rank: int, state: _ProcState, call: Mark) -> Any:
        # Tracer annotation: no virtual time, no metrics — with no tracer and no fault plan this is a no-op, so
        # marked programs are bit-identical to unmarked ones.
        if self._tracer is not None:
            self._tracer.mark(rank, self._now, call.label, call.event)
        if self._faults is not None and self._faults.kill_at.get(rank) == call.label and call.event == "begin":
            # A planned kill: the rank fail-stops as it opens the step, and
            # the crash event ends the run once this instant's events ran.
            state.status = _Status.WAITING
            heapq.heappush(self._events, (self._now, next(self._seq), _EV_CRASH, rank, None))
            return _BLOCKED
        return None

    def _sample_memory(self, rank: int, memory: Any) -> None:
        tracer = self._tracer
        now = self._now
        tracer.counter(rank, now, "mem.resident", float(memory.resident))
        tracer.counter(rank, now, "mem.temporary", float(memory.temporary))

    # ----------------------------------------------------------- messaging

    def _inject(self, rank: int, call: Send) -> float:
        """Hand a blocking send's message to the fabric; returns sender-done
        time."""
        if not 0 <= call.dst < self.num_ranks:
            raise UnknownRankError(f"rank {rank} sent to invalid rank {call.dst}")
        now = self._now
        sender_done, delivered = self.fabric.transfer(rank, call.dst, call.nbytes, now)
        msg = Message(
            src=rank,
            dst=call.dst,
            tag=call.tag,
            nbytes=call.nbytes,
            payload=call.payload,
            sent_at=now,
        )
        metrics = self._procs[rank].handle.metrics
        metrics.messages_sent += 1
        metrics.bytes_sent += call.nbytes
        if self._tracer is not None:
            self._tracer.flow(rank, call.dst, call.tag, call.nbytes, now, delivered)
        if self._sanitizer is not None:
            self._sanitizer.on_send(msg, nonblocking=False)
        if self._faults is None or call.dst == rank:
            heapq.heappush(
                self._events, (delivered, next(self._seq), _EV_DELIVER, call.dst, msg)
            )
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
            metrics = self._procs[src].handle.metrics
            metrics.messages_dropped += drops
            metrics.retries += min(drops, MAX_RETRANSMITS)
            if tracer is not None:
                tracer.fault(src, now, "drop", src=src, dst=dst, detail=f"tag={msg.tag} x{drops}")
        if arrival is None:  # lost for good: its receiver deadlocks the run
            if self._sanitizer is not None:
                self._sanitizer.on_drop(msg)
            return
        heapq.heappush(self._events, (arrival, next(self._seq), _EV_DELIVER, dst, msg))
        if arrival > delivered and tracer is not None:
            tracer.fault(src, now, "delay", src=src, dst=dst, detail=f"+{arrival - delivered:.2e}s")

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
                other_state.handle.metrics.barrier_wait_seconds += (
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
                other_state.status = _Status.WAITING
                self._schedule_step(now, other, None)
            return None  # the last arriver proceeds immediately
        state.status = _Status.BLOCKED_BARRIER
        state.blocked_since = self._now
        return _BLOCKED

    #: Handlers of the calls :meth:`_run_events` does not interpret inline
    #: (``Isend``, ``Recv`` and ``Compute`` are arms of its loop).
    _CALL_HANDLERS: dict[type, _Handler] = {
        Send: _do_send,
        Probe: _do_probe,
        Barrier: _enter_barrier,
        Sleep: _do_sleep,
        Now: _do_now,
        Alloc: _do_alloc,
        Free: _do_free,
        Mark: _do_mark,
    }


class _BlockedSentinel:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<BLOCKED>"


_BLOCKED = _BlockedSentinel()

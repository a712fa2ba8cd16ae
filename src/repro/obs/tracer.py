"""The event recorder the engine's run loop calls when tracing is enabled.

A :class:`Tracer` is an append-only store of typed events plus the handful
of recording methods the hot paths invoke.  Design constraints:

* **Disabled cost is one pointer test.**  The engine binds the tracer to a
  local once per run and guards every recording site with
  ``if tracer is not None``, so the tracer-off path stays on the fast path
  (the perf ledger's ``trace.overhead_ratio`` measures what arming it costs).
* **Enabled cost is one method call + one dataclass append** per event; no
  string formatting happens at record time (the exporter renders labels).
* **No virtual-time side effects.**  Recording never touches the clock,
  the event queue, or metrics, so a traced run is bit-identical to an
  untraced one (locked by the golden determinism test).

A tracer may observe several :class:`~repro.simnet.engine.Simulator` runs
(each starts its clock at zero); use one tracer per run — or the
:func:`repro.obs.context.capture` context, which does so automatically —
when exporting, so tracks don't overlap.
"""

from __future__ import annotations

from .events import CounterSample, FaultEvent, FlowEvent, SpanEvent


class Tracer:
    """Typed-event recorder for one simulated run."""

    __slots__ = (
        "name",
        "spans",
        "flows",
        "counters",
        "faults",
        "num_ranks",
        "makespan",
        "_open_phases",
        "_next_flow_id",
        "_inflight_bytes",
    )

    def __init__(self, name: str = "sim") -> None:
        self.name = name
        self.spans: list[SpanEvent] = []
        self.flows: list[FlowEvent] = []
        self.counters: list[CounterSample] = []
        #: Injected-fault occurrences (empty on fault-free runs).
        self.faults: list[FaultEvent] = []
        #: Highest rank count of any simulator this tracer was attached to.
        self.num_ranks = 0
        #: Final virtual time of the last observed run (set by the engine).
        self.makespan = 0.0
        #: Per-rank stack of open ``Mark(begin)`` phases: rank -> [(label, t)].
        self._open_phases: dict[int, list[tuple[str, float]]] = {}
        self._next_flow_id = 0
        self._inflight_bytes = 0

    # ------------------------------------------------------ recording API

    def span(self, rank: int, start: float, duration: float, kind: str, label: str = "") -> None:
        """Record one activity interval (zero durations are kept)."""
        self.spans.append(SpanEvent(rank, start, duration, kind, label))

    def mark(self, rank: int, t: float, label: str, event: str) -> None:
        """Handle a ``Mark`` call: open/close a phase span or drop an instant.

        ``end`` closes the innermost open phase with a matching label (or,
        if none matches, the innermost phase — tolerant of reordered ends so
        a program bug degrades the trace instead of crashing the run).
        """
        if event == "begin":
            self._open_phases.setdefault(rank, []).append((label, t))
            return
        if event == "instant":
            self.spans.append(SpanEvent(rank, t, 0.0, "instant", label))
            return
        stack = self._open_phases.get(rank)
        if not stack:
            self.spans.append(SpanEvent(rank, t, 0.0, "phase", label))
            return
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][0] == label:
                opened_label, start = stack.pop(i)
                break
        else:
            opened_label, start = stack.pop()
        self.spans.append(SpanEvent(rank, start, t - start, "phase", opened_label))

    def flow(self, src: int, dst: int, tag: int, nbytes: int, inject_t: float, deliver_t: float) -> FlowEvent:
        """Record one message; returns the event (its id pairs send/recv)."""
        fid = self._next_flow_id
        self._next_flow_id = fid + 1
        event = FlowEvent(fid, src, dst, tag, nbytes, inject_t, deliver_t)
        self.flows.append(event)
        self._inflight_bytes += nbytes
        self.counters.append(
            CounterSample(src, inject_t, "net.bytes_in_flight", float(self._inflight_bytes))
        )
        return event

    def shm_flow(
        self,
        src: int,
        dst: int,
        nbytes: int,
        inject_t: float,
        deliver_t: float,
        *,
        offset: int = -1,
    ) -> FlowEvent:
        """Record one measured shared-memory all-to-all write (process backend).

        Unlike :meth:`flow` this leaves the ``net.bytes_in_flight`` series
        untouched — a shm write is never "in flight"; the interval *is* the
        transfer.  ``tag`` doubles as the destination rank and ``offset``
        carries the write's byte position in the receiver's region.
        """
        fid = self._next_flow_id
        self._next_flow_id = fid + 1
        event = FlowEvent(fid, src, dst, dst, nbytes, inject_t, deliver_t, offset)
        self.flows.append(event)
        return event

    def delivered(self, rank: int, t: float, nbytes: int) -> None:
        """Mailbox delivery: retire ``nbytes`` from the in-flight series."""
        self._inflight_bytes -= nbytes
        self.counters.append(
            CounterSample(rank, t, "net.bytes_in_flight", float(self._inflight_bytes))
        )

    def counter(self, rank: int, t: float, name: str, value: float) -> None:
        """Record one sample of an arbitrary named series."""
        self.counters.append(CounterSample(rank, t, name, value))

    def fault(
        self,
        rank: int,
        t: float,
        kind: str,
        *,
        src: int = -1,
        dst: int = -1,
        detail: str = "",
    ) -> None:
        """Record one fault occurrence (engine injection or protocol event).

        Also drops an instant span on the rank's track so existing
        exporters (Perfetto) render fault markers with no format changes.
        """
        self.faults.append(FaultEvent(rank, t, kind, src, dst, detail))
        label = f"fault:{kind}" + (f" {detail}" if detail else "")
        self.spans.append(SpanEvent(rank, t, 0.0, "instant", label))

    def finish(self, makespan: float) -> None:
        """Close any phases left open at run end and record the makespan."""
        self.makespan = max(self.makespan, makespan)
        for rank, stack in self._open_phases.items():
            while stack:
                label, start = stack.pop()
                self.spans.append(SpanEvent(rank, start, makespan - start, "phase", label))

    # --------------------------------------------------------- query API

    def ranks(self) -> list[int]:
        seen = {s.rank for s in self.spans}
        seen.update(f.src for f in self.flows)
        seen.update(f.dst for f in self.flows)
        return sorted(seen)

    def spans_for(self, rank: int, kind: str | None = None) -> list[SpanEvent]:
        return [
            s for s in self.spans if s.rank == rank and (kind is None or s.kind == kind)
        ]

    def phase_spans(self, rank: int | None = None) -> list[SpanEvent]:
        return [
            s
            for s in self.spans
            if s.kind == "phase" and (rank is None or s.rank == rank)
        ]

    def remote_flows(self) -> list[FlowEvent]:
        return [f for f in self.flows if f.remote]

    def flow_bytes(self, *, remote_only: bool = False) -> int:
        return sum(f.nbytes for f in self.flows if f.remote or not remote_only)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer({self.name!r}, spans={len(self.spans)}, "
            f"flows={len(self.flows)}, counters={len(self.counters)})"
        )

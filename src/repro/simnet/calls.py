"""Yieldable operations understood by the simulation engine.

Simulated processes are generator functions.  They interact with the virtual
cluster exclusively by ``yield``-ing instances of the dataclasses below; the
engine interprets each call, advances the virtual clock, and resumes the
generator with the call's result (e.g. the received payload for ``Recv``).

The calls mirror the mpi4py vocabulary (``Send``/``Recv``/``Isend``/...),
which keeps algorithm code readable to anyone who has written MPI programs.

Call objects are value objects: construct, yield, discard.  They are slotted
(hot loops construct millions) and hashable by field value; treat them as
immutable even though the slots are technically writable — ``frozen=True``
would route every constructor through ``object.__setattr__`` and roughly
triple construction cost, which dominates send-heavy programs.

One consequence of that design is an explicit reuse license for programs:
the engine consumes a yielded call *synchronously* — every field it needs
is read (and, for sends, copied into the wire ``Message``) before the
generator resumes — so a program that owns a call instance may yield it
again, and may even rewrite its fields between yields.  The exchange's
send/drain loops rely on this to amortize construction over thousands of
messages.  The license is for the yielding program only: a call received
*from* someone else (e.g. a ``Message`` payload) is not yours to mutate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Wildcard source rank for :class:`Recv`, matching any sender.
ANY_SOURCE = -1

#: Wildcard tag for :class:`Recv`, matching any message tag.
ANY_TAG = -1


@dataclass(slots=True, unsafe_hash=True)
class Compute:
    """Occupy the calling process for ``seconds`` of virtual time.

    ``label`` attributes the time to a named phase in the process metrics
    (used by the per-step breakdown of Figure 7).
    """

    seconds: float
    label: str | None = None

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"negative compute time: {self.seconds}")


@dataclass(slots=True, unsafe_hash=True)
class Send:
    """Blocking send: resumes once the payload has left the local NIC.

    Delivery to the destination mailbox happens later (wire latency plus
    receiver-side serialization); a matching ``Recv`` completes then.
    """

    dst: int
    nbytes: int
    payload: Any = None
    tag: int = 0

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"negative message size: {self.nbytes}")


@dataclass(slots=True, unsafe_hash=True)
class Isend(Send):
    """Non-blocking send: resumes immediately, the NIC drains asynchronously.

    Models PGX.D's asynchronous remote writes: the task manager hands the
    buffer to the communication manager and continues with the next task.
    """


@dataclass(slots=True, unsafe_hash=True)
class Recv:
    """Blocking receive; resumes with a :class:`Message` once matched."""

    src: int = ANY_SOURCE
    tag: int = ANY_TAG


@dataclass(slots=True, unsafe_hash=True)
class Probe:
    """Check for a matching message *without consuming it*.

    With ``blocking`` (the default) the caller resumes with the matched
    :class:`Message` once one is available; the message stays in the
    mailbox for a subsequent :class:`Recv`.  With ``blocking=False`` the
    caller resumes immediately with the matched message or ``None``
    (mpi4py's ``iprobe``).
    """

    src: int = ANY_SOURCE
    tag: int = ANY_TAG
    blocking: bool = True


@dataclass(slots=True, unsafe_hash=True)
class Barrier:
    """Block until every process in the cluster has entered the barrier.

    ``name`` disambiguates concurrent barriers in diagnostics only; matching
    is positional (PGX.D-style supersteps), so all ranks must execute the
    same barrier sequence.
    """

    name: str = "barrier"


@dataclass(slots=True, unsafe_hash=True)
class Sleep:
    """Idle for ``seconds`` without attributing the time to any phase."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"negative sleep time: {self.seconds}")


@dataclass(slots=True, unsafe_hash=True)
class Now:
    """Resume immediately with the current virtual time (seconds)."""


@dataclass(slots=True, unsafe_hash=True)
class Mark:
    """Annotate the structured trace; consumes no virtual time.

    ``event`` is ``"begin"``/``"end"`` to bracket a phase span (e.g. one of
    the six sort steps) or ``"instant"`` for a point marker.  With no
    tracer attached the engine discards the call, so programs may mark
    unconditionally: the disabled cost is one generator round-trip, the
    virtual clock and metrics are never touched, and behavior stays
    bit-identical.  (The sort marks only on a traced run: its step edges
    through their observer, the exchange's sub-phases by :func:`traced_mark`.)
    """

    label: str
    event: str = "begin"

    def __post_init__(self) -> None:
        if self.event not in ("begin", "end", "instant"):
            raise ValueError(f"unknown mark event {self.event!r}")


def traced_mark(proc, label: str, event: str = "begin") -> tuple[Mark, ...]:
    """What a program yields from to mark a phase only a tracer reads: the
    :class:`Mark` when its handle is ``traced``, nothing otherwise."""
    return (Mark(label, event),) if proc.traced else ()


@dataclass(slots=True, unsafe_hash=True)
class Crash:
    """Fail-stop the calling rank now (a fault plan's kill): the run ends
    in :class:`~repro.simnet.errors.RankCrashedError` once this instant's
    events ran."""


@dataclass(slots=True, unsafe_hash=True)
class Alloc:
    """Record ``nbytes`` of memory as allocated by the calling process.

    ``temporary`` distinguishes scratch space (freed before the program
    ends — the light-blue series of Figure 11) from resident data (RSS).
    """

    nbytes: int
    temporary: bool = False
    label: str | None = None

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"negative allocation: {self.nbytes}")


@dataclass(slots=True, unsafe_hash=True)
class Free:
    """Release ``nbytes`` previously recorded with :class:`Alloc`."""

    nbytes: int
    temporary: bool = False

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"negative free: {self.nbytes}")


@dataclass(slots=True)
class Message:
    """A delivered message, as returned by :class:`Recv`."""

    src: int
    dst: int
    tag: int
    nbytes: int
    payload: Any
    sent_at: float
    delivered_at: float = field(default=0.0)

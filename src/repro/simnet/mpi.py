"""An mpi4py-flavoured communicator facade over the simulator.

Lets MPI-style programs run unchanged on the virtual cluster: the lowercase
object API (``send``/``recv``/``bcast``/``scatter``/``gather``/
``allgather``/``alltoall``/``reduce``/``allreduce``/``barrier``) mirrors
``mpi4py.MPI.Comm`` semantics, so algorithms prototyped here port to a real
cluster by swapping the communicator (and vice versa — which is how the
dask/mpi4py variant of this reproduction would be deployed on real
hardware).

Because simulated processes are generators, every call must be driven with
``yield from``::

    def program(proc):
        comm = SimComm(proc)
        if comm.rank == 0:
            yield from comm.send({"a": 7}, dest=1, tag=11)
        elif comm.rank == 1:
            data = yield from comm.recv(source=0, tag=11)

Run with :func:`mpi_run`, the ``mpiexec`` of the virtual cluster.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Generator, Sequence

from .calls import ANY_SOURCE, ANY_TAG, Barrier, Isend, Message, Probe, Recv, Send
from .collectives import allgather as _allgather
from .collectives import alltoallv as _alltoallv
from .collectives import bcast as _bcast
from .collectives import gather as _gather
from .collectives import reduce as _reduce
from .collectives import scatter as _scatter
from .comm import nbytes_of
from .engine import ProcessHandle, Simulator
from .errors import SimSanError
from .metrics import ClusterMetrics
from .network import NetworkModel
from .sanitizer import sanitize


class SimRequest:
    """Handle returned by :meth:`SimComm.isend`.

    **Already-completed fast path.**  In this model the NIC owns the buffer
    the moment ``isend`` returns (PGX.D's communication manager copies the
    request buffer out of the task's hands), so every request is born
    complete: ``_done`` is ``True`` at construction, :meth:`test` returns
    ``True`` immediately, and :meth:`wait` never blocks.  Programs written
    against this API port to real mpi4py unchanged — there ``wait``/``test``
    do real work, here they are O(1) bookkeeping.

    **Idempotency.**  ``wait()`` may be called any number of times; every
    call returns ``None`` (mpi4py parity: the payload of an isend has no
    recv-side result) and leaves the request in the same completed state.
    ``test()`` likewise always reports ``True``.

    Under SimSan (:mod:`repro.simnet.sanitizer`) each request is registered
    at creation and the first ``wait()``/``test()`` marks it observed;
    requests never observed by the end of the run are reported as leaked.
    """

    __slots__ = ("_done", "_sanitizer")

    def __init__(self, sanitizer: Any = None) -> None:
        self._done = True
        self._sanitizer = sanitizer

    def wait(self) -> None:
        """Complete the request (idempotent; already complete in-model)."""
        if self._sanitizer is not None:
            self._sanitizer.observe_request(self)
        return None

    def test(self) -> bool:
        """True iff the request has completed (always, in-model)."""
        if self._sanitizer is not None:
            self._sanitizer.observe_request(self)
        return self._done


class SimComm:
    """mpi4py-style communicator bound to one simulated process."""

    #: Wildcard constants, mirroring ``MPI.ANY_SOURCE`` / ``MPI.ANY_TAG``.
    ANY_SOURCE = ANY_SOURCE
    ANY_TAG = ANY_TAG

    def __init__(self, proc: ProcessHandle):
        self.proc = proc

    # ------------------------------------------------------------- basics

    @property
    def rank(self) -> int:
        return self.proc.rank

    @property
    def size(self) -> int:
        return self.proc.size

    def Get_rank(self) -> int:  # noqa: N802 - mpi4py parity
        return self.proc.rank

    def Get_size(self) -> int:  # noqa: N802 - mpi4py parity
        return self.proc.size

    # ------------------------------------------------------ point-to-point

    def send(self, obj: Any, dest: int, tag: int = 0) -> Generator:
        """Blocking send of a Python object / numpy array."""
        yield Send(dst=dest, nbytes=nbytes_of(obj), payload=obj, tag=tag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Generator:
        """Non-blocking send; returns a :class:`SimRequest`."""
        yield Isend(dst=dest, nbytes=nbytes_of(obj), payload=obj, tag=tag)
        sanitizer = getattr(self.proc, "sanitizer", None)
        request = SimRequest(sanitizer)
        if sanitizer is not None:
            sanitizer.register_request(request, self.proc.rank, dest, tag)
        return request

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking receive; returns the payload (mpi4py-style)."""
        msg: Message = yield Recv(src=source, tag=tag)
        return msg.payload

    def recv_message(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Like :meth:`recv` but returns the full message (status access)."""
        msg: Message = yield Recv(src=source, tag=tag)
        return msg

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Block until a matching message is available; do not consume it."""
        msg: Message = yield Probe(src=source, tag=tag, blocking=True)
        return msg

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """True if a matching message is already waiting (non-blocking)."""
        msg = yield Probe(src=source, tag=tag, blocking=False)
        return msg is not None

    def sendrecv(
        self, obj: Any, dest: int, source: int = ANY_SOURCE, *, tag: int = 0
    ) -> Generator:
        """Exchange with a partner without deadlock (send posted async)."""
        yield Isend(dst=dest, nbytes=nbytes_of(obj), payload=obj, tag=tag)
        msg: Message = yield Recv(src=source, tag=tag)
        return msg.payload

    # --------------------------------------------------------- collectives

    def barrier(self) -> Generator:
        yield Barrier()

    def bcast(self, obj: Any = None, root: int = 0) -> Generator:
        return (yield from _bcast(self.proc, obj, root=root))

    def scatter(self, sendobj: Sequence[Any] | None = None, root: int = 0) -> Generator:
        return (yield from _scatter(self.proc, sendobj, root=root))

    def gather(self, sendobj: Any, root: int = 0) -> Generator:
        return (yield from _gather(self.proc, sendobj, root=root))

    def allgather(self, sendobj: Any) -> Generator:
        return (yield from _allgather(self.proc, sendobj))

    def alltoall(self, sendobjs: Sequence[Any]) -> Generator:
        return (yield from _alltoallv(self.proc, list(sendobjs)))

    def reduce(self, sendobj: Any, op: Callable[[Any, Any], Any], root: int = 0) -> Generator:
        return (yield from _reduce(self.proc, sendobj, op, root=root))

    def allreduce(self, sendobj: Any, op: Callable[[Any, Any], Any]) -> Generator:
        reduced = yield from _reduce(self.proc, sendobj, op, root=0)
        return (yield from _bcast(self.proc, reduced, root=0))


def mpi_run(
    num_ranks: int,
    program: Callable[..., Generator],
    *args: Any,
    network: NetworkModel | None = None,
    strict: bool = False,
    **kwargs: Any,
) -> tuple[list[Any], ClusterMetrics]:
    """``mpiexec -n num_ranks`` for the virtual cluster.

    ``program(comm, *args, **kwargs)`` runs on every rank with a
    :class:`SimComm`; returns (per-rank results, cluster metrics).

    ``strict=True`` opts the whole program into SimSan: the run executes
    under a fresh :class:`~repro.simnet.sanitizer.SimSan` (bit-identical to
    an unsanitized run) and raises
    :class:`~repro.simnet.errors.SimSanError` if any violation was recorded
    — a mutated in-flight isend buffer, a leaked request, or a message
    nobody received.  Tests use this to assert comm hygiene, not just
    results.  (``strict`` and ``network`` are reserved keywords; program
    kwargs with those names are not forwarded.)
    """
    with sanitize() if strict else nullcontext() as sanitizer:
        sim = Simulator(num_ranks, network)

    def bootstrap(proc: ProcessHandle, *a: Any, **kw: Any) -> Generator:
        return (yield from program(SimComm(proc), *a, **kw))

    sim.add_program(bootstrap, *args, **kwargs)
    metrics = sim.run()
    if sanitizer is not None and not sanitizer.report.ok:
        raise SimSanError(sanitizer.report)
    return sim.results(), metrics

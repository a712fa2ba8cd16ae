"""Cross-process observability for the real-parallel backend.

The simulated path records typed events straight into a
:class:`~repro.obs.tracer.Tracer` because everything happens in one
process.  The process backend cannot: each rank lives in its own OS
process with its own ``time.perf_counter`` timeline, and the parent only
sees workers through the control pipe.  This module closes that gap with
three pieces:

* :class:`WorkerTracer` — a tiny per-worker recorder (wait spans from the
  blocking collectives, one flow per (src, dst) shared-memory all-to-all
  write with bytes and destination offsets, counter samples).  Its
  payload, a picklable :class:`WorkerTrace`, rides home on the existing
  ``WorkerReport`` — never bulk data, just event tuples.
* a clock-offset handshake (:func:`estimate_clock_offset`) — each worker
  round-trips a few ``probe`` messages through the hub and keeps the
  NTP-style midpoint estimate of the minimum-RTT probe, so events
  recorded on per-process clocks land on the *hub's* timeline when
  merged.  A barrier follows the handshake, aligning all workers before
  step 1.
* :func:`merge_worker_traces` — parent-side assembly of the per-worker
  payloads into the very same :class:`~repro.obs.tracer.Tracer` schema
  the simnet engine fills, so every downstream consumer (the Perfetto
  exporter, :class:`~repro.obs.report.RunReport`, the experiments CLI's
  ``--trace-out``/``--report-out``) works identically on both backends.

All recording sits behind the repository's established ``is not None``
guard: an untraced process-backend run performs no handshake, ships no
trace payloads, and stays bit-identical to the PR-6 golden digests.

This module reads the wall clock *by design* — it lives under
``repro.parallel``, the one library package exempt from repro-lint's
R002 determinism rule; observability code anywhere else in ``src/repro``
(including :mod:`repro.obs`) remains in scope and still trips R002.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable

#: Signature of a live-progress sink: ``(rank, step_label, rows)``.
ProgressFn = Callable[[int, str, int], None]


@dataclass
class WorkerTrace:
    """Picklable per-worker event payload (local-clock times throughout).

    Times are ``time.perf_counter`` seconds on the *worker's* clock;
    ``clock_offset`` is what the handshake estimated must be **added** to
    them to land on the hub's timeline.  The parent performs that shift in
    :func:`merge_worker_traces` — workers never see the hub's clock.
    """

    rank: int
    #: Add to local times to get hub-clock times (handshake estimate).
    clock_offset: float = 0.0
    #: Round-trip time of the probe the offset estimate came from.
    clock_rtt: float = 0.0
    #: ``(start, duration, kind, label)`` — wait spans from collectives.
    spans: list[tuple[float, float, str, str]] = field(default_factory=list)
    #: ``(dst, nbytes, offset_bytes, start, end)`` — one per (src, dst)
    #: exchange run: all of its bytes across the exchanged streams
    #: (``count × 8`` for a run of packed words) and the run's byte offset
    #: in the first of them.
    flows: list[tuple[int, int, int, float, float]] = field(default_factory=list)
    #: ``(t, name, value)`` — sampled numeric series.
    counters: list[tuple[float, str, float]] = field(default_factory=list)
    #: ``(start, end, label)`` — the six step windows, in step order.
    steps: list[tuple[float, float, str]] = field(default_factory=list)
    #: ``(t, kind, detail)`` — chaos injections this worker survived
    #: (``slow``/``mute``/``hang``; a kill leaves no trace by definition).
    faults: list[tuple[float, str, str]] = field(default_factory=list)
    #: Pool job this trace belongs to (0 outside pooled streams).  A
    #: persistent worker records one fresh WorkerTrace per job — the
    #: clock-offset handshake reruns each time, so pooled traces stay
    #: aligned even as the process clocks drift between jobs.
    job_id: int = 0


class WorkerTracer:
    """In-worker recorder; exists only when the parent requested tracing.

    Hot-path cost is one tuple append per event.  The worker's
    :class:`~repro.parallel.collectives.WorkerLink` records its blocking
    waits here, the exchange loop its shm writes; the six step windows
    are added at the end from the step boundaries the worker measures
    anyway.
    """

    __slots__ = ("trace",)

    def __init__(self, rank: int, job_id: int = 0) -> None:
        self.trace = WorkerTrace(rank=rank, job_id=job_id)

    def wait(self, kind: str, label: str, start: float, end: float) -> None:
        """One blocking collective interval (``recv-wait``/``barrier-wait``)."""
        self.trace.spans.append((start, end - start, kind, label))

    def flow(
        self, dst: int, nbytes: int, offset_bytes: int, start: float, end: float
    ) -> None:
        """One (this rank → ``dst``) shared-memory all-to-all run."""
        self.trace.flows.append((dst, nbytes, offset_bytes, start, end))

    def counter(self, name: str, value: float) -> None:
        self.trace.counters.append((time.perf_counter(), name, value))  # repro: noqa[R002] — real backend: counter timestamps are measured data

    def step(self, start: float, end: float, label: str) -> None:
        """One of the six step windows (from the measured boundaries)."""
        self.trace.steps.append((start, end, label))

    def fault(self, kind: str, detail: str = "") -> None:
        """One chaos injection this worker lived through (slow/mute/hang)."""
        self.trace.faults.append((time.perf_counter(), kind, detail))  # repro: noqa[R002] — real backend: fault timestamps are measured data


def estimate_clock_offset(probe, attempts: int = 5) -> tuple[float, float]:
    """NTP-style offset of this process's clock from the hub's.

    ``probe()`` must round-trip to the hub and return the hub's
    ``perf_counter`` reading at serve time.  For each attempt the midpoint
    estimate is ``hub_t - (t0 + t1) / 2``; the estimate from the
    minimum-round-trip attempt wins (shortest pipe transit ⇒ tightest
    bound).  Returns ``(offset, rtt)``: add ``offset`` to local times to
    get hub times; ``rtt`` bounds the residual error.
    """
    best_offset = 0.0
    best_rtt = float("inf")
    for _ in range(max(attempts, 1)):
        t0 = time.perf_counter()  # repro: noqa[R002] — real backend: the clock-sync handshake IS a clock read
        hub_t = probe()
        t1 = time.perf_counter()  # repro: noqa[R002] — real backend: the clock-sync handshake IS a clock read
        rtt = t1 - t0
        if rtt < best_rtt:
            best_rtt = rtt
            best_offset = hub_t - (t0 + t1) / 2.0
    return best_offset, best_rtt


def peak_rss_bytes() -> int:
    """This process's peak resident set size, in bytes (0 if unavailable).

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; normalized
    here so :class:`~repro.obs.report.RunReport` always reports bytes.
    """
    try:
        import resource
    except ImportError:  # non-POSIX: report unmeasured rather than guess
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


def merge_worker_traces(
    traces: Iterable[WorkerTrace],
    *,
    num_ranks: int,
    base_time: float,
    makespan: float,
    name: str = "process",
    driver_counters: Iterable[tuple[float, str, float]] = (),
):
    """Assemble per-worker payloads into one simnet-schema ``Tracer``.

    Every event time is shifted by ``clock_offset - base_time`` so all
    worker timelines share the hub clock with t=0 at the driver's sort
    start, then clamped at zero (clock-sync residue must never push an
    event before the run began).  Durations are local differences, so
    they are never negative regardless of offset quality.

    ``driver_counters`` are parent-side samples (e.g. ``SharedArena``
    pool/lease accounting) already on the hub clock; they land on the
    driver's own track (rank -1 is not addressable in the trace format,
    so they ride rank 0, named ``arena.*``).
    """
    from ..obs.tracer import Tracer

    tracer = Tracer(name=name)
    tracer.num_ranks = num_ranks
    flows: list[tuple[float, float, int, int, int, int]] = []
    for trace in traces:
        shift = trace.clock_offset - base_time
        for start, end, label in trace.steps:
            tracer.span(
                trace.rank, max(start + shift, 0.0), end - start, "phase", label
            )
        for start, duration, kind, label in trace.spans:
            tracer.span(trace.rank, max(start + shift, 0.0), duration, kind, label)
        for t, cname, value in trace.counters:
            tracer.counter(trace.rank, max(t + shift, 0.0), cname, value)
        for t, kind, detail in trace.faults:
            tracer.fault(trace.rank, max(t + shift, 0.0), kind, detail=detail)
        for dst, nbytes, offset_bytes, start, end in trace.flows:
            flows.append(
                (
                    max(start + shift, 0.0),
                    max(end + shift, 0.0),
                    trace.rank,
                    dst,
                    nbytes,
                    offset_bytes,
                )
            )
    # Cluster-wide injection order keeps flow ids stable and readable.
    flows.sort()
    for inject_t, deliver_t, src, dst, nbytes, offset_bytes in flows:
        tracer.shm_flow(
            src, dst, nbytes, inject_t, max(deliver_t, inject_t), offset=offset_bytes
        )
    for t, cname, value in driver_counters:
        tracer.counter(0, max(t - base_time, 0.0), cname, value)
    tracer.finish(makespan)
    return tracer


# --------------------------------------------------------- live progress

#: Stack of ambient progress sinks (innermost wins), mirroring the
#: ambient-backend/capture pattern used everywhere else in the repo.
_PROGRESS: list[ProgressFn] = []


def ambient_progress() -> ProgressFn | None:
    """The innermost active progress sink, or None."""
    return _PROGRESS[-1] if _PROGRESS else None


@contextmanager
def use_progress(callback: ProgressFn):
    """Scope a live heartbeat sink (the experiments CLI's ``--progress``).

    While active, every :class:`~repro.parallel.backend.ProcessBackend`
    sort forwards worker heartbeats — ``(rank, step_label, rows)`` at
    each step boundary — to ``callback`` as the hub receives them.
    """
    _PROGRESS.append(callback)
    try:
        yield callback
    finally:
        _PROGRESS.remove(callback)

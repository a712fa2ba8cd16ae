"""Structured tracing & telemetry for the simulated cluster.

The simulator records *typed* events through a
:class:`~repro.obs.tracer.Tracer`:

* :class:`~repro.obs.events.SpanEvent` — one interval of rank activity
  (compute, send occupancy, recv/barrier wait, or a labelled phase);
* :class:`~repro.obs.events.FlowEvent` — one message with a cluster-unique
  id, src/dst ranks, tag, modeled bytes, and inject/deliver times, pairing
  every send to its delivery across ranks;
* :class:`~repro.obs.events.CounterSample` — a sampled numeric series
  (memory pools, NIC queueing, bytes in flight).

The engine records these only when a tracer is attached — the disabled
path is a single ``is not None`` test per operation, and recording never
feeds back into the run, so a traced run is bit-identical to an untraced
one (the golden determinism fingerprint attaches a tracer and counts its
events per rank).

On top of the raw events:

* :mod:`repro.obs.perfetto` exports Chrome-trace-event JSON (one track per
  rank, flow arrows for every message) loadable in https://ui.perfetto.dev;
* :mod:`repro.obs.report` condenses a run into a :class:`RunReport`
  artifact (per-step wall/compute/wait/bytes and peaks per rank);
* :mod:`repro.obs.context` provides :func:`capture`, a context manager
  that attaches a fresh tracer to every simulator built inside it — how
  the experiments CLI implements ``--trace-out`` / ``--report-out``.
"""

from .context import Capture, Session, active_capture, capture
from .events import CounterSample, FlowEvent, SpanEvent
from .perfetto import chrome_trace_events, export_chrome_trace
from .report import RankReport, RunReport, StepStats, capture_run_report
from .tracer import Tracer

__all__ = [
    "Capture",
    "CounterSample",
    "FlowEvent",
    "RankReport",
    "RunReport",
    "Session",
    "SpanEvent",
    "StepStats",
    "Tracer",
    "active_capture",
    "capture",
    "capture_run_report",
    "chrome_trace_events",
    "export_chrome_trace",
]

"""RunReport: the per-run observability artifact.

A :class:`RunReport` condenses one simulated run into the quantities the
paper's whole evaluation is made of — per-step wall/compute/wait seconds,
bytes and message counts, and peak memory, all per rank, plus the
cluster-level totals — and serializes to JSON so every experiment can emit
a comparable artifact (``repro-experiments ... --report-out report.json``).

Wall times per step come from the sorter's measured step boundaries when
available (``SortResult.step_seconds``), otherwise from the tracer's phase
spans (``Mark`` begin/end pairs).  Compute per step comes from the labelled
compute metrics; ``wait`` is the non-compute remainder of the step (recv /
barrier blocking plus send occupancy).  Per-step bytes and message counts
are attributed by intersecting each flow's injection time with the source
rank's phase spans, which needs a tracer; without one they are zero.

Every rank also reports ``partition_keys``, the keys the sort left on it,
and the report their ``imbalance`` (largest over mean partition, Table
II's quantity): the counts matrix's column for the rank, which simnet
records as step 6 merges it and the pool reads after the run.

Reports are deterministic for a fixed-seed run — the ``run_report_p16``
golden (:data:`repro.analysis.determinism.GOLDENS`) locks the p=16 report
the same way the engine fingerprint locks virtual times.

Modeled vs measured fields
--------------------------

The same schema serves both backends, but the numbers mean different
things.  Under ``simnet`` every quantity is **modeled**: times are virtual
seconds from the cost model, bytes are post-``data_scale`` wire charges,
and peak memory is the ``MemoryTracker``'s pool accounting.  Under the
process backend every time is **measured** wall clock: step walls are the
worker's own ``perf_counter`` boundaries, waits are clocked inside the
blocking collectives, compute is their difference, flow bytes are the
actual shm write sizes, and ``peak_resident_bytes`` is the worker
process's real ``ru_maxrss`` — only ``peak_temporary_bytes`` (no real
counterpart; 0) and the modeled network series stay sim-only.  Real
reports are therefore machine-dependent and never golden-snapshotted;
the schema-equality test pins that both backends emit identical keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..simnet.metrics import ClusterMetrics
from .tracer import Tracer

SCHEMA = "repro.run-report/1"


@dataclass
class StepStats:
    """One step of the pipeline on one rank."""

    #: Elapsed virtual seconds between the step's begin and end boundaries.
    wall: float = 0.0
    #: Labelled compute seconds charged to the step.
    compute: float = 0.0
    #: Non-compute remainder of the step (blocking waits + send occupancy).
    wait: float = 0.0
    #: Modeled bytes this rank injected during the step (tracer required).
    bytes_sent: int = 0
    #: Messages this rank injected during the step (tracer required).
    messages_sent: int = 0


@dataclass
class RankReport:
    """Per-rank snapshot of one run."""

    rank: int
    steps: dict[str, StepStats] = field(default_factory=dict)
    send_seconds: float = 0.0
    recv_wait_seconds: float = 0.0
    barrier_wait_seconds: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    peak_resident_bytes: int = 0
    peak_temporary_bytes: int = 0
    #: Fault-injection accounting (retries/timeouts/drops/crashed).
    #: None on fault-free runs — the key is then absent from the JSON, so
    #: golden report snapshots predating fault injection stay bit-identical.
    faults: dict[str, Any] | None = None
    #: Why this rank, on either substrate, was off the fastest path:
    #: ``"packed"`` (the job's key frame did not fit: keys + perm were
    #: exchanged and k-way merged) or ``"stable"`` (step 1 also ran the
    #: stable argsort).  None — key absent from the JSON, like ``faults``
    #: — on the word path.
    local_sort_path: str | None = None
    #: Keys the sort left on this rank (its output partition).
    partition_keys: int = 0


@dataclass
class RunReport:
    """Cluster-wide run summary with per-rank, per-step detail."""

    num_ranks: int
    makespan_seconds: float
    remote_bytes: int
    local_bytes: int
    messages: int
    communication_seconds: float
    communication_fraction: float
    ranks: list[RankReport] = field(default_factory=list)
    schema: str = SCHEMA

    # ------------------------------------------------------------ queries

    @property
    def imbalance(self) -> float:
        """Largest over mean partition (``SortResult.imbalance``); 1.0 is
        perfect balance, and so is a run that sorted nothing."""
        sizes = [rr.partition_keys for rr in self.ranks]
        total = sum(sizes)
        return max(sizes) / (total / len(sizes)) if total else 1.0

    def step_breakdown(self) -> dict[str, float]:
        """Max-over-ranks wall seconds per step (Figure-7 shape)."""
        out: dict[str, float] = {}
        for rr in self.ranks:
            for label, stats in rr.steps.items():
                out[label] = max(out.get(label, 0.0), stats.wall)
        return out

    # -------------------------------------------------------- assembly

    @classmethod
    def from_metrics(
        cls,
        metrics: ClusterMetrics,
        tracer: Tracer | None = None,
        step_seconds: list[dict[str, float]] | None = None,
    ) -> "RunReport":
        """Build a report from cluster metrics (+ optional tracer detail).

        ``step_seconds`` — one ``{label: wall}`` dict per rank, as produced
        by the sort program — takes precedence for step walls; otherwise
        walls come from the tracer's phase spans; otherwise each step's
        wall degrades to its compute time.
        """
        ranks: list[RankReport] = []
        for proc in metrics.processes:
            walls: dict[str, float] = {}
            if step_seconds is not None:
                walls = dict(step_seconds[proc.rank])
            elif tracer is not None:
                for span in tracer.phase_spans(proc.rank):
                    walls[span.label] = walls.get(span.label, 0.0) + span.duration
            labels = list(walls) if walls else sorted(proc.phase_seconds)
            steps: dict[str, StepStats] = {}
            for label in labels:
                compute = proc.phase_seconds.get(label, 0.0)
                wall = walls.get(label, compute)
                steps[label] = StepStats(
                    wall=wall, compute=compute, wait=max(wall - compute, 0.0)
                )
            if tracer is not None:
                _attribute_flows(tracer, proc.rank, steps)
            fault_stats = {
                "retries": proc.retries,
                "timeouts": proc.timeouts,
                "messages_dropped": proc.messages_dropped,
                "crashed": proc.crashed,
            }
            ranks.append(
                RankReport(
                    rank=proc.rank,
                    steps=steps,
                    send_seconds=proc.send_seconds,
                    recv_wait_seconds=proc.recv_wait_seconds,
                    barrier_wait_seconds=proc.barrier_wait_seconds,
                    bytes_sent=proc.bytes_sent,
                    bytes_received=proc.bytes_received,
                    messages_sent=proc.messages_sent,
                    messages_received=proc.messages_received,
                    peak_resident_bytes=proc.memory.peak_resident,
                    peak_temporary_bytes=proc.memory.peak_temporary,
                    faults=fault_stats if any(fault_stats.values()) else None,
                    local_sort_path=proc.local_sort_path,
                    partition_keys=proc.partition_keys,
                )
            )
        return cls(
            num_ranks=len(metrics.processes),
            makespan_seconds=metrics.makespan,
            remote_bytes=metrics.remote_bytes,
            local_bytes=metrics.local_bytes,
            messages=metrics.messages,
            communication_seconds=metrics.communication_seconds(),
            communication_fraction=metrics.communication_fraction(),
            ranks=ranks,
        )

    @classmethod
    def from_sort_result(cls, result, tracer: Tracer | None = None) -> "RunReport":
        """Report for a :class:`repro.core.result.SortResult`."""
        return cls.from_metrics(
            result.metrics, tracer=tracer, step_seconds=result.step_seconds
        )

    @classmethod
    def from_backend_run(cls, run, tracer: Tracer | None = None) -> "RunReport":
        """Report for a :class:`repro.parallel.run.BackendRun`: the report
        of its :class:`~repro.core.result.SortResult`.

        All-measured variant: walls are the workers' step boundaries,
        compute/wait splits come from the measured collective blocking, and
        peak RSS from the worker processes (see the module docstring's
        modeled-vs-measured table).
        """
        return cls.from_sort_result(run.to_sort_result(), tracer=tracer)

    # ---------------------------------------------------- serialization

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "num_ranks": self.num_ranks,
            "makespan_seconds": self.makespan_seconds,
            "remote_bytes": self.remote_bytes,
            "local_bytes": self.local_bytes,
            "messages": self.messages,
            "communication_seconds": self.communication_seconds,
            "communication_fraction": self.communication_fraction,
            "imbalance": self.imbalance,
            "ranks": [
                {
                    "rank": rr.rank,
                    "steps": {
                        label: {
                            "wall": s.wall,
                            "compute": s.compute,
                            "wait": s.wait,
                            "bytes_sent": s.bytes_sent,
                            "messages_sent": s.messages_sent,
                        }
                        for label, s in sorted(rr.steps.items())
                    },
                    "send_seconds": rr.send_seconds,
                    "recv_wait_seconds": rr.recv_wait_seconds,
                    "barrier_wait_seconds": rr.barrier_wait_seconds,
                    "bytes_sent": rr.bytes_sent,
                    "bytes_received": rr.bytes_received,
                    "messages_sent": rr.messages_sent,
                    "messages_received": rr.messages_received,
                    "peak_resident_bytes": rr.peak_resident_bytes,
                    "peak_temporary_bytes": rr.peak_temporary_bytes,
                    "partition_keys": rr.partition_keys,
                    # the faults key exists only on fault-injected runs
                    **({"faults": rr.faults} if rr.faults is not None else {}),
                    **(
                        {"local_sort_path": rr.local_sort_path}
                        if rr.local_sort_path is not None
                        else {}
                    ),
                }
                for rr in self.ranks
            ],
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "RunReport":
        ranks = []
        for entry in doc["ranks"]:
            steps = {
                label: StepStats(
                    wall=s["wall"],
                    compute=s["compute"],
                    wait=s["wait"],
                    bytes_sent=s["bytes_sent"],
                    messages_sent=s["messages_sent"],
                )
                for label, s in entry["steps"].items()
            }
            fields = {k: v for k, v in entry.items() if k != "steps"}
            ranks.append(RankReport(steps=steps, **fields))
        return cls(
            num_ranks=doc["num_ranks"],
            makespan_seconds=doc["makespan_seconds"],
            remote_bytes=doc["remote_bytes"],
            local_bytes=doc["local_bytes"],
            messages=doc["messages"],
            communication_seconds=doc["communication_seconds"],
            communication_fraction=doc["communication_fraction"],
            ranks=ranks,
            schema=doc["schema"],
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RunReport":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _attribute_flows(tracer: Tracer, rank: int, steps: dict[str, StepStats]) -> None:
    """Charge each flow injected by ``rank`` to the step span containing it.

    Only phase spans whose label is a known step participate; when spans
    nest, the shortest (innermost) containing span wins.
    """
    windows = [
        (span.start, span.end, span.duration, span.label)
        for span in tracer.phase_spans(rank)
        if span.label in steps
    ]
    if not windows:
        return
    for flow in tracer.flows:
        if flow.src != rank:
            continue
        best: str | None = None
        best_dur = float("inf")
        for start, end, duration, label in windows:
            if start <= flow.inject_t <= end and duration < best_dur:
                best, best_dur = label, duration
        if best is not None:
            steps[best].bytes_sent += flow.nbytes
            steps[best].messages_sent += 1


def capture_run_report(workload: dict[str, Any], backend: str | None = None):
    """Sort a golden workload's keys under capture; return (report, tracer).

    ``workload`` holds ``num_ranks``, ``n_keys`` and ``seed``
    (:func:`repro.analysis.determinism.golden_keys`); at the p=16 workload
    the report is the ``run_report_p16`` golden.  ``backend="process"``
    runs the same workload on real worker processes instead — same report
    schema, measured wall-clock numbers (machine-dependent, never golden).
    """
    from ..analysis.determinism import golden_keys
    from ..core.api import distributed_sort
    from .context import capture

    num_ranks = workload["num_ranks"]
    data = golden_keys(workload)
    with capture(name=f"sort-p{num_ranks}") as cap:
        result = distributed_sort(data, num_processors=num_ranks, backend=backend)
    tracer = cap.sessions[-1].tracer
    return RunReport.from_sort_result(result, tracer=tracer), tracer


if __name__ == "__main__":  # pragma: no cover - artifact CLI
    import argparse
    import sys

    from ..analysis.determinism import P16_WORKLOAD
    from ..parallel.backend import BACKENDS
    from .perfetto import export_chrome_trace

    parser = argparse.ArgumentParser(
        description="Capture the fixed-seed p=16 sort; emit report/trace artifacts."
    )
    parser.add_argument("--ranks", type=int, default=P16_WORKLOAD["num_ranks"])
    parser.add_argument("--keys", type=int, default=P16_WORKLOAD["n_keys"])
    parser.add_argument("--seed", type=int, default=P16_WORKLOAD["seed"])
    parser.add_argument(
        "--backend",
        choices=tuple(BACKENDS),
        default=None,
        help="execution substrate (default: ambient, i.e. simnet)",
    )
    parser.add_argument(
        "--report-out", default="-", help="run-report JSON path ('-': stdout)"
    )
    parser.add_argument("--trace-out", default=None, help="Perfetto trace path")
    args = parser.parse_args()
    workload = {"num_ranks": args.ranks, "n_keys": args.keys, "seed": args.seed}
    report, tracer = capture_run_report(workload, backend=args.backend)
    if args.trace_out:
        export_chrome_trace(tracer, args.trace_out)
    if args.report_out == "-":
        json.dump(report.to_json(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    else:
        report.save(args.report_out)

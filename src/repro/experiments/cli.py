"""Command-line entry point: ``repro-experiments [names...]``.

Runs the requested experiments (default: all) at the scale chosen by
``--scale`` or the ``REPRO_SCALE`` environment variable, printing each
paper-shaped table — or, with ``--json``, machine-readable structured
results for downstream tooling.

Observability: ``--trace-out trace.json`` writes a Perfetto-loadable trace
of every simulation the selected experiments ran, and ``--report-out
report.json`` writes the matching run reports (see :mod:`repro.obs`).
Both flags work for *all* experiments — simulators pick the tracer up from
the ambient capture scope, no per-experiment plumbing.

Backends: ``--backend process`` installs the real-parallel process backend
as the ambient default for every sort an experiment runs (see
:mod:`repro.parallel`); the default ``simnet`` keeps the virtual-time
simulator.  Outputs are bit-identical either way — only the clock and the
hardware differ.  ``--trace-out``/``--report-out`` work on both: process
runs merge their per-worker payloads into the same trace/report schema.
``--progress`` (process backend only) streams every worker's step-boundary
heartbeat to stderr as the control-plane hub receives it.

Correctness: ``--sanitize`` runs every simulation under SimSan
(:mod:`repro.simnet.sanitizer` — use-after-Isend, leaked requests,
unmatched messages), printing the report summary to stderr and exiting
non-zero on violations; ``--sanitize-out simsan.json`` additionally writes
the structured report.  Attachment is ambient, exactly like the tracer.
With ``--backend process`` the same flag also arms ShmSan
(:mod:`repro.parallel.shmsan`), the happens-before race detector for the
shared-memory exchange; the ``--sanitize-out`` document then nests both
reports as ``{"simsan": ..., "shmsan": ...}``.

Robustness: ``--chaos SPEC`` (process backend only) injects deterministic
process-level faults — SIGKILLed ranks, hung collectives, delayed control
replies, muted heartbeats, slow ranks — from a seeded
:class:`~repro.parallel.chaos.RealFaultPlan` (``--chaos-seed`` picks the
schedule).  An active plan arms the backend's default
:class:`~repro.parallel.retry.RetryPolicy`, so killed jobs retry and
repeatedly-dying ranks degrade to the survivor set instead of failing the
experiment; the simnet twin of this flag is ``--faults``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import EXPERIMENTS
from .common import current_scale


def _jsonable(obj):
    """Recursively convert experiment result objects to JSON-safe values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on the simulated cluster.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        help=f"experiments to run (default: all). Known: {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--scale",
        default=None,
        choices=["smoke", "default", "full"],
        help="experiment scale preset (default: REPRO_SCALE or 'default')",
    )
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit structured results as JSON instead of tables",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Perfetto/Chrome trace of every simulation run",
    )
    parser.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="write structured run reports (JSON) for every simulation run",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run every simulation under SimSan; exit non-zero on violations",
    )
    parser.add_argument(
        "--sanitize-out",
        default=None,
        metavar="PATH",
        help="write the SimSan report JSON (implies --sanitize)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "inject faults into every simulation, e.g. "
            "'drop=0.05,dup=0.01,crash=3@0.0005' "
            "(see repro.simnet.faults.FaultPlan.from_spec)"
        ),
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the fault schedule's RNG (default: 0)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=["simnet", "process"],
        help=(
            "execution substrate for every sort: 'simnet' (virtual time, "
            "the default) or 'process' (one OS process per rank with a "
            "shared-memory exchange; identical outputs, wall-clock timing)"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "stream per-worker step heartbeats (rank, step, rows) to stderr "
            "— live visibility into process-backend sorts"
        ),
    )
    parser.add_argument(
        "--pool",
        action="store_true",
        help=(
            "with --backend process: serve every sort from one persistent "
            "worker pool (amortized spawn, warm shm arenas, splitter-cache "
            "reuse across sorts) and print the pool's job/cache counters "
            "at the end"
        ),
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help=(
            "with --backend process: deterministic process-level fault "
            "injection (kill=RANK@STEP[:JOB], poison=RANK, hang=RANK@OP"
            "[:JOB], delay=P[:SPIKE], mute=RANK, slow=RANKxMULT, "
            "comma-separated); failed jobs are retried and poisoned ranks "
            "degraded per the default RetryPolicy"
        ),
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the chaos schedule's RNG (default: 0)",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    names = args.names or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; use --list")
    scale = current_scale(args.scale)
    observing = bool(args.trace_out or args.report_out)
    captures: list = []  # (experiment name, Capture)

    pool_backend = None
    if args.pool:
        if args.backend != "process":
            parser.error("--pool requires --backend process")
        from ..parallel.backend import ProcessBackend

        pool_backend = ProcessBackend()

    sanitizer = None
    shm_sanitizer = None
    if args.sanitize or args.sanitize_out:
        from ..simnet.sanitizer import SimSan

        sanitizer = SimSan()
        if args.backend == "process":
            from ..parallel.shmsan import ShmSan

            shm_sanitizer = ShmSan()

    fault_plan = None
    if args.faults is not None:
        from ..simnet.faults import FaultPlan

        fault_plan = FaultPlan.from_spec(args.faults, seed=args.fault_seed)
        print(f"[faults: {fault_plan.describe()}]", file=sys.stderr)

    chaos_plan = None
    if args.chaos is not None:
        if args.backend != "process":
            parser.error("--chaos requires --backend process")
        from ..parallel.chaos import RealFaultPlan

        chaos_plan = RealFaultPlan.from_spec(args.chaos, seed=args.chaos_seed)
        print(f"[chaos: {chaos_plan.describe()}]", file=sys.stderr)

    def run_observed(name, fn):
        from contextlib import ExitStack

        with ExitStack() as stack:
            if sanitizer is not None:
                from ..simnet.sanitizer import sanitize

                stack.enter_context(sanitize(sanitizer))
            if shm_sanitizer is not None:
                from ..parallel.shmsan import shm_sanitize

                stack.enter_context(shm_sanitize(shm_sanitizer))
            if fault_plan is not None:
                from ..simnet.faults import inject_faults

                stack.enter_context(inject_faults(fault_plan))
            if chaos_plan is not None:
                from ..parallel.chaos import inject_real_faults

                stack.enter_context(inject_real_faults(chaos_plan))
            if pool_backend is not None:
                # The shared pool IS the ambient backend: every sorter
                # the experiment builds dispatches to the same warm
                # workers.  The scope never closes it; main() does.
                from ..parallel.backend import use_backend

                stack.enter_context(use_backend(pool_backend))
            elif args.backend is not None:
                from ..parallel.backend import use_backend

                stack.enter_context(use_backend(args.backend))
            if args.progress:
                from ..parallel.tracing import use_progress

                stack.enter_context(use_progress(_print_progress))
            cap = None
            if observing:
                from ..obs.context import capture

                cap = stack.enter_context(capture(name=name))
            out = fn()
        if cap is not None:
            captures.append((name, cap))
        return out

    if args.json:
        payload = {}
        for name in names:
            result = run_observed(name, lambda: EXPERIMENTS[name].run(scale))
            payload[name] = _jsonable(result)
        print(json.dumps(payload, indent=2))
        _write_artifacts(args.trace_out, args.report_out, captures)
        _close_pool(pool_backend)
        return _finish_sanitized(sanitizer, shm_sanitizer, args.sanitize_out)
    for name in names:
        module = EXPERIMENTS[name]
        start = time.perf_counter()  # repro: noqa[R002] — wall time of the regeneration itself, never enters a simulation
        print(f"== {name} ".ljust(72, "="))
        print(run_observed(name, lambda: module.main(scale)))
        elapsed = time.perf_counter() - start  # repro: noqa[R002] — same: display-only wall timing
        print(f"[{name} regenerated in {elapsed:.1f}s wall]\n")
    _write_artifacts(args.trace_out, args.report_out, captures)
    _close_pool(pool_backend)
    return _finish_sanitized(sanitizer, shm_sanitizer, args.sanitize_out)


def _print_progress(rank: int, step: str, rows: int) -> None:
    """The ``--progress`` sink: one stderr line per worker heartbeat."""
    print(f"[progress r{rank} -> {step} ({rows} rows)]", file=sys.stderr)


def _close_pool(pool_backend) -> None:
    """Retire the ``--pool`` backend and surface its counters."""
    if pool_backend is None:
        return
    stats = pool_backend.stats
    pool_backend.close()
    print(f"[pool: {json.dumps(stats)}]", file=sys.stderr)


def _finish_sanitized(sanitizer, shm_sanitizer, sanitize_out) -> int:
    """Report sanitizer findings; non-zero exit on any violation.

    Simnet-only runs keep the bare SimSan report document; process-backend
    runs (where ShmSan is armed too) nest both reports so downstream
    tooling can tell the comm-layer findings from the shm-race findings.
    """
    if sanitizer is None:
        return 0
    if sanitize_out:
        doc = sanitizer.report.to_json()
        if shm_sanitizer is not None:
            doc = {
                "simsan": sanitizer.report.to_json(),
                "shmsan": shm_sanitizer.report.to_json(),
            }
        with open(sanitize_out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"[sanitizer report -> {sanitize_out}]", file=sys.stderr)
    print(sanitizer.report.summary(), file=sys.stderr)
    ok = sanitizer.report.ok
    if shm_sanitizer is not None:
        print(shm_sanitizer.report.summary(), file=sys.stderr)
        ok = ok and shm_sanitizer.report.ok
    return 0 if ok else 1


def _write_artifacts(trace_out, report_out, captures) -> None:
    """Write the Perfetto trace and/or run-report set for captured runs."""
    if not (trace_out or report_out):
        return
    from ..obs.perfetto import export_chrome_trace
    from ..obs.report import RunReport

    if trace_out:
        tracers = [t for _, cap in captures for t in cap.tracers]
        export_chrome_trace(tracers, trace_out)
        print(f"[trace: {len(tracers)} simulation(s) -> {trace_out}]", file=sys.stderr)
    if report_out:
        reports = []
        for name, cap in captures:
            for i, session in enumerate(cap.sessions):
                sim = session.simulator
                if not getattr(sim, "_ran", False):
                    continue  # constructed but never run
                report = RunReport.from_metrics(
                    sim.metrics(),
                    tracer=session.tracer,
                    # Process-backend sessions carry measured per-rank step
                    # walls; simulators don't (their reports derive walls
                    # from the tracer's phase spans as before).
                    step_seconds=getattr(sim, "step_seconds", None),
                )
                reports.append(
                    {"experiment": name, "session": i, "report": report.to_json()}
                )
        doc = {"schema": "repro.run-report-set/1", "reports": reports}
        with open(report_out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"[reports: {len(reports)} run(s) -> {report_out}]", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

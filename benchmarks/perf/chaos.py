"""Chaos sweep: the seeded fault-schedule matrix over the simulated sort.

Runs every schedule from :func:`repro.faults.chaos_schedules` — drops,
delay spikes, a slow node, link degradation, step-addressed rank kills
(a worker entering the exchange, the Master entering splitter
selection, a rank poisoned from step 1) and a mixed plan — through the
end-to-end sort with
SimSan attached, and enforces the failure contract: every schedule
returns all ``len(data)`` keys, sorted, with provenance round-tripping
to the input and ``survivors`` naming exactly the ranks not dropped,
**or** raises a typed ``SimError`` — never fewer keys, never a hang.  A
reproducibility pass re-runs the first few schedules and fails if the
fault-event sequence diverges.

One JSON artifact (``--json-out``) records per-schedule outcomes — the
attempts the retry layer made, the survivors, the full fault-event
stream and per-rank retry/drop/crash counters; the CI ``faults`` job
uploads it so a red run is debuggable from the artifact alone::

    PYTHONPATH=src python benchmarks/perf/chaos.py --json-out chaos_report.json

Everything is virtual-time simulation: the whole matrix takes seconds of
wall clock, so this doubles as the perf hook keeping the chaos job well
under its CI time budget.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.api import DistributedSorter  # noqa: E402
from repro.obs.context import capture  # noqa: E402
from repro.obs.report import RunReport  # noqa: E402
from repro.faults import chaos_schedules  # noqa: E402
from repro.simnet import sanitize  # noqa: E402
from repro.simnet.errors import SimError  # noqa: E402

P = 8
N_KEYS = 32_000
DATA_SEED = 20260805
#: Schedules re-run to prove same-seed event-sequence reproducibility.
REPRO_CHECK_SCHEDULES = 3


def _event_tuples(tracer):
    return [
        (e.rank, round(e.time, 12), e.kind, e.src, e.dst, e.detail)
        for e in tracer.faults
    ]


def _run_one(plan, data):
    """One sanitized, traced run; returns (record, problems, events)."""
    sorter = DistributedSorter(num_processors=P, faults=plan)
    problems = []
    t0 = time.perf_counter()
    with capture(name="chaos") as cap:
        try:
            with sanitize() as san:
                result = sorter.sort(data)
            error = None
        except SimError as exc:
            result, error = None, exc
            san = None
    wall = time.perf_counter() - t0
    # One simulation per attempt of the retry layer; the last one sorted.
    tracer = cap.sessions[-1].tracer if cap.sessions else None
    events = [e for session in cap.sessions for e in _event_tuples(session.tracer)]
    record = {
        "wall_seconds": round(wall, 4),
        "attempts": len(cap.sessions),
        "fault_events": len(events),
    }

    if error is not None:
        record["status"] = f"typed-error:{type(error).__name__}"
        return record, problems, events

    record["status"] = "sorted"
    if san is not None and not san.report.ok:
        problems.append(f"sanitizer violations: {san.report.summary()}")

    survivors = list(result.survivors or range(P))
    record["survivors"] = survivors
    record["recovery_rounds"] = result.recovery_rounds
    record["total_keys"] = result.total_keys

    # --- the failure contract --------------------------------------------
    if result.total_keys != len(data):
        problems.append(f"lost keys: {result.total_keys} != {len(data)}")
    elif not np.array_equal(result.to_array(), np.sort(data)):
        problems.append("keys are not the sorted input")
    elif not np.array_equal(result.gather_values(data), result.to_array()):
        problems.append("provenance does not recover every key")
    for rank in set(range(P)) - set(survivors):
        if len(result.per_processor[rank]):
            problems.append(f"dropped rank {rank} still holds keys")

    report = RunReport.from_sort_result(result, tracer=tracer)
    counters = {
        str(rr.rank): rr.faults for rr in report.ranks if rr.faults is not None
    }
    record["rank_fault_counters"] = counters
    # Slow nodes and link degradation are continuous slowdowns, not
    # discrete events; only message-fate faults and kills must leave an
    # observable trace.
    eventful = bool(plan.drop_prob or plan.delay_prob or plan.kills or plan.poisoned)
    if eventful and not events and not counters:
        problems.append("eventful plan produced no fault events and no counters")
    return record, problems, events


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="write the fault-event artifact (per-schedule outcomes + events)",
    )
    args = parser.parse_args(argv)

    data = np.random.default_rng(DATA_SEED).integers(0, 50_000, N_KEYS)
    schedules = chaos_schedules()
    doc = {
        "schema": "repro.chaos-report/1",
        "num_processors": P,
        "n_keys": N_KEYS,
        "data_seed": DATA_SEED,
        "schedules": [],
    }
    failures = []

    for name, plan in schedules:
        record, problems, events = _run_one(plan, data)
        record = {"name": name, "spec": plan.describe(), **record}
        record["events"] = [
            {"rank": r, "t": t, "kind": k, "src": s, "dst": d, "detail": detail}
            for r, t, k, s, d, detail in events
        ]
        record["problems"] = problems
        doc["schedules"].append(record)
        failures.extend(f"{name}: {p}" for p in problems)
        flag = "FAIL" if problems else "ok"
        print(
            f"  {name:<18} {record['status']:<34} "
            f"events={record['fault_events']:<5} "
            f"wall={record['wall_seconds']:.2f}s  {flag}"
        )

    # --- same schedule + seed => same event sequence ----------------------
    for name, plan in schedules[:REPRO_CHECK_SCHEDULES]:
        _, _, first = _run_one(plan, data)
        _, _, second = _run_one(plan, data)
        if first != second:
            failures.append(f"{name}: fault-event sequence not reproducible")
        else:
            print(f"  {name:<18} event sequence reproducible ({len(first)} events)")

    doc["ok"] = not failures
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.json_out}")

    if failures:
        print("chaos sweep FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"chaos sweep: {len(schedules)} schedules, contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Real-backend chaos gate: kill-one-worker-per-job, every job recovers.

The process-backend twin of ``chaos.py``'s virtual-time sweep.  Streams a
pooled job mix through one :class:`~repro.parallel.ProcessBackend` at
``P`` ranks while a seeded :func:`~repro.faults.kill_one_per_job` plan
SIGKILLs one worker — round-robin — on every job's first attempt, with
ShmSan armed throughout, and enforces the recovery contract:

* every job completes via retry at full width, **bit-identical** to the
  single-process oracle (no silent corruption after a respawn);
* exactly one retry is paid per job (the plan fired, nothing degraded);
* ShmSan's happens-before analysis stays clean across every generation,
  crashed attempts included;
* a second scenario poisons one rank until the backend excludes it, and
  the survivor-degraded result must hold the same keys, globally sorted,
  with provenance still recovering every key's origin.

One JSON artifact (``--json-out``) records per-job outcomes and the
recovery counters; the CI ``faults`` job uploads it so a red run is
debuggable from the artifact alone::

    PYTHONPATH=src python benchmarks/perf/chaos_real.py --json-out chaos_real_report.json

Sized for CI: small jobs, tight backoff — the whole gate runs in well
under a minute of wall clock on 2 cores.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.api import partition_input  # noqa: E402
from repro.core.local_backend import local_sample_sort  # noqa: E402
from repro.faults import FaultPlan, inject_faults, kill_one_per_job  # noqa: E402
from repro.parallel import ProcessBackend, RetryPolicy  # noqa: E402
from repro.parallel.shmsan import shm_sanitize  # noqa: E402

P = 4
JOBS = 16
N_KEYS = 60_000
DATA_SEED = 20260809
#: Tight backoff: the gate exercises recovery machinery, not sleep.
POLICY = RetryPolicy(backoff_seconds=0.001, backoff_cap_seconds=0.01)


def _datasets(rng):
    """JOBS mixed datasets (uniform / duplicate-heavy / near-sorted)."""
    out = []
    for i in range(JOBS):
        kind = ("uniform", "duplicate_heavy", "near_sorted")[i % 3]
        if kind == "uniform":
            data = rng.integers(0, 1 << 40, N_KEYS).astype(np.int64)
        elif kind == "duplicate_heavy":
            data = rng.integers(0, 1_000, N_KEYS).astype(np.int64)
        else:
            data = np.sort(rng.integers(0, 1 << 40, N_KEYS).astype(np.int64))
            idx = rng.integers(0, N_KEYS, size=2 * (N_KEYS // 100))
            a, b = idx[::2], idx[1::2]
            data[a], data[b] = data[b], data[a]
        out.append((kind, data))
    return out


def run_kill_matrix(doc, failures):
    """Scenario 1: one SIGKILL per job, all recover at full width."""
    rng = np.random.default_rng(DATA_SEED)
    datasets = _datasets(rng)
    plan = kill_one_per_job(JOBS, P, seed=DATA_SEED)
    records = []
    t0 = time.perf_counter()
    with shm_sanitize() as san:
        with inject_faults(plan), ProcessBackend(retry=POLICY) as backend:
            for i, (kind, data) in enumerate(datasets):
                blocks = list(partition_input(data, P)[0])
                reference = local_sample_sort(blocks)
                start = time.perf_counter()
                run = backend.sort_blocks(blocks)
                wall = time.perf_counter() - start
                problems = []
                if run.retries != 1:
                    problems.append(
                        f"expected exactly 1 retry, saw {run.retries}"
                    )
                if run.survivors is not None:
                    problems.append("job degraded under a transient kill")
                for rank in range(P):
                    if not np.array_equal(
                        reference.per_processor[rank], run.outputs[rank].keys
                    ):
                        problems.append(
                            f"rank {rank} diverged from the oracle"
                        )
                        break
                records.append(
                    {
                        "job": i,
                        "kind": kind,
                        "killed_rank": i % P,
                        "retries": run.retries,
                        "wall_seconds": round(wall, 4),
                        "attempt_history": list(run.attempt_history),
                        "problems": problems,
                    }
                )
                failures.extend(f"kill job {i}: {p}" for p in problems)
                flag = "FAIL" if problems else "ok"
                print(
                    f"  job {i:>2} ({kind:<15}) kill rank {i % P} -> "
                    f"recovered in {wall:.2f}s  {flag}"
                )
            stats = backend.stats
    total_wall = time.perf_counter() - t0
    if stats["retries"] != JOBS:
        failures.append(
            f"pool counters: {stats['retries']} retries for {JOBS} jobs"
        )
    if not san.report.ok:
        failures.append(f"ShmSan violations: {san.report.summary()}")
    doc["kill_matrix"] = {
        "plan": plan.describe(),
        "jobs": records,
        "pool_stats": stats,
        "shmsan_ok": san.report.ok,
        "shmsan_runs": san.report.runs,
        "wall_seconds": round(total_wall, 3),
        "recovered_jobs_per_sec": round(JOBS / total_wall, 3),
    }
    print(
        f"  kill matrix: {JOBS}/{JOBS} recovered at "
        f"{JOBS / total_wall:.2f} jobs/s ({stats['respawns']} respawns, "
        f"ShmSan {'clean' if san.report.ok else 'VIOLATIONS'})"
    )


def run_poison_degradation(doc, failures):
    """Scenario 2: a poisoned rank is excluded, survivors re-plan."""
    rng = np.random.default_rng(DATA_SEED + 1)
    data = rng.integers(0, 1 << 40, N_KEYS).astype(np.int64)
    blocks, _ = partition_input(data, P)
    plan = FaultPlan.from_spec(f"poison={P - 1}", seed=DATA_SEED)
    problems = []
    t0 = time.perf_counter()
    with inject_faults(plan), ProcessBackend(retry=POLICY) as backend:
        run = backend.sort_blocks(list(blocks))
        result = run.to_sort_result()
        stats = backend.stats
    wall = time.perf_counter() - t0
    expected_survivors = tuple(range(P - 1))
    if result.survivors != expected_survivors:
        problems.append(
            f"survivors {result.survivors} != {expected_survivors}"
        )
    if not result.is_globally_sorted():
        problems.append("degraded result is not globally sorted")
    if not np.array_equal(result.to_array(), np.sort(data)):
        problems.append("degraded result lost or corrupted keys")
    if len(result.per_processor[P - 1]) != 0:
        problems.append("excluded rank still holds keys")
    gathered = result.gather_values(data)
    if not np.array_equal(gathered, result.to_array()):
        problems.append("provenance does not recover origins after re-plan")
    if stats["degraded_jobs"] != 1:
        problems.append(
            f"pool counters: degraded_jobs={stats['degraded_jobs']} != 1"
        )
    failures.extend(f"poison: {p}" for p in problems)
    doc["poison_degradation"] = {
        "plan": plan.describe(),
        "survivors": list(result.survivors or ()),
        "recovery_rounds": result.recovery_rounds,
        "retries": run.retries,
        "attempt_history": list(run.attempt_history),
        "pool_stats": stats,
        "wall_seconds": round(wall, 3),
        "problems": problems,
    }
    flag = "FAIL" if problems else "ok"
    print(
        f"  poison rank {P - 1}: survivors={list(result.survivors or ())} "
        f"rounds={result.recovery_rounds} retries={run.retries} "
        f"wall={wall:.2f}s  {flag}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="write the recovery artifact (per-job outcomes + counters)",
    )
    args = parser.parse_args(argv)

    doc = {
        "schema": "repro.chaos-real-report/1",
        "num_processors": P,
        "jobs": JOBS,
        "n_keys": N_KEYS,
        "data_seed": DATA_SEED,
    }
    failures = []
    run_kill_matrix(doc, failures)
    run_poison_degradation(doc, failures)
    doc["ok"] = not failures

    if args.json_out:
        Path(args.json_out).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.json_out}")
    if failures:
        print("real-backend chaos gate FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(
        f"real-backend chaos gate: {JOBS} killed jobs + 1 poisoned rank, "
        "recovery contract holds"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

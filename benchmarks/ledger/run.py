"""The perf ledger: 4 workloads, 7 end-to-end metrics, per-module layer metrics.

Two ways to run it, one set of measurements:

* ``python benchmarks/ledger/run.py --seed 11 [--out FILE]`` — the whole
  ledger.  3 plain passes of every workload (each pass of each workload in
  its own fresh subprocess, pass-major so a slow period of the machine
  hits at most one pass of a workload), one traced pass per workload, and
  the workload-independent layer battery.  Prints every metric by name
  with its unit; ``--out`` writes the JSON that ``compare.py`` reads.
* ``python benchmarks/ledger/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one workload, the form ``BENCHMARK.json`` declares.
  ``--trace 0`` reports the end-to-end metrics from 3 plain passes,
  ``--trace 1`` the per-layer metrics from one plain and one traced pass
  plus the battery.  The last stdout line is the result object.

Every timing is the median of the per-pass medians.  Every output is
checked against the ``local_sample_sort`` oracle, after every op, outside
the timed window.  See README.md for the tables and the noise floor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from workloads import LEDGER_DIR, OUT_DIR, REPO_ROOT, SPECS, WORKERS, prepare, scaled

from repro.core.sorter_labels import STEP_LABELS  # importable once workloads set sys.path

PASSES = 3
#: Timed seconds per driver run (all passes together); BENCHMARK.json's
#: ``run_seconds`` repeats it.
RUN_SECONDS = 12
CHILD_TIMEOUT_S = 170
TRACE_PATH = OUT_DIR / "ledger_trace.json"

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "keys_per_s": "keys/s",
    "slowdown_vs_npsort": "ratio",
    "imbalance": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "failed_share": "ratio",
}

#: Per-layer metrics measured on the workload itself.  One that a workload's
#: substrate does not have (pool counters on simnet, virtual time on the
#: process pool) is reported as 0.
WORKLOAD_LAYER_UNITS = {
    "packsort.fallback_share": "ratio",
    "oracle.op_p50_s": "s",
    "oracle.over_process": "ratio",
    **{f"worker.step.{label}_s": "s" for label in STEP_LABELS},
    "worker.wait_s": "s",
    "worker.minflt_per_op": "count",
    "worker.minflt_per_op.warmup": "count",
    "worker.sys_share": "ratio",
    "backend.dispatch_overhead_s": "s",
    "backend.driver_minflt_per_op": "count",
    "backend.driver_minflt_per_op.warmup": "count",
    "backend.driver_sys_s_per_op": "s",
    "backend.driver_sys_s_per_op.warmup": "s",
    "backend.splitter_cache_hit_ratio": "ratio",
    "backend.retries": "count",
    "backend.respawns": "count",
    "backend.orphan_workers": "count",
    "backend.speedup_w2_over_w1": "ratio",
    "tail.op_p90_s": "s",
    "tail.op_p99_s": "s",
    "simnet.virtual_makespan_s": "s",
    "simnet.messages": "count",
    "simnet.remote_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "shmsan.overhead_ratio": "ratio",
    "ledger.unattributed_share": "ratio",
}


# ------------------------------------------------------------ subprocesses


def shm_segments() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def run_child(script: str, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(LEDGER_DIR / script), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} {' '.join(args)} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(spec, prep: Path, budget_s: float, *, traced: bool, quick: bool) -> dict:
    """One pass in a fresh process, then the hygiene check on what it left."""
    before = shm_segments()
    args = [
        "--workload", spec.name, "--prep", str(prep),
        "--budget", repr(budget_s), "--traced", str(int(traced)),
    ]
    result = run_child("one_pass.py", *args, *(["--quick"] if quick else []))
    result["leaked_segments"] = len(shm_segments() - before)
    result["orphan_workers"] = sum(
        os.path.exists(f"/proc/{pid}") for pid in result["worker_pids"]
    )
    if not result["op_walls"]:
        raise RuntimeError(
            f"{spec.name}: no timed op succeeded: {result['failures']}"
        )
    return result


def run_battery(seed: int, quick: bool) -> dict:
    before = shm_segments()
    args = ["--seed", str(seed), *(["--quick"] if quick else [])]
    result = run_child("layers.py", *args)
    result["leaked_segments"] = len(shm_segments() - before)
    return result


# ---------------------------------------------------------------- reducing


def end_to_end(passes: list[dict]) -> dict:
    """The 7 end-to-end metrics: median (imbalance: max) over the passes."""

    def peak_rss(p: dict) -> float:
        return p["layer"].get("peak_rss_bytes", p["self_peak_rss_bytes"]) / 1e6

    per_pass = {
        "op_p50_s": [statistics.median(p["op_walls"]) for p in passes],
        "keys_per_s": [p["keys_sorted"] / sum(p["op_walls"]) for p in passes],
        "slowdown_vs_npsort": [
            statistics.median(p["op_walls"]) / statistics.median(p["npsort_walls"])
            for p in passes
        ],
        "imbalance": [p["imbalance"] for p in passes],
        "peak_rss_mb": [peak_rss(p) for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
        "failed_share": [p["failed"] / p["attempted"] for p in passes],
    }
    out = {}
    for name, values in per_pass.items():
        reduce = max if name == "imbalance" else statistics.median
        out[name] = {
            "value": reduce(values),
            "unit": END_TO_END_UNITS[name],
            "passes": values,
            "n": [len(p["op_walls"]) for p in passes],
        }
    out["failed_share"]["value"] = sum(p["failed"] for p in passes) / sum(
        p["attempted"] for p in passes
    )
    return out


def per_layer(plain: list[dict], traced: dict, oracle_walls: list[float]) -> dict:
    """Workload-specific layer metrics from the plain and the traced pass."""
    op_p50 = statistics.median(statistics.median(p["op_walls"]) for p in plain)
    values = {
        name: statistics.median(p["layer"][name] for p in plain)
        for name in plain[0]["layer"]
        if name in WORKLOAD_LAYER_UNITS
    }
    walls = np.concatenate([p["op_walls"] for p in plain])
    values["tail.op_p90_s"] = float(np.percentile(walls, 90))
    values["tail.op_p99_s"] = float(np.percentile(walls, 99))
    values["oracle.op_p50_s"] = statistics.median(oracle_walls)
    values["oracle.over_process"] = values["oracle.op_p50_s"] / op_p50
    values["backend.orphan_workers"] = float(
        sum(p["orphan_workers"] for p in [*plain, traced])
    )
    extras = traced["extras"]
    values["packsort.fallback_share"] = extras["packsort.fallback_share"]
    values["trace.spans"] = extras["trace.spans"]
    values["trace.overhead_ratio"] = statistics.median(traced["op_walls"]) / op_p50
    if "shmsan_walls" in extras:
        values["shmsan.overhead_ratio"] = (
            statistics.median(extras["shmsan_walls"]) / op_p50
        )
        values["backend.speedup_w2_over_w1"] = (
            statistics.median(extras["w1_walls"]) / op_p50
        )
    attributed = values.get("backend.dispatch_overhead_s", 0.0) + sum(
        v for name, v in values.items() if name.startswith("worker.step.")
    )
    values["ledger.unattributed_share"] = 1.0 - attributed / op_p50
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in WORKLOAD_LAYER_UNITS.items()
    }


def hygiene_failures(passes: list[dict]) -> int:
    return sum(p["leaked_segments"] + p["orphan_workers"] for p in passes)


# ------------------------------------------------------------- environment


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            sizes[f"L{level}"] = (index / "size").read_text().strip()
    return sizes


def environment(seed: int, fingerprints: dict[str, str]) -> dict:
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True
    )
    cpu_model = next(
        (
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        ),
        platform.processor(),
    )
    nproc = os.cpu_count() or 1
    return {
        "git_commit": git.stdout.strip() if git.returncode == 0 else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu_model,
        "nproc": nproc,
        "caches": cache_sizes(),
        "workers": WORKERS,
        "oversubscribed": nproc < WORKERS,
        "seed": seed,
        "data_fingerprints": fingerprints,
    }


# ------------------------------------------------------------------ output


def print_metrics(scope: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{scope:<13} {name:<38} {m['value']:>16.6g} {m['unit']}")


def write_trace(env: dict, spans: dict[str, list], reports: dict) -> None:
    TRACE_PATH.parent.mkdir(parents=True, exist_ok=True)
    TRACE_PATH.write_text(
        json.dumps(
            {
                "schema": "repro.ledger-trace/1",
                "env": env,
                "spans": spans,
                "run_reports": reports,
            }
        )
    )


def prep_path(spec, seed: int) -> Path:
    return OUT_DIR / f"prep_{spec.name}_{seed}_{os.getpid()}.npz"


def run_one_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> int:
    """The BENCHMARK.json form: one workload, result object on the last line."""
    spec = scaled(SPECS[name], quick)
    prep = prep_path(spec, seed)
    budget = seconds / PASSES
    try:
        fingerprint, oracle_walls = prepare(
            spec, seed, prep, extra_oracle_reps=2 if trace else 0
        )
        env = environment(seed, {name: fingerprint})
        if trace:
            plain = [run_pass(spec, prep, budget, traced=False, quick=quick)]
            traced = run_pass(spec, prep, budget, traced=True, quick=quick)
            battery = run_battery(seed, quick)
            passes = [*plain, traced]
            metrics = {**per_layer(plain, traced, oracle_walls), **battery["metrics"]}
            write_trace(
                env,
                {name: traced["spans"], "layers": battery["spans"]},
                {name: traced["run_report"]},
            )
            leaks = hygiene_failures(passes) + battery["leaked_segments"]
        else:
            passes = [
                run_pass(spec, prep, budget, traced=False, quick=quick)
                for _ in range(1 if quick else PASSES)
            ]
            metrics = end_to_end(passes)
            del metrics["failed_share"]  # carried by failed/attempted below
            leaks = hygiene_failures(passes)
    finally:
        prep.unlink(missing_ok=True)
    failed = sum(p["failed"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    if trace:
        metrics["failed_share"] = {"value": failed / attempted, "unit": "ratio"}
    print("env", json.dumps(env))
    print_metrics(name, metrics)
    for p in passes:
        for failure in p["failures"]:
            print("FAILED", failure)
    print(
        json.dumps(
            {
                "correct": failed == 0 and leaks == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()
                },
            }
        )
    )
    return 0


def run_ledger(seed: int, seconds: float, quick: bool, out: Path | None) -> int:
    """The whole ledger: every workload, plain and traced, plus the battery."""
    specs = [scaled(spec, quick) for spec in SPECS.values()]
    passes = 1 if quick else PASSES
    budget = seconds / PASSES
    preps = {spec.name: prep_path(spec, seed) for spec in specs}
    fingerprints, oracle_walls = {}, {}
    plain: dict[str, list[dict]] = {spec.name: [] for spec in specs}
    traced: dict[str, dict] = {}
    try:
        for spec in specs:
            fingerprints[spec.name], oracle_walls[spec.name] = prepare(
                spec, seed, preps[spec.name], extra_oracle_reps=2
            )
        for _ in range(passes):
            for spec in specs:
                plain[spec.name].append(
                    run_pass(spec, preps[spec.name], budget, traced=False, quick=quick)
                )
        for spec in specs:
            traced[spec.name] = run_pass(
                spec, preps[spec.name], budget, traced=True, quick=quick
            )
        battery = run_battery(seed, quick)
    finally:
        for path in preps.values():
            path.unlink(missing_ok=True)

    env = environment(seed, fingerprints)
    doc = {
        "schema": "repro.ledger/1",
        "quick": quick,
        "env": env,
        "layers": battery["metrics"],
        "workloads": {},
    }
    leaks = battery["leaked_segments"]
    failed = 0
    for spec in specs:
        every = [*plain[spec.name], traced[spec.name]]
        leaks += hygiene_failures(every)
        failed += sum(p["failed"] for p in every)
        doc["workloads"][spec.name] = {
            "why": spec.why,
            "end_to_end": end_to_end(plain[spec.name]),
            "per_layer": per_layer(
                plain[spec.name], traced[spec.name], oracle_walls[spec.name]
            ),
            "failures": [f for p in every for f in p["failures"]],
        }
    doc["correct"] = failed == 0 and leaks == 0
    write_trace(
        env,
        {**{n: t["spans"] for n, t in traced.items()}, "layers": battery["spans"]},
        {n: t["run_report"] for n, t in traced.items()},
    )

    print("env", json.dumps(env))
    for name, entry in doc["workloads"].items():
        print_metrics(name, entry["end_to_end"])
    for name, entry in doc["workloads"].items():
        print_metrics(name, entry["per_layer"])
        for failure in entry["failures"]:
            print("FAILED", name, failure)
    print_metrics("machine", doc["layers"])
    print(f"correct: {doc['correct']}  (trace: {TRACE_PATH})")
    if out is not None:
        out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {out}")
    return 0 if doc["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--workload", choices=sorted(SPECS), default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="self-test scale")
    parser.add_argument("--out", type=Path, default=None, help="ledger JSON path")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return run_one_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.quick
        )
    return run_ledger(args.seed, args.seconds, args.quick, args.out)


if __name__ == "__main__":
    raise SystemExit(main())

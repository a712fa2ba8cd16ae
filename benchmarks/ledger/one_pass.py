"""One pass of one workload, in a fresh process: construct, warm up, time.

Closed loop, one client: the next sort is issued only after the previous
one returned and was verified against the oracle.  Everything is measured
from outside the program: op walls around the public call, fields the
public results already carry, ``getrusage`` for this process and
``/proc/<pid>/stat`` for the pool workers.  Prints one JSON object; the
orchestrator (``run.py``) reduces passes to ledger metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import time
import traceback
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path

import numpy as np

from workloads import SPECS, Dataset, dataset_index, load_prepared, scaled

#: Control-plane silence after which the backend raises a typed timeout;
#: the op then counts as failed instead of eating the whole run.
OP_TIMEOUT_S = 30.0
#: Timed ops a pass always runs, even when the time budget is already spent.
MIN_TIMED_OPS = 5
#: Warm-up stops early once set-up has taken this long.  The largest normal
#: set-up is 4 s; in a slow-page-fault period of the VM one was seen to take
#: 34 s, and three such passes nearly used up a run's 180 s.
SETUP_CAP_S = 15.0
SHMSAN_REPS = 5
_TICK = os.sysconf("SC_CLK_TCK")


class Spans:
    """The benchmark's own spans, kept in memory (traced pass only)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.rows: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        row = {
            "id": len(self.rows),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            **attrs,
        }
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            yield
        finally:
            self._stack.pop()
            row["end"] = time.perf_counter()


def proc_stat(pid: int) -> np.ndarray:
    """``[minflt, majflt, utime_s, stime_s]`` of another process."""
    text = Path(f"/proc/{pid}/stat").read_text()
    # The comm field may contain spaces; fields after it start at state (3).
    fields = text[text.rindex(")") + 2 :].split()
    return np.array(
        [int(fields[7]), int(fields[9]), int(fields[11]) / _TICK, int(fields[12]) / _TICK]
    )


def self_usage() -> np.ndarray:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return np.array([ru.ru_minflt, ru.ru_majflt, ru.ru_utime, ru.ru_stime])


def workers_usage(pids: list[int]) -> dict[int, np.ndarray]:
    return {pid: proc_stat(pid) for pid in pids}


def workers_delta(before: dict, after: dict) -> np.ndarray:
    """Sum over workers; a worker born during the op started from zero."""
    total = np.zeros(4)
    for pid, usage in after.items():
        total += usage - before.get(pid, 0.0)
    return total


class ProcessPool:
    """The shared-memory process backend, as a user would hold it."""

    def __init__(self, spec):
        from repro.parallel import ProcessBackend

        self.backend = ProcessBackend(timeout_seconds=OP_TIMEOUT_S)

    def pids(self) -> list[int]:
        return [pid for pid in self.backend.worker_pids if pid is not None]

    def sort(self, ds: Dataset):
        return self.backend.sort_blocks(ds.blocks)

    @staticmethod
    def partitions(run):
        return [(out.keys, out.provenance) for out in run.outputs]

    @staticmethod
    def observe(run, wall: float) -> dict:
        from repro.parallel.backend import STEP_LABELS

        row = {
            f"worker.step.{label}_s": max(
                out.step_seconds.get(label, 0.0) for out in run.outputs
            )
            for label in STEP_LABELS
        }
        row["worker.wait_s"] = max(
            r.recv_wait_seconds + r.barrier_wait_seconds for r in run.reports
        )
        row["backend.dispatch_overhead_s"] = wall - run.worker_seconds
        row["hit"] = float(run.splitter_cache == "hit")
        row["retries"] = float(run.retries)
        row["peak_rss_bytes"] = float(max(r.peak_rss_bytes for r in run.reports))
        return row

    def report(self, run, tracer):
        from repro.obs.report import RunReport

        return RunReport.from_backend_run(run, tracer=tracer)

    def respawns(self) -> int:
        return self.backend.stats["respawns"]

    def close(self) -> None:
        self.backend.close()


class SimCluster:
    """The default simnet substrate behind ``distributed_sort``."""

    def __init__(self, spec):
        self.parts = spec.parts

    def pids(self) -> list[int]:
        return []

    def sort(self, ds: Dataset):
        from repro.core.api import distributed_sort

        return distributed_sort(ds.data, num_processors=self.parts)

    @staticmethod
    def partitions(result):
        return list(zip(result.per_processor, result.provenance))

    @staticmethod
    def observe(result, wall: float) -> dict:
        return {
            "simnet.virtual_makespan_s": result.metrics.makespan,
            "simnet.messages": float(result.metrics.messages),
            "simnet.remote_bytes": float(result.metrics.remote_bytes),
        }

    def report(self, result, tracer):
        from repro.obs.report import RunReport

        return RunReport.from_sort_result(result, tracer=tracer)

    def respawns(self) -> int:
        return 0

    def close(self) -> None:
        pass


def check(ds: Dataset, parts, *, provenance: bool) -> str | None:
    """Bit-identity against the oracle; returns what differs, or None."""
    if len(parts) != len(ds.bounds) - 1:
        return f"{len(parts)} partitions, oracle has {len(ds.bounds) - 1}"
    for rank, (keys, prov) in enumerate(parts):
        lo, hi = ds.bounds[rank], ds.bounds[rank + 1]
        if not np.array_equal(keys, ds.keys[lo:hi]):
            return f"rank {rank} keys differ from the oracle"
        if not provenance:
            continue
        if not (
            np.array_equal(prov.origin_proc, ds.origin_proc[lo:hi])
            and np.array_equal(prov.origin_index, ds.origin_index[lo:hi])
        ):
            return f"rank {rank} provenance differs from the oracle"
        if not np.array_equal(ds.data[prov.global_indices(ds.offsets)], keys):
            return f"rank {rank} provenance does not round-trip to the input"
    return None


def imbalance_of(parts) -> float:
    sizes = np.array([len(keys) for keys, _ in parts], dtype=np.float64)
    return float(sizes.max() / sizes.mean()) if sizes.sum() else 1.0


def run_pass(spec, datasets: list[Dataset], budget_s: float, traced: bool) -> dict:
    spans = Spans(traced)
    failures: list[str] = []
    attempted = 0
    worst_imbalance = 1.0
    pids_seen: set[int] = set()
    rows: list[dict] = []  # one per successful timed op
    op_walls: list[float] = []
    npsort_walls: list[float] = []
    trace_spans: list[int] = []
    last_report = None
    keys_sorted = 0
    usage = {phase: {"driver": np.zeros(4), "workers": np.zeros(4), "ops": 0}
             for phase in ("warmup", "timed")}
    # At least 8 yardstick sorts per pass, at most one per 10 ops.
    yardstick_every = max(1, min(10, spec.ops // 8))
    # The yardstick sorts in place in a buffer allocated before warm-up: a
    # 16-32 MB malloc/free in mid-pass moves glibc's mmap threshold and
    # changed the measured process's op time by 20% on sim_p16_skew.
    scratch = np.empty_like(datasets[0].data)

    from repro.obs.context import capture

    def one_op(i: int, phase: str) -> float | None:
        """Issue op ``i``; returns its wall, or None when it failed."""
        nonlocal attempted, worst_imbalance, last_report, keys_sorted
        ds = datasets[dataset_index(spec, i)]
        attempted += 1
        before_workers = workers_usage(substrate.pids())
        before_self = self_usage()
        scope = capture(name=f"{spec.name}#{i}") if traced else nullcontext()
        with spans.span(f"op#{i}", op=i, phase=phase):
            try:
                with scope as cap:
                    start = time.perf_counter()
                    run = substrate.sort(ds)
                    wall = time.perf_counter() - start
            except Exception:  # boundary: a failed op is counted, the pass goes on
                failures.append(f"op {i}: {traceback.format_exc(limit=3)}")
                return None
        after_self = self_usage()
        pids = substrate.pids()
        pids_seen.update(pids)
        acc = usage[phase]
        acc["driver"] += after_self - before_self
        acc["workers"] += workers_delta(before_workers, workers_usage(pids))
        acc["ops"] += 1
        with spans.span(f"verify#{i}", op=i):
            parts = substrate.partitions(run)
            # Warm-up ops are the gate before timing: keys and provenance.
            diff = check(ds, parts, provenance=phase == "warmup")
        if diff is not None:
            failures.append(f"op {i}: {diff}")
            return None
        worst_imbalance = max(worst_imbalance, imbalance_of(parts))
        if traced:
            tracer = cap.sessions[-1].tracer
            trace_spans.append(len(tracer.spans))
            last_report = (run, tracer)
        if phase == "timed":
            rows.append(substrate.observe(run, wall))
            keys_sorted += len(ds.data)
        return wall

    with spans.span(f"pass:{spec.name}"), ExitStack() as stack:
        with spans.span("setup"):
            start = time.perf_counter()
            substrate = (ProcessPool if spec.substrate == "process" else SimCluster)(spec)
            stack.callback(substrate.close)
            setup_s = time.perf_counter() - start
            with spans.span("warmup"):
                warmed = 0
                while warmed < spec.warmup and setup_s < SETUP_CAP_S:
                    wall = one_op(warmed, "warmup")
                    if wall is not None:
                        setup_s += wall
                    warmed += 1
        with spans.span("timed"):
            done = 0
            spent = 0.0
            while done < spec.ops and (spent < budget_s or done < MIN_TIMED_OPS):
                wall = one_op(warmed + done, "timed")
                if wall is not None:
                    op_walls.append(wall)
                    spent += wall
                if done % yardstick_every == yardstick_every - 1:
                    # Bare np.sort of the same keys, cycling through the
                    # job schedule so every dataset shape is sampled.
                    data = datasets[dataset_index(spec, len(npsort_walls))].data
                    start = time.perf_counter()
                    scratch[:] = data
                    scratch.sort()
                    npsort_walls.append(time.perf_counter() - start)
                done += 1
        extras = (
            traced_extras(spec, substrate, datasets, spans, failures) if traced else None
        )
        respawns = substrate.respawns()

    result = {
        "workload": spec.name,
        "traced": traced,
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "op_walls": op_walls,
        "npsort_walls": npsort_walls,
        "keys_sorted": keys_sorted,
        "imbalance": worst_imbalance,
        "worker_pids": sorted(pids_seen),
        "self_peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        "layer": reduce_rows(rows, usage, respawns),
    }
    if traced:
        run, tracer = last_report if last_report else (None, None)
        result["extras"] = extras
        result["extras"]["trace.spans"] = (
            statistics.median(trace_spans) if trace_spans else 0.0
        )
        result["run_report"] = (
            substrate.report(run, tracer).to_json() if run is not None else None
        )
        result["spans"] = spans.rows
    return result


def reduce_rows(rows: list[dict], usage: dict, respawns: int) -> dict:
    """Per-pass layer numbers: medians over timed ops, usage per op."""
    out: dict[str, float] = {}
    for key in rows[0] if rows else ():
        values = [row[key] for row in rows]
        out[key] = max(values) if key == "peak_rss_bytes" else statistics.median(values)
    if rows and "hit" in out:
        out["backend.splitter_cache_hit_ratio"] = sum(r["hit"] for r in rows) / len(rows)
        out["backend.retries"] = sum(r["retries"] for r in rows)
        del out["hit"], out["retries"]
    for phase, suffix in (("timed", ""), ("warmup", ".warmup")):
        acc = usage[phase]
        ops = max(acc["ops"], 1)
        out[f"backend.driver_minflt_per_op{suffix}"] = acc["driver"][0] / ops
        out[f"backend.driver_sys_s_per_op{suffix}"] = acc["driver"][3] / ops
        out[f"worker.minflt_per_op{suffix}"] = acc["workers"][0] / ops
    cpu = usage["timed"]["workers"][2] + usage["timed"]["workers"][3]
    out["worker.sys_share"] = usage["timed"]["workers"][3] / cpu if cpu else 0.0
    out["backend.respawns"] = float(respawns)
    return out


def traced_extras(spec, substrate, datasets, spans: Spans, failures: list[str]) -> dict:
    """Layer measurements that would disturb a plain pass; tracing is off here."""
    from repro.core.packsort import packed_stable_sort

    extras: dict = {}
    with spans.span("layer.core.packsort.fallback_share"):
        declined = [
            packed_stable_sort(block) is None for ds in datasets for block in ds.blocks
        ]
        extras["packsort.fallback_share"] = sum(declined) / len(declined)
    if spec.substrate != "process":
        return extras

    from repro.parallel.shmsan import shm_sanitize

    with spans.span("layer.parallel.shmsan"):
        walls = []
        with shm_sanitize() as san:
            for i in range(SHMSAN_REPS):
                ds = datasets[dataset_index(spec, i)]
                start = time.perf_counter()
                substrate.sort(ds)
                walls.append(time.perf_counter() - start)
        if not san.report.ok:
            failures.append("ShmSan flagged the workload: " + san.report.summary())
        extras["shmsan_walls"] = walls
    with spans.span("layer.parallel.backend.workers1"):
        # Same pool object resized to one worker: the plain single-worker
        # baseline behind backend.speedup_w2_over_w1.
        walls = []
        for i in range(spec.w1_reps):
            ds = datasets[dataset_index(spec, i)]
            start = time.perf_counter()
            run = substrate.backend.sort_blocks([ds.data])
            walls.append(time.perf_counter() - start)
            if not np.array_equal(run.outputs[0].keys, ds.keys):
                failures.append(f"workers=1 rep {i}: keys differ from the oracle")
        extras["w1_walls"] = walls
    return extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--prep", required=True, type=Path)
    parser.add_argument("--budget", required=True, type=float)
    parser.add_argument("--traced", type=int, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    spec = scaled(SPECS[args.workload], args.quick)
    datasets = load_prepared(spec, args.prep)
    result = run_pass(spec, datasets, args.budget, bool(args.traced))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

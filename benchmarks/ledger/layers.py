"""Workload-independent layer microbenchmarks and machine yardsticks.

Each layer is timed from outside through its public function, on inputs
shaped like the ones the six-step sort hands it, and next to a hardware
yardstick measured in the same process (memcpy bandwidth, bare
``np.sort``).  Runs in its own process; prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import time

import numpy as np

from one_pass import Spans
from workloads import SPECS, scaled

#: Bytes of the bandwidth arrays.  Below the 4x-last-level-cache rule on
#: machines with a huge shared L3; the cache sizes are printed beside it.
BANDWIDTH_BYTES = 128 << 20
COLLECTIVE_ROUNDS = 300
GATHER_PAYLOAD_BYTES = 16 << 10


def median_wall(fn, reps: int) -> float:
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def step5_region(data: np.ndarray, p: int):
    """The fullest rank's step-5 receive region, built by steps 1-4.

    Returns ``(keys, run_lengths, index_col, proc_col, splitters, block0)``:
    the p sorted runs back to back with both provenance columns, exactly
    what ``flat_kway_merge`` is handed in step 6.
    """
    from repro.core.api import partition_input
    from repro.core.investigator import compute_rank_cuts, slices_from_cuts
    from repro.core.sampling import sample_count, select_regular_samples
    from repro.core.splitters import merge_samples, select_splitters
    from repro.pgxd.config import PgxdConfig

    blocks, _ = partition_input(data, p)
    perms = [np.argsort(b, kind="stable").astype(np.int32) for b in blocks]
    sorted_blocks = [b[perm] for b, perm in zip(blocks, perms)]
    count = sample_count(PgxdConfig(), p, data.dtype.itemsize)
    samples = [select_regular_samples(keys, count) for keys in sorted_blocks]
    splitters = select_splitters(merge_samples(samples), p)
    slices = [
        slices_from_cuts(compute_rank_cuts(keys, splitters, p).cuts, len(keys))
        for keys in sorted_blocks
    ]
    received = [sum(sl[dst].stop - sl[dst].start for sl in slices) for dst in range(p)]
    dst = int(np.argmax(received))
    runs = [keys[sl[dst]] for keys, sl in zip(sorted_blocks, slices)]
    lengths = [len(run) for run in runs]
    index_col = np.concatenate([perm[sl[dst]] for perm, sl in zip(perms, slices)])
    proc_col = np.repeat(np.arange(p, dtype=np.int16), lengths)
    return np.concatenate(runs), lengths, index_col, proc_col, splitters, sorted_blocks[0]


def arena_write_walls(arena, src: np.ndarray, reps: int) -> tuple[float, float]:
    """Wall of the first write into a fresh lease, then of warm rewrites.

    The views die with this frame: the arena cannot unmap a segment that
    still has an exported buffer.
    """
    view = arena.view(arena.lease(len(src), src.dtype))
    start = time.perf_counter()
    view[:] = src
    first_s = time.perf_counter() - start
    arena.release_all()
    view = arena.view(arena.lease(len(src), src.dtype))

    def write_warm():
        view[:] = src

    return first_s, median_wall(write_warm, reps)


def collective_rank(rank: int, size: int, conn, rounds: int) -> None:
    """One rank of the control-plane round-trip benchmark (child process)."""
    from repro.parallel.collectives import WorkerLink

    link = WorkerLink(rank, size, conn)
    payload = np.zeros(GATHER_PAYLOAD_BYTES // 8, dtype=np.int64)
    link.barrier()
    walls = {}
    for name, call in (
        ("barrier", link.barrier),
        ("allgather", lambda: link.allgather(rank)),
        ("gather_16k", lambda: link.gather(payload)),
    ):
        per_call = []
        for _ in range(rounds):
            start = time.perf_counter()
            call()
            per_call.append(time.perf_counter() - start)
        walls[name] = statistics.median(per_call)
    link.send_done(walls)


def measure_collectives(rounds: int) -> dict[str, float]:
    """Median round trip of each collective, 2 ranks against the real hub."""
    from repro.parallel.collectives import serve_control_plane

    ctx = multiprocessing.get_context("spawn")
    conns, procs = [], []
    for rank in range(2):
        hub_end, worker_end = ctx.Pipe(duplex=True)
        proc = ctx.Process(target=collective_rank, args=(rank, 2, worker_end, rounds))
        proc.start()
        worker_end.close()
        conns.append(hub_end)
        procs.append(proc)
    try:
        done = serve_control_plane(conns, procs, timeout_seconds=60.0)
    finally:
        for proc in procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        for conn in conns:
            conn.close()
    return {
        name: max(done[rank][name] for rank in done) * 1e6
        for name in ("barrier", "allgather", "gather_16k")
    }


def run_battery(seed: int, quick: bool) -> dict:
    from bench_simulator_throughput import measure_ping_storm

    from repro.core.balanced_merge import flat_kway_merge
    from repro.core.investigator import compute_rank_cuts
    from repro.core.packsort import packed_stable_sort
    from repro.parallel.arena import SharedArena
    from repro.workloads.distributions import right_skewed

    spans = Spans(True)
    out: dict[str, tuple[float, str]] = {}
    rng = np.random.default_rng([seed, 99])
    shrink = 20 if quick else 1
    reps = 3 if quick else 5
    n_big = SPECS["big_uniform"].n // shrink
    n_sim = scaled(SPECS["sim_p16_skew"], quick).n
    bandwidth_bytes = BANDWIDTH_BYTES // shrink

    with spans.span("layers"):
        with spans.span("layer.machine"):
            src = np.ones(bandwidth_bytes // 8, dtype=np.int64)
            dst = np.empty_like(src)
            np.copyto(dst, src)
            memcpy_s = median_wall(lambda: np.copyto(dst, src), reps)
            out["machine.memcpy_gbps"] = (bandwidth_bytes / memcpy_s / 1e9, "GB/s")
            block = rng.integers(0, 1 << 40, n_big // 2, dtype=np.int64)
            npsort_s = median_wall(lambda: np.sort(block), reps)
            out["machine.npsort_keys_per_s"] = (len(block) / npsort_s, "keys/s")
            out["machine.nproc"] = (float(os.cpu_count() or 1), "count")

        with spans.span("layer.core.packsort"):
            if packed_stable_sort(block) is None:
                raise AssertionError("packsort declined the uniform rank block")
            pack_s = median_wall(lambda: packed_stable_sort(block), reps)
            out["packsort.keys_per_s"] = (len(block) / pack_s, "keys/s")
            out["packsort.vs_npsort"] = (pack_s / npsort_s, "ratio")

        with spans.span("layer.core.balanced_merge"):
            uniform_big = rng.integers(0, 1 << 40, n_big, dtype=np.int64)
            uniform_sim = rng.integers(0, 1 << 40, n_sim, dtype=np.int64)
            skewed = right_skewed(n_sim, seed=int(rng.integers(1 << 31)))
            regions = {
                "k2_uniform": step5_region(uniform_big, 2),
                "k16_uniform": step5_region(uniform_sim, 16),
                "k16_skew": step5_region(skewed, 16),
            }
            for name, (keys, lengths, index_col, proc_col, _, _) in regions.items():
                merged = flat_kway_merge(keys, lengths, [index_col, proc_col])
                if not np.array_equal(merged.keys, np.sort(keys)):
                    raise AssertionError(f"flat_kway_merge diverged on {name}")
                merge_reps = reps if name == "k2_uniform" else 4 * reps
                merge_s = median_wall(
                    lambda: flat_kway_merge(keys, lengths, [index_col, proc_col]),
                    merge_reps,
                )
                sort_s = median_wall(lambda: np.sort(keys), merge_reps)
                out[f"merge.{name}.keys_per_s"] = (len(keys) / merge_s, "keys/s")
                out[f"merge.{name}.vs_npsort"] = (merge_s / sort_s, "ratio")

        with spans.span("layer.core.investigator"):
            # 15 splitters, most of them tied, against one sorted rank block.
            *_, splitters, block0 = regions["k16_skew"]
            calls = 200 if quick else 2000
            cut = compute_rank_cuts(block0, splitters, 16)
            start = time.perf_counter()
            for _ in range(calls):
                compute_rank_cuts(block0, splitters, 16)
            out["cuts.calls_per_s"] = (calls / (time.perf_counter() - start), "1/s")
            out["cuts.searches"] = (float(cut.searches), "count")

        with spans.span("layer.parallel.arena"):
            shm_before = set(os.listdir("/dev/shm"))
            with SharedArena() as arena:
                first_s, warm_s = arena_write_walls(arena, src, reps)
            out["arena.write_gbps_first_touch"] = (bandwidth_bytes / first_s / 1e9, "GB/s")
            out["arena.write_gbps_warm"] = (bandwidth_bytes / warm_s / 1e9, "GB/s")
            out["arena.leaked_segments"] = (
                float(len(set(os.listdir("/dev/shm")) - shm_before)),
                "count",
            )

        with spans.span("layer.parallel.collectives"):
            rtts = measure_collectives(COLLECTIVE_ROUNDS // (5 if quick else 1))
            for name, rtt_us in rtts.items():
                out[f"collectives.{name}_rtt_us"] = (rtt_us, "us")

        with spans.span("layer.simnet"):
            storm = measure_ping_storm(repeats=2 if quick else 3)
            out["simnet.events_per_s"] = (storm["events_per_sec"], "events/s")

    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.items()},
        "spans": spans.rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_battery(args.seed, args.quick)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

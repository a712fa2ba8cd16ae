"""Streaming sorts through a persistent worker pool.

A service that sorts many datasets should not pay process spawn, shared-
memory mapping, and splitter sampling for every request.  ``SorterPool``
keeps one generation of rank processes parked between jobs: the shm arena
segments stay mapped on both sides of the process boundary, and the exact
splitter cache reuses splitters whenever a job's sample fingerprint
matches an earlier one — bit-identically, because equal samples select
equal splitters.

Run:  python examples/streaming_sort_jobs.py
"""

import time

import numpy as np

from repro import DistributedSorter

WORKERS = 2
N_KEYS = 30_000
rng = np.random.default_rng(20260809)

# A mixed stream: the three recurring shapes a graph workload produces.
# The second cycle re-issues the first cycle's datasets, which is exactly
# the recurring-epoch pattern the splitter cache exists for.
shapes = {
    "uniform": rng.integers(0, 1 << 40, N_KEYS).astype(np.int64),
    "duplicate_heavy": rng.integers(0, 500, N_KEYS).astype(np.int64),
    "near_sorted": np.sort(rng.integers(0, 1 << 40, N_KEYS).astype(np.int64)),
}
stream = [(name, shapes[name]) for name in shapes] * 2

sorter = DistributedSorter(num_processors=WORKERS, backend="process")
with sorter.pool() as pool:
    print(f"streaming {len(stream)} jobs through {WORKERS} pooled workers\n")
    for i, (name, data) in enumerate(stream):
        start = time.perf_counter()
        result = pool.sort(data)
        latency = time.perf_counter() - start
        verdict = pool.last_run.splitter_cache
        assert result.is_globally_sorted()
        print(
            f"job {i}: {name:<16s} {latency * 1e3:7.1f} ms   "
            f"splitter cache: {verdict}"
        )
    stats = pool.stats
    cache = stats["splitter_cache"]

print(
    f"\npool served {stats['jobs_completed']} jobs with "
    f"{stats['pool_spawns']} spawn(s) ({stats['respawns']} respawn(s))"
)
print(
    f"splitter cache: {cache['hits']} hit(s), {cache['misses']} miss(es), "
    f"{cache['cold']} cold, {cache['fallbacks']} fallback(s)"
)

# One-liner for batch callers: sort_many streams a whole list of datasets
# through a single pool (simnet backends get the same API).
results = DistributedSorter(num_processors=WORKERS, backend="process").sort_many(
    [shapes["uniform"], shapes["duplicate_heavy"]]
)
print(f"sort_many: {len(results)} results, all sorted: "
      f"{all(r.is_globally_sorted() for r in results)}")

"""Quickstart: sort data on a simulated PGX.D cluster and query the result.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import DistributedSorter, distributed_sort
from repro.core import local_sample_sort, partition_input

rng = np.random.default_rng(42)
data = rng.integers(0, 1_000_000, 1 << 20)

# One-shot API: sort across 8 simulated machines with 32 worker threads
# each (the paper's per-machine parallelism).
result = distributed_sort(data, num_processors=8)

print(f"globally sorted: {result.is_globally_sorted()}")
print(f"virtual cluster time: {result.elapsed_seconds * 1e3:.2f} ms")
print(f"keys per processor: {result.counts().tolist()}")
print(f"load imbalance (max/mean): {result.imbalance():.3f}")

# Per-step breakdown (the paper's Figure 7 view).
for step, seconds in result.step_breakdown().items():
    print(f"  {step:<14s} {seconds * 1e3:8.3f} ms")

# The library APIs the paper advertises on the sorted data:
value = int(data[123])
proc, local = result.searchsorted(value)
print(f"\nbinary search for {value}: processor {proc}, local index {local}")
print(f"global rank: {result.global_index(proc, local)}")
print(f"top-5 values: {result.top_k(5).tolist()}")

# Provenance: where did the smallest key live before the sort?
origin_proc, origin_idx = result.origin_of(0, 0)
print(f"smallest key came from processor {origin_proc}, index {origin_idx}")

# Payload columns ride along via provenance ("sort multiple data
# simultaneously"): reorder a second array into key order without
# re-sorting.
payload = rng.random(len(data))
sorter = DistributedSorter(num_processors=8)
res2, columns = sorter.sort_with_values(data, {"weight": payload})
# The order is deterministic: exactly the in-process reference sort's.
# (The investigator cuts a sampled tie across processors, so equal keys
# need not keep their input order.)
blocks, offsets = partition_input(data, 8)
reference = local_sample_sort(blocks)
expected = np.concatenate([prov.global_indices(offsets) for prov in reference.provenance])
assert np.array_equal(columns["weight"], payload[expected])
print("payload column reordered consistently with the keys")

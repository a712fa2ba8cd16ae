"""The investigator at work: load balance on duplicate-heavy data.

The paper's central contribution is keeping processor loads balanced when
the dataset contains many duplicated entries (Figure 3, Table II).  This
example sorts a right-skewed dataset — ~80% of all entries share one value
— with and without the investigator, and prints the per-processor loads.

Run:  python examples/duplicate_heavy_sort.py
"""

import numpy as np

from repro import DistributedSorter
from repro.workloads import duplication_ratio, right_skewed

P = 10
data = right_skewed(1 << 20, seed=7)
print(f"dataset: {len(data):,} keys, duplication ratio {duplication_ratio(data):.4f}")
top_value, top_count = np.unique(data, return_counts=True)
i = np.argmax(top_count)
print(f"most frequent value {top_value[i]} holds {top_count[i] / len(data):.1%} of all entries\n")


def report(label: str, **options) -> None:
    sorter = DistributedSorter(num_processors=P, **options)
    result = sorter.sort(data)
    assert result.is_globally_sorted()
    ratios = ", ".join(f"{r:.3%}" for r in result.ratios())
    print(f"{label}")
    print(f"  per-processor share: {ratios}")
    print(f"  imbalance (max/mean): {result.imbalance():.2f}")
    print(f"  min/max load spread:  {result.load_spread():,} keys")
    print(f"  virtual time:         {result.elapsed_seconds * 1e3:.2f} ms\n")


# Figure 3b: plain binary search piles the tied range onto one processor.
report("WITHOUT investigator (Figure 3b)", investigator=False)

# Figure 3c: every processor cuts the tied range where the samples put
# each duplicated splitter.
report("WITH investigator (Figure 3c)")

# Table II's money shot: the tied block splits into exactly equal ratios —
# compare the repeated per-processor share above with the paper's
# "exact equal sized 9.998% for each data on the processors 2-9".

"""Reference backend: the six-step algorithm without the simulator.

Runs the paper's sample sort as plain function calls — no virtual cluster,
no cost model, no message passing — reusing the exact step kernels for
steps 2–4 (regular sampling, Master splitter selection, the
investigator) and spelling out the sorts and the merge as literal
``argsort(kind="stable")`` calls.  Three uses:

* a **cross-validation oracle**: the simulated cluster must produce
  *bit-identical* per-processor outputs (asserted in tests), which pins the
  simulation's data plane to the algorithm specification;
* a **pure-algorithm library** for users who want the partitioning logic
  (e.g. to shard data for real workers) without simulation machinery;
* the **porting template** for a real mpi4py/dask deployment: each stage
  below maps one-to-one onto the collective calls of
  :mod:`repro.simnet.mpi`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .investigator import compute_rank_cuts, slices_from_cuts
from .provenance import Provenance
from .sorter import SortOptions
from .steps import agree_splitters, draw_samples

from ..pgxd.config import PgxdConfig


@dataclass(frozen=True)
class LocalSortOutput:
    """Reference-backend result: partitions + provenance, no timing."""

    per_processor: list[np.ndarray]
    provenance: list[Provenance]
    splitters: np.ndarray

    def to_array(self) -> np.ndarray:
        if not self.per_processor:
            return np.empty(0)
        return np.concatenate(self.per_processor)


def local_sample_sort(
    blocks: list[np.ndarray],
    options: SortOptions | None = None,
    config: PgxdConfig | None = None,
) -> LocalSortOutput:
    """Run steps 1-6 over already-partitioned blocks, in-process.

    ``blocks[i]`` is processor ``i``'s unsorted input; the output follows
    the same conventions as the simulated sorter (ascending across
    processors, provenance per element).
    """
    options = options or SortOptions()
    config = config or PgxdConfig()
    p = len(blocks)
    if p == 0:
        raise ValueError("need at least one block")
    blocks = [np.ascontiguousarray(b) for b in blocks]
    # Step 1: local sort with permutation.
    sorted_keys: list[np.ndarray] = []
    perms: list[np.ndarray] = []
    for block in blocks:
        order = np.argsort(block, kind="stable").astype(np.int32)
        sorted_keys.append(block[order])
        perms.append(order)
    if p == 1:
        prov = Provenance(np.zeros(len(blocks[0]), dtype=np.int16), perms[0])
        return LocalSortOutput(
            [sorted_keys[0]], [prov], sorted_keys[0][:0].copy()
        )
    # Steps 2-3: regular samples to the Master, splitter selection.
    samples = [
        draw_samples(keys, config, p, options.sample_factor) for keys in sorted_keys
    ]
    splitters = agree_splitters(samples, p)
    # Step 4: cuts (with or without the investigator).
    slices = [
        slices_from_cuts(
            compute_rank_cuts(
                keys, splitters, p, investigator=options.investigator
            ).cuts,
            len(keys),
        )
        for keys in sorted_keys
    ]
    # Steps 5-6, literally: destination ``dst`` receives slice ``dst`` of
    # every source in rank order, and a stable merge of rank-ordered runs is
    # the stable sort of their concatenation (earlier run wins ties),
    # whichever handler shape ``options.balanced_merge`` charges.  Written
    # out on purpose: the oracle shares no merge code with what it checks.
    ranks = np.arange(p, dtype=np.int16)
    per_processor: list[np.ndarray] = []
    provenance: list[Provenance] = []
    for dst in range(p):
        runs = [sorted_keys[src][slices[src][dst]] for src in range(p)]
        keys = np.concatenate(runs)
        order = np.argsort(keys, kind="stable")
        origin_index = np.concatenate(
            [perms[src][slices[src][dst]] for src in range(p)]
        )
        origin_proc = np.repeat(ranks, [len(run) for run in runs])
        per_processor.append(keys[order])
        provenance.append(Provenance(origin_proc[order], origin_index[order]))
    return LocalSortOutput(per_processor, provenance, splitters)


def sample_sort_partition(
    data: np.ndarray,
    num_partitions: int,
    options: SortOptions | None = None,
) -> list[np.ndarray]:
    """Partition driver data into globally ordered sorted shards.

    Convenience wrapper: block-split, run the reference backend, return the
    per-partition sorted arrays (shard ``i`` holds keys below shard
    ``i+1``'s).
    """
    data = np.asarray(data)
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    bounds = [len(data) * i // num_partitions for i in range(num_partitions + 1)]
    blocks = [data[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return local_sample_sort(blocks, options).per_processor

"""The paper's contribution: load-balanced distributed sample sort.

Six steps (section IV), each in its own module:

1. :mod:`repro.core.local_sort` — parallel quicksort per machine,
2. :mod:`repro.core.sampling` — regular 256KB/p sampling,
3. :mod:`repro.core.splitters` — Master-side splitter selection,
4. :mod:`repro.core.investigator` — duplicate-aware partition cuts,
5. :mod:`repro.core.exchange` — asynchronous all-to-all redistribution,
6. :mod:`repro.core.balanced_merge` — the merge kernel and the pairwise
   balanced-merge handler's level/cost shape,

with the one kernel per step every substrate shares in
:mod:`repro.core.steps`, orchestrated by :mod:`repro.core.sorter` and
exposed through :mod:`repro.core.api`.
"""

from . import api  # noqa: F401  (re-exported for repro.__getattr__)
from .api import DistributedSorter, SortConfig, distributed_sort, partition_input
from .balanced_merge import (
    MergeOutcome,
    flat_kway_merge,
    kway_merge_cost_seconds,
    merge_levels,
    merge_levels_cost_seconds,
)
from .exchange import ExchangeResult, exchange_partitions
from .scratch import ScratchArena
from .investigator import (
    CutResult,
    compute_cuts,
    compute_cuts_naive,
    cuts_to_counts,
    slices_from_cuts,
)
from .local_backend import LocalSortOutput, local_sample_sort, sample_sort_partition
from .local_sort import LocalSortResult, parallel_quicksort, split_into_chunks
from .provenance import Provenance
from .result import SortResult
from .sampling import sample_count, select_regular_samples
from .sorter import MASTER, STEP_LABELS, RankSortOutput, SortOptions, sample_sort_program
from .splitters import merge_samples, select_splitters
from .verify import VerificationReport, summarize_input, verify_distributed, verify_program

__all__ = [
    "MASTER",
    "STEP_LABELS",
    "CutResult",
    "DistributedSorter",
    "ExchangeResult",
    "LocalSortOutput",
    "LocalSortResult",
    "MergeOutcome",
    "Provenance",
    "RankSortOutput",
    "ScratchArena",
    "SortConfig",
    "SortOptions",
    "VerificationReport",
    "SortResult",
    "compute_cuts",
    "compute_cuts_naive",
    "cuts_to_counts",
    "distributed_sort",
    "exchange_partitions",
    "flat_kway_merge",
    "kway_merge_cost_seconds",
    "local_sample_sort",
    "merge_levels",
    "merge_levels_cost_seconds",
    "merge_samples",
    "parallel_quicksort",
    "partition_input",
    "sample_count",
    "sample_sort_partition",
    "sample_sort_program",
    "select_regular_samples",
    "select_splitters",
    "slices_from_cuts",
    "split_into_chunks",
    "summarize_input",
    "verify_distributed",
    "verify_program",
]

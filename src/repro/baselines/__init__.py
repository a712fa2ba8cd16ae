"""Comparison systems: Spark sortByKey, bitonic and radix.

:mod:`repro.baselines.spark` — a mini bulk-synchronous engine reproducing
the mechanisms behind Spark's published slowdown;
:mod:`repro.baselines.bitonic` — Batcher's bitonic sort (related work);
:mod:`repro.baselines.radix` — partitioned parallel radix sort (related
work).  The paper's own algorithm with its contributions disabled is
``distributed_sort(..., investigator=False, balanced_merge=False)``.
"""

from .bitonic import BitonicResult, bitonic_sort
from .radix import RadixResult, assign_buckets, radix_sort
from .spark.engine import SparkConfig, SparkSortResult, spark_sort_by_key

__all__ = [
    "BitonicResult",
    "RadixResult",
    "SparkConfig",
    "SparkSortResult",
    "assign_buckets",
    "bitonic_sort",
    "radix_sort",
    "spark_sort_by_key",
]

"""MiniSpark: bulk-synchronous sortByKey baseline (driver, stages, shuffle,
TimSort) on the simulated cluster."""

from .engine import SparkConfig, SparkSortResult, spark_sort_by_key, spark_sort_program
from .rdd import RDD, determine_bounds, partition_by_range, reservoir_sample

__all__ = [
    "RDD",
    "SparkConfig",
    "SparkSortResult",
    "determine_bounds",
    "partition_by_range",
    "reservoir_sample",
    "spark_sort_by_key",
    "spark_sort_program",
]

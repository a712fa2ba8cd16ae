"""Workload generators: the paper's input datasets, synthesized.

:mod:`repro.workloads.distributions` — the four Figure-4 key distributions;
:mod:`repro.workloads.duplicates` — controlled-duplication generators and
the adversaries of the balance bound;
:mod:`repro.workloads.graphs` — R-MAT and power-law degree synthesis;
:mod:`repro.workloads.twitter` — the Twitter-shaped graph + sort keys.
"""

from .distributions import (
    DEFAULT_VALUE_RANGE,
    DISTRIBUTIONS,
    duplication_ratio,
    exponential,
    generate,
    histogram,
    normal,
    right_skewed,
    uniform,
)
from .duplicates import (
    ADVERSARIAL,
    block_duplicates,
    partially_sorted,
    single_value_keys,
    zipf_keys,
)
from .graphs import RmatParams, degree_skew, powerlaw_degrees, rmat_edges
from .twitter import (
    KEY_QUANTUM,
    KEY_RANGE,
    TwitterDataset,
    synthetic_twitter,
    vertex_properties,
)

__all__ = [
    "ADVERSARIAL",
    "DEFAULT_VALUE_RANGE",
    "DISTRIBUTIONS",
    "KEY_QUANTUM",
    "KEY_RANGE",
    "RmatParams",
    "TwitterDataset",
    "block_duplicates",
    "degree_skew",
    "duplication_ratio",
    "exponential",
    "generate",
    "histogram",
    "normal",
    "partially_sorted",
    "powerlaw_degrees",
    "right_skewed",
    "rmat_edges",
    "single_value_keys",
    "synthetic_twitter",
    "uniform",
    "vertex_properties",
    "zipf_keys",
]

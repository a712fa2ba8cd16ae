"""Analysis utilities: cost-model calibration, the determinism fingerprint,
snapshot regression comparison."""

from .calibration import CalibrationCheck, run_checks, summarize, thread_efficiency_profile
from .determinism import capture_sort_fingerprint
from .regression import ComparisonReport, Drift, compare

__all__ = [
    "CalibrationCheck",
    "ComparisonReport",
    "Drift",
    "capture_sort_fingerprint",
    "compare",
    "run_checks",
    "summarize",
    "thread_efficiency_profile",
]

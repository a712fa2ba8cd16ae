"""Discrete-event cluster simulator: the hardware substrate of the repro.

Provides a deterministic virtual cluster — processes as generators, an
MPI-flavoured call vocabulary, a cut-through network model with per-NIC
serialization, collective operations built from point-to-point messages, and
a calibrated compute-cost model standing in for the paper's Xeon testbed.
"""

from .calls import (
    ANY_SOURCE,
    ANY_TAG,
    Alloc,
    Barrier,
    Compute,
    Crash,
    Free,
    Isend,
    Mark,
    Message,
    Now,
    Probe,
    Recv,
    Send,
    Sleep,
)
from .collectives import allgather, alltoallv, bcast, gather, reduce, scatter
from .comm import nbytes_of
from .cost import CostModel
from .engine import ProcessHandle, Simulator
from .errors import (
    DeadlockError,
    InvalidCallError,
    ProcessFailure,
    RankCrashedError,
    SimError,
    SimSanError,
    UnknownRankError,
)
from .metrics import ClusterMetrics, MemoryTracker, ProcessMetrics
from .network import Fabric, NetworkModel, NicState, gbit_per_s
from .sanitizer import SanReport, SimSan, sanitize

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Alloc",
    "Barrier",
    "ClusterMetrics",
    "Compute",
    "CostModel",
    "Crash",
    "DeadlockError",
    "Fabric",
    "Free",
    "InvalidCallError",
    "Isend",
    "Mark",
    "MemoryTracker",
    "Message",
    "NetworkModel",
    "NicState",
    "Now",
    "ProcessFailure",
    "Probe",
    "ProcessHandle",
    "ProcessMetrics",
    "RankCrashedError",
    "Recv",
    "SanReport",
    "Send",
    "SimError",
    "SimSan",
    "SimSanError",
    "Simulator",
    "Sleep",
    "sanitize",
    "UnknownRankError",
    "allgather",
    "alltoallv",
    "bcast",
    "gather",
    "gbit_per_s",
    "nbytes_of",
    "reduce",
    "scatter",
]

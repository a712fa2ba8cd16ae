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
from .comm import Envelope, ReliableComm, ResilienceConfig, nbytes_of
from .cost import CostModel
from .engine import ProcessHandle, Simulator
from .errors import (
    DeadlockError,
    ExchangeTimeoutError,
    InvalidCallError,
    MembershipError,
    ProcessFailure,
    SimError,
    SimSanError,
    UnknownRankError,
)
from .faults import FaultPlan, FaultState, active_fault_plan, chaos_schedules, inject_faults
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
    "DeadlockError",
    "Envelope",
    "ExchangeTimeoutError",
    "Fabric",
    "FaultPlan",
    "FaultState",
    "Free",
    "InvalidCallError",
    "Isend",
    "MembershipError",
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
    "Recv",
    "ReliableComm",
    "ResilienceConfig",
    "SanReport",
    "Send",
    "SimError",
    "SimSan",
    "SimSanError",
    "Simulator",
    "Sleep",
    "sanitize",
    "UnknownRankError",
    "active_fault_plan",
    "allgather",
    "alltoallv",
    "bcast",
    "chaos_schedules",
    "gather",
    "gbit_per_s",
    "inject_faults",
    "nbytes_of",
    "reduce",
    "scatter",
]

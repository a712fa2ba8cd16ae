"""Per-process and cluster-wide measurement collection.

Every :class:`~repro.simnet.engine.Simulator` owns a :class:`ClusterMetrics`;
each simulated process owns a :class:`ProcessMetrics`.  Compute calls carry an
optional phase label, which is how the per-step breakdown of Figure 7 and the
communication-overhead series of Figure 9 are assembled.  Memory is tracked in
two pools matching Figure 11: resident (RSS) and temporary scratch space.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class MemoryTracker:
    """High-water-mark accounting for one process's memory pools."""

    resident: int = 0
    temporary: int = 0
    peak_resident: int = 0
    peak_temporary: int = 0
    #: Peak of resident+temporary observed at the same instant.
    peak_total: int = 0

    def alloc(self, nbytes: int, *, temporary: bool = False) -> None:
        if temporary:
            self.temporary += nbytes
            self.peak_temporary = max(self.peak_temporary, self.temporary)
        else:
            self.resident += nbytes
            self.peak_resident = max(self.peak_resident, self.resident)
        self.peak_total = max(self.peak_total, self.resident + self.temporary)

    def free(self, nbytes: int, *, temporary: bool = False) -> None:
        if temporary:
            if nbytes > self.temporary:
                raise ValueError(
                    f"freeing {nbytes} temporary bytes but only "
                    f"{self.temporary} are allocated"
                )
            self.temporary -= nbytes
        else:
            if nbytes > self.resident:
                raise ValueError(
                    f"freeing {nbytes} resident bytes but only "
                    f"{self.resident} are allocated"
                )
            self.resident -= nbytes


@dataclass
class ProcessMetrics:
    """Virtual-time and traffic accounting for a single simulated rank."""

    rank: int
    #: Virtual seconds of labelled compute, by phase label.
    phase_seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Unlabelled compute seconds.
    other_seconds: float = 0.0
    #: Seconds spent blocked in Recv.
    recv_wait_seconds: float = 0.0
    #: Seconds spent blocked in Barrier.
    barrier_wait_seconds: float = 0.0
    #: Seconds the process was occupied sending (blocking portion).
    send_seconds: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    memory: MemoryTracker = field(default_factory=MemoryTracker)
    #: Virtual time at which the process generator finished.
    finished_at: float | None = None
    # --- fault-injection accounting (all zero on fault-free runs) ---
    #: Retransmissions of dropped messages, plus failed job attempts the
    #: retry layer charged to this rank.
    retries: int = 0
    #: Control-plane deadlines that expired on this rank (process pool).
    timeouts: int = 0
    #: Wire copies of this rank's outbound messages the fault plan dropped.
    messages_dropped: int = 0
    #: True when this rank crashed, or was dropped for crashing.
    crashed: bool = False
    #: Set when a rank, on either substrate, did *not* carry provenance
    #: inside the packed word (the ``DataPath`` label of
    #: :mod:`repro.core.datapath`): ``"packed"`` — the job's key frame did
    #: not fit, keys + perm were exchanged — or ``"stable"`` — step 1 also
    #: ran the slow stable argsort.  None on the word path.
    local_sort_path: str | None = None
    #: Keys the sort left on this rank: its output partition (summed over
    #: the jobs of a multi-job run; 0 where no sort ran).
    partition_keys: int = 0

    def record_compute(self, seconds: float, label: str | None) -> None:
        if label is None:
            self.other_seconds += seconds
        else:
            self.phase_seconds[label] += seconds

    def record_receive(self, nbytes: int) -> None:
        self.messages_received += 1
        self.bytes_received += nbytes

    def busy_seconds(self) -> float:
        """Total attributed compute time (labelled + unlabelled + send)."""
        return sum(self.phase_seconds.values()) + self.other_seconds + self.send_seconds


@dataclass
class ClusterMetrics:
    """Aggregated view over all ranks, produced by ``Simulator.run``."""

    processes: list[ProcessMetrics]
    makespan: float
    remote_bytes: int
    local_bytes: int
    messages: int

    def peak_memory(self) -> tuple[int, int]:
        """(max resident, max temporary) over ranks, bytes."""
        if not self.processes:
            return 0, 0
        return (
            max(p.memory.peak_resident for p in self.processes),
            max(p.memory.peak_temporary for p in self.processes),
        )

    def communication_seconds(self) -> float:
        """Max over ranks of send occupancy + recv wait: the figure-9 style
        'communication overhead' of a run."""
        if not self.processes:
            return 0.0
        return max(p.send_seconds + p.recv_wait_seconds for p in self.processes)

    def communication_fraction(self) -> float:
        """Share of the makespan spent on communication (0 when empty)."""
        if self.makespan <= 0:
            return 0.0
        return self.communication_seconds() / self.makespan

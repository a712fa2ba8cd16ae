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
    #: Reliable-protocol retransmissions issued by this rank.
    retries: int = 0
    #: Timeout events observed (retry-cap exhaustion, phase deadlines).
    timeouts: int = 0
    #: Outbound messages the fault plan dropped on the wire.
    messages_dropped: int = 0
    #: Outbound messages the fault plan duplicated.
    messages_duplicated: int = 0
    #: True when the fault plan fail-stopped this rank.
    crashed: bool = False
    #: Set when a process-backend rank did *not* carry provenance inside
    #: the packed word (see ``WorkerReport.local_sort_path``): ``"packed"``
    #: — the job's key frame did not fit, keys + perm were exchanged —
    #: or ``"stable"`` — step 1 also ran the slow stable argsort.  None on
    #: the word path, and always under simnet.
    local_sort_path: str | None = None

    def record_compute(self, seconds: float, label: str | None) -> None:
        if label is None:
            self.other_seconds += seconds
        else:
            self.phase_seconds[label] += seconds

    def busy_seconds(self) -> float:
        """Total attributed compute time (labelled + unlabelled + send)."""
        return sum(self.phase_seconds.values()) + self.other_seconds + self.send_seconds

    def wait_seconds(self) -> float:
        """Total time blocked on communication or barriers."""
        return self.recv_wait_seconds + self.barrier_wait_seconds


@dataclass
class ClusterMetrics:
    """Aggregated view over all ranks, produced by ``Simulator.run``."""

    processes: list[ProcessMetrics]
    makespan: float
    remote_bytes: int
    local_bytes: int
    messages: int

    def phase_breakdown(self) -> dict[str, float]:
        """Max-over-ranks seconds per phase (critical-path style, as plotted
        in the paper's step-breakdown figure)."""
        out: dict[str, float] = defaultdict(float)
        for proc in self.processes:
            for label, secs in proc.phase_seconds.items():
                out[label] = max(out[label], secs)
        return dict(out)

    def total_phase_seconds(self, label: str) -> float:
        """Sum over ranks of one phase's seconds."""
        return sum(p.phase_seconds.get(label, 0.0) for p in self.processes)

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

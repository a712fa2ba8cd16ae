"""Network model: per-message overhead, wire latency, NIC serialization.

The paper's testbed (Table I) is a 32-machine cluster on Mellanox Connect-IB
with a 56 Gb/s port per machine through an SX6512 switch.  We model each
machine's NIC as a pair of FIFO resources (one for egress, one for ingress):
a message of ``n`` bytes occupies the sender's egress port for
``n / bandwidth`` seconds, travels the wire for ``latency`` seconds, and then
occupies the receiver's ingress port for ``n / bandwidth`` seconds.  The
switch is modelled as non-blocking (full bisection), which matches a
fat-tree-class director switch like the SX6512 for this message pattern.

All times are virtual seconds; the model is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def gbit_per_s(gbit: float) -> float:
    """Convert a link rate in Gb/s to bytes/second."""
    return gbit * 1e9 / 8.0


@dataclass
class NetworkModel:
    """Timing parameters for the simulated interconnect.

    Defaults approximate the paper's FDR InfiniBand fabric: 56 Gb/s raw per
    port with ~80% protocol efficiency, ~1.5 us port-to-port latency, and a
    small fixed per-message software overhead for the messaging layer.
    """

    #: Effective per-port bandwidth in bytes/second (egress == ingress).
    bandwidth: float = gbit_per_s(56.0) * 0.8
    #: Wire + switch latency per message, seconds.
    latency: float = 1.5e-6
    #: Sender-side software overhead per message, seconds (buffer hand-off).
    per_message_overhead: float = 2.0e-6
    #: Bandwidth used for machine-local transfers (memcpy rate), bytes/s.
    loopback_bandwidth: float = 8e9
    #: Aggregate switch (bisection) bandwidth in bytes/s, or None for a
    #: non-blocking fabric like the paper's SX6512.  An oversubscribed
    #: data-center fabric sets this below ``num_ranks * bandwidth``.
    switch_bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.loopback_bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0 or self.per_message_overhead < 0:
            raise ValueError("latencies must be non-negative")
        if self.switch_bandwidth is not None and self.switch_bandwidth <= 0:
            raise ValueError("switch_bandwidth must be positive when set")

    def serialization_time(self, nbytes: int, *, local: bool = False) -> float:
        """Seconds a NIC port is occupied by an ``nbytes`` transfer."""
        bw = self.loopback_bandwidth if local else self.bandwidth
        return nbytes / bw

    def wire_latency(self, *, local: bool = False) -> float:
        """Propagation delay; local transfers skip the switch."""
        return 0.0 if local else self.latency


@dataclass
class NicState:
    """Mutable FIFO occupancy of one machine's NIC ports."""

    egress_free_at: float = 0.0
    ingress_free_at: float = 0.0

    def reserve_egress(self, now: float, duration: float) -> tuple[float, float]:
        """Reserve the egress port; returns (start, end) of the transfer."""
        start = max(now, self.egress_free_at)
        end = start + duration
        self.egress_free_at = end
        return start, end


@dataclass
class Fabric:
    """Per-rank NIC bookkeeping plus traffic counters for a running cluster."""

    model: NetworkModel
    num_ranks: int
    nics: list[NicState] = field(default_factory=list)
    #: FIFO occupancy of the shared switch (oversubscribed fabrics only).
    switch_free_at: float = 0.0
    #: Total payload bytes that crossed the wire (machine-local excluded).
    remote_bytes: int = 0
    #: Total payload bytes moved between co-located ranks.
    local_bytes: int = 0
    #: Number of messages injected.
    messages: int = 0
    #: Optional structured tracer (set by the engine when tracing is on);
    #: records NIC queue-delay counters.  Untyped to avoid importing obs.
    tracer: Any = field(default=None, repr=False, compare=False)
    #: Optional fault state (set by the engine when a FaultPlan is attached);
    #: degrades per-link serialization/latency.  Untyped to avoid a cycle.
    faults: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        if not self.nics:
            self.nics = [NicState() for _ in range(self.num_ranks)]

    def transfer(self, src: int, dst: int, nbytes: int, now: float) -> tuple[float, float]:
        """Schedule a transfer; returns (sender_done, delivered) times.

        ``sender_done`` is when the sending process regains the CPU for a
        blocking send; ``delivered`` is when the payload is available in the
        destination mailbox.
        """
        # Flattened (no sub-calls): this runs once per simulated message and
        # dominates send cost.  The arithmetic mirrors serialization_time /
        # wire_latency / NicState.reserve_* exactly, term for term, so times
        # are bit-identical to the method-composed form.
        model = self.model
        if src == dst:
            # A self-send is a memcpy through the loopback path: no NIC
            # reservation, no wire.
            sender_done = now + model.per_message_overhead + nbytes / model.loopback_bandwidth
            self.local_bytes += nbytes
            self.messages += 1
            return sender_done, sender_done
        ser = nbytes / model.bandwidth
        latency = model.latency
        faults = self.faults
        if faults is not None:
            ser, latency = faults.degrade(src, dst, ser, latency)
        src_nic = self.nics[src]
        egress_start = now + model.per_message_overhead
        free_at = src_nic.egress_free_at
        if free_at > egress_start:
            egress_start = free_at
        egress_end = egress_start + ser
        src_nic.egress_free_at = egress_end
        # Cut-through switching: the first byte reaches the receiver one wire
        # latency after it leaves the sender, so ingress serialization overlaps
        # egress serialization unless the ingress port is congested (incast).
        first_byte = egress_start + latency
        if model.switch_bandwidth is not None:
            # Oversubscribed fabric: all remote traffic shares one bisection
            # FIFO in addition to the endpoint ports.
            switch_ser = nbytes / model.switch_bandwidth
            start = max(first_byte, self.switch_free_at)
            self.switch_free_at = start + switch_ser
            first_byte = self.switch_free_at
        dst_nic = self.nics[dst]
        free_at = dst_nic.ingress_free_at
        if free_at > first_byte:
            first_byte = free_at
        ingress_end = first_byte + ser
        dst_nic.ingress_free_at = ingress_end
        delivered = egress_end + latency
        if ingress_end > delivered:
            delivered = ingress_end
        self.remote_bytes += nbytes
        self.messages += 1
        tracer = self.tracer
        if tracer is not None:
            # Queue delay = time the message sat waiting for a busy port.
            tracer.counter(
                src,
                now,
                "nic.egress_queue_delay",
                egress_start - (now + model.per_message_overhead),
            )
            tracer.counter(
                dst, now, "nic.ingress_queue_delay", ingress_end - ser - (egress_start + latency)
            )
        return egress_end, delivered

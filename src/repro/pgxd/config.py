"""PGX.D runtime configuration.

The constants mirror what the paper reports about PGX.D's deployment:
a 256 KB read buffer in the data manager (section IV-B: "The size of this
buffer is assigned 256 Kbyte in PGX.D based on measuring different
performances"), 32 worker threads per machine for in-node parallelization
(section V), and asynchronous local/remote requests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

#: The paper's read-buffer size: 256 Kbyte.
READ_BUFFER_BYTES = 256 * 1024


@dataclass(frozen=True)
class PgxdConfig:
    """Tunable knobs of the simulated PGX.D runtime."""

    #: Data-manager read/request buffer size in bytes (paper: 256 KB).
    read_buffer_bytes: int = READ_BUFFER_BYTES
    #: Worker threads per machine used for in-node parallelization.
    threads_per_machine: int = 32
    #: Whether remote sends are asynchronous (PGX.D) or block the worker
    #: (set False only for the ablation benchmarks).
    async_messaging: bool = True
    #: Number of ghost-node candidates per machine during graph loading.
    ghost_node_budget: int = 64
    #: Virtual data multiplier: every real key in the simulation stands for
    #: ``data_scale`` keys of the modeled deployment.  Data-proportional
    #: costs (sorting, merging, exchange bytes, memory) are charged at the
    #: scaled size; protocol traffic (samples, splitters, size
    #: announcements) is not scaled.  This is how the benchmarks run the
    #: paper's 1-billion-key configuration while moving ~2^20 real keys.
    data_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.read_buffer_bytes <= 0:
            raise ValueError("read_buffer_bytes must be positive")
        if self.threads_per_machine < 1:
            raise ValueError("threads_per_machine must be >= 1")
        if self.ghost_node_budget < 0:
            raise ValueError("ghost_node_budget must be >= 0")
        if self.data_scale <= 0:
            raise ValueError("data_scale must be positive")

    def with_overrides(self, **kwargs: Any) -> "PgxdConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def sample_bytes_per_processor(self, num_processors: int) -> int:
        """The paper's sampling budget: ``256KB / p`` bytes per processor.

        This is the volume of regular samples each processor ships to the
        Master so that the Master's receive buffer holds exactly one read
        buffer's worth of samples in total (section IV-B).
        """
        if num_processors < 1:
            raise ValueError("num_processors must be >= 1")
        return max(self.read_buffer_bytes // num_processors, 1)

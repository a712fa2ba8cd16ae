"""Data manager: per-machine storage with memory accounting.

PGX.D's data manager owns the machine-local data (graph CSR, property
arrays, sort buffers) and the request buffers for outgoing messages.  Here
it additionally feeds the memory series of Figure 11: arrays registered as
*resident* count toward RSS; scratch registered as *temporary* counts toward
the temporary pool and must be released before the program ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from ..simnet.metrics import MemoryTracker
from .buffers import RequestBuffer
from .config import PgxdConfig


class DataManager:
    """Named array store + request buffers for one simulated machine."""

    def __init__(self, config: PgxdConfig, memory: MemoryTracker):
        self.config = config
        self.memory = memory
        self._arrays: dict[str, np.ndarray] = {}
        self._scaled_bytes: dict[str, int] = {}
        self._request_buffers: dict[int, RequestBuffer] = {}

    def scaled(self, nbytes: int) -> int:
        """Real bytes -> modeled bytes under the config's data_scale."""
        return int(round(nbytes * self.config.data_scale))

    # ------------------------------------------------------------ arrays

    def store(self, name: str, array: np.ndarray) -> np.ndarray:
        """Register ``array`` as resident data under ``name``.

        The footprint is charged at the *modeled* size (data_scale applied).
        Replacing an existing name frees the old array's footprint first.
        """
        self.reserve(name, int(array.nbytes))
        self._arrays[name] = array
        return array

    def reserve(self, name: str, nbytes: int) -> None:
        """:meth:`store` ``nbytes`` (real) that the model bills but the data
        path does not materialize: no array is held."""
        if name in self._scaled_bytes:
            self.drop(name)
        self._scaled_bytes[name] = self.scaled(nbytes)
        self.memory.alloc(self._scaled_bytes[name])

    def get(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise KeyError(f"no array named {name!r} in data manager") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def drop(self, name: str) -> None:
        """Unregister ``name`` and release its footprint."""
        if name not in self._scaled_bytes:
            raise KeyError(f"no array named {name!r} in data manager")
        self._arrays.pop(name, None)
        self.memory.free(self._scaled_bytes.pop(name))

    def resident_bytes(self) -> int:
        """Modeled resident footprint of the registered arrays."""
        return sum(self._scaled_bytes.values())

    @contextmanager
    def scratch(self, nbytes: int, label: str | None = None) -> Iterator[None]:
        """Account ``nbytes`` (real) of temporary memory for the scope.

        Used for merge buffers and partition staging: allocated during the
        step, freed at its end — the paper's light-blue memory in Figure 11.
        Charged at the modeled (data_scale) size.
        """
        scaled = self.scaled(nbytes)
        self.memory.alloc(scaled, temporary=True)
        try:
            yield
        finally:
            self.memory.free(scaled, temporary=True)

    # --------------------------------------------------------- buffering

    def request_buffer(self, dst: int) -> RequestBuffer:
        """The outgoing request buffer for destination machine ``dst``."""
        buf = self._request_buffers.get(dst)
        if buf is None:
            buf = RequestBuffer(capacity_bytes=self.config.read_buffer_bytes)
            self._request_buffers[dst] = buf
        return buf

    def total_flushes(self) -> int:
        return sum(b.flush_count for b in self._request_buffers.values())

"""Provenance: tracking each key's previous processor and location.

Step 6 of the paper: "all data is merged together while keeping information
regards to their previous processors and locations", and the sorting library
"provides an API for the users to ... [find] information regards to the
previous processors and the previous indexes of the new received data entry".

Processor blocks sit back to back in rank order in the driver's input, so
one number says both: the key's *origin position* in that input.  It rides
along keys through the local sort (inside the packed word, or as the argsort
permutation), the exchange and every merge.  The final :class:`Provenance`
is what makes sort-by-key of payload columns and origin queries possible
without re-sorting; the previous processor and index are derived from the
position only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Provenance:
    """Origin of every key held by one processor after the sort."""

    #: Each key's position in the driver's concatenated input.
    origin: np.ndarray
    #: Where each processor's block starts in that input, and where the
    #: last one ends.
    block_starts: np.ndarray

    def __len__(self) -> int:
        return len(self.origin)

    def nbytes(self) -> int:
        return int(self.origin.nbytes)

    @property
    def origin_proc(self) -> np.ndarray:
        """Processor that held each key before the exchange (int16)."""
        return self._blocks().astype(np.int16)

    @property
    def origin_index(self) -> np.ndarray:
        """Index within the origin processor's *original* (unsorted) block
        (int32)."""
        index = self._starts().take(self._blocks())
        np.subtract(self.origin, index, out=index)
        return index.astype(np.int32, copy=False)

    def _starts(self) -> np.ndarray:
        """The block starts in the positions' dtype, so no search or
        subtraction widens the positions."""
        return self.block_starts.astype(self.origin.dtype)

    def _blocks(self) -> np.ndarray:
        """Each key's block: the last one starting at or before its
        position, so an empty block, which shares its start with the next
        one, holds nothing."""
        blocks = self._starts().searchsorted(self.origin, "right")
        blocks -= 1
        return blocks

    def global_indices(self, input_offsets: np.ndarray) -> np.ndarray:
        """Indices in the driver's concatenated input, given each
        processor's start offset there: :attr:`origin`, once the offsets
        are checked to be the blocks it indexes."""
        if not np.array_equal(np.asarray(input_offsets), self.block_starts[:-1]):
            raise ValueError("input_offsets are not the block starts of this provenance")
        return self.origin

    @classmethod
    def empty(cls) -> "Provenance":
        return cls(np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64))

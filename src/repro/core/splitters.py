"""Step 3: Master-side final splitter selection.

The Master merges the samples received from every processor and picks the
``p-1`` values that divide the merged sample into ``p`` equal slices; these
splitters are then broadcast to all processors.  With duplicate-heavy data
the selected splitters may repeat — that is exactly the case the
investigator (step 4) handles, so duplicates are deliberately *not* removed
here.  Each splitter carries where it sits inside its key's tie in the
merged sample (``at`` of ``of`` tied samples), which is what lets step 4
cut a tie where the global quantile puts it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Tie positions count merged samples: ``p`` × a rank's ``256KB / p``
#: budget, far below 2^31 at any modeled scale.
TIE_DTYPE = np.dtype(np.int32)


def splitter_array(keys: np.ndarray, at, of) -> np.ndarray:
    """Splitters from their keys and tie positions (broadcast as numpy):
    each its ``key``, and its place ``at`` (1-based) among the ``of``
    merged samples equal to that key."""
    keys = np.asarray(keys)
    fields = [("key", keys.dtype), ("at", TIE_DTYPE), ("of", TIE_DTYPE)]
    out = np.empty(len(keys), dtype=fields)
    out["key"], out["at"], out["of"] = keys, at, of
    return out


def merge_samples(sample_lists: Sequence[np.ndarray]) -> np.ndarray:
    """Merge per-processor sample arrays into one sorted array."""
    arrays = [np.asarray(s) for s in sample_lists if len(s)]
    if not arrays:
        return np.empty(0)
    merged = np.concatenate(arrays)
    merged.sort(kind="stable")
    return merged


def select_splitters(sorted_samples: np.ndarray, num_processors: int) -> np.ndarray:
    """Pick ``p-1`` splitters at the p-quantile positions of the samples.

    Splitter ``j`` sits at position ``m = (j+1) * len // p``; data between
    splitter ``j-1`` and splitter ``j`` will be routed to processor ``j``
    (paper Figure 3a).  Its key spans ``[a, b)`` of the merged samples, so
    it is the ``at = m + 1 - a``-th of ``of = b - a`` tied samples; a key
    sampled once has ``at == of == 1``.  An empty sample set yields an
    empty splitter array, in which case all data stays on processor 0's
    range.
    """
    if num_processors < 1:
        raise ValueError("num_processors must be >= 1")
    n = len(sorted_samples)
    if num_processors == 1 or n == 0:
        return splitter_array(sorted_samples[:0], 0, 0)
    if n > np.iinfo(TIE_DTYPE).max:
        raise ValueError(f"{n} merged samples overflow the splitters' tie positions")
    positions = (np.arange(1, num_processors, dtype=np.int64) * n) // num_processors
    positions = np.minimum(positions, n - 1)
    keys = sorted_samples[positions]
    first = sorted_samples.searchsorted(keys, side="left")
    end = sorted_samples.searchsorted(keys, side="right")
    return splitter_array(keys, positions + 1 - first, end - first)

"""Step 2: regular sampling of locally sorted data (paper section IV-B).

Each processor ships regular samples of its sorted data to the Master.  The
paper sizes the sample at exactly ``256KB / p`` — one read buffer divided by
the processor count — so the Master's receive buffer collects precisely one
buffer's worth of samples in total: "large enough to choose the efficient
splitters" without extra communication rounds.

Figure 9's sweep scales this budget by a ``sample_factor`` (0.004X .. 1.4X
in the paper, where X = 256KB/p); the same knob is exposed here.
"""

from __future__ import annotations

import numpy as np

from ..pgxd.config import PgxdConfig


def sample_count(
    config: PgxdConfig,
    num_processors: int,
    itemsize: int,
    sample_factor: float = 1.0,
) -> int:
    """Number of sample *keys* each processor sends to the Master.

    ``sample_factor`` multiplies the paper's X = 256KB/p byte budget.  At
    least one sample is always taken so tiny configurations stay sortable.
    """
    if itemsize <= 0:
        raise ValueError("itemsize must be positive")
    if sample_factor <= 0:
        raise ValueError("sample_factor must be positive")
    budget = config.sample_bytes_per_processor(num_processors) * sample_factor
    return max(int(budget // itemsize), 1)


def select_regular_samples(sorted_keys: np.ndarray, count: int) -> np.ndarray:
    """Pick ``count`` evenly spaced samples from a sorted array.

    Samples sit at positions ``(i+1) * n // (count+1)`` — the interior
    regular-sampling grid of PSRS — so they estimate the local quantiles.
    Returns a copy (samples travel to the Master).  If the array is smaller
    than the requested count the whole array is returned (the grid of
    ``count = n``).  ``sorted_keys`` is an array or anything with its ``take``.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    n = len(sorted_keys)
    count = min(count, n)
    idx = (np.arange(1, count + 1, dtype=np.int64) * n) // (count + 1)
    return sorted_keys.take(idx)

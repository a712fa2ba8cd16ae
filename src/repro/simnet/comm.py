"""Payload sizing: :func:`nbytes_of` estimates wire sizes for the
collectives and PGX.D facades."""

from __future__ import annotations

from typing import Any

import numpy as np

#: Assumed wire size of an opaque small Python object (headers, ints, ...).
_SCALAR_BYTES = 8
_FALLBACK_BYTES = 64


def nbytes_of(obj: Any) -> int:
    """Estimate the wire size of a payload in bytes.

    numpy arrays report their exact buffer size; scalars count as 8 bytes;
    flat containers are summed recursively.  The estimate is used only for
    *timing* — payloads themselves travel by reference, so accuracy within a
    small constant factor is sufficient for non-array control messages.
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return _SCALAR_BYTES
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, (list, tuple)):
        return sum(nbytes_of(item) for item in obj) + _SCALAR_BYTES
    if isinstance(obj, dict):
        return sum(nbytes_of(k) + nbytes_of(v) for k, v in obj.items()) + _SCALAR_BYTES
    return _FALLBACK_BYTES

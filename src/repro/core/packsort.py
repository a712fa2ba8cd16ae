"""Bit-identical packed fast path for the stable sort-with-permutation.

``argsort(kind="stable")`` plus a gather is the semantic contract of the
data plane (step 1 must keep provenance), but it is ~15x slower than
``np.sort`` on a rank block.  The same result is available from one
vectorized sort of unique int64 words, in two stages:

1. **Key codec** (:func:`order_preserving_codes`): map every key to an
   integer *code* such that ``code(a) < code(b)`` exactly when ``a`` sorts
   before ``b`` under the stable comparison, and equal-comparing keys share
   a code.  Signed and unsigned ints are their own code.  float32/float64
   reinterpret their sign-magnitude bits as two's complement
   (``where(bits < 0, -(bits & MAG), bits & MAG)``), which folds −0.0 and
   +0.0 into code 0 just as ``<`` does; every NaN, whatever its sign or
   payload, takes the one canonical quiet-NaN code above +inf, matching
   the sort's "NaNs last, in input order".
2. **Pack** each code with its position into one int64 —

       packed = (code << shift) | index        (shift = bits needed for n)

   — whose numeric order is the lexicographic ``(code, index)`` order,
   i.e. the *stable* comparison.  The packed words are unique, so
   ``np.sort``'s default vectorized kernel (unstable, but instability is
   unobservable on unique values) yields a deterministic result whose low
   bits are the stable permutation.  Integer sorted keys unpack from the
   high bits; float sorted keys are gathered as ``keys[order]`` so −0.0
   and NaN payloads come back bit for bit.

The single precondition is **bits(coded key range) + bits(n) ≤ 62**.
Narrow ints and float32 always meet it; int64/uint64 meet it when their
values do.  A float64 code is 63 bits wide, so a block that fails the
plain range test gets one more chance: the trailing zero bits common to
every code (``ctz`` of their OR) are stripped by an exact arithmetic
shift, which is what lets integral, low-precision and float32-valued
float64 keys fit.  Full-mantissa float64, uint64 ≥ 2^63 and every
other dtype kind do not fit; :func:`packed_stable_sort` returns
``None`` for them and :func:`stable_sort_with_order` — the one step-1
kernel both substrates call — falls back to the plain stable argsort.
Either way the output arrays are bit-identical, so the golden
fingerprints cannot tell which path ran.  On mostly-sorted data the
adaptive stable kernel wins, so merge call sites keep using it directly.
"""

from __future__ import annotations

import numpy as np

from .scratch import shared_arange

#: itemsize → (bit-pattern int type, +inf bits, canonical quiet-NaN bits).
_FLOAT_LAYOUT = {
    4: (np.int32, 0x7F80_0000, 0x7FC0_0000),
    8: (np.int64, 0x7FF0_0000_0000_0000, 0x7FF8_0000_0000_0000),
}


def order_preserving_codes(keys: np.ndarray) -> np.ndarray | None:
    """Integer codes ordered and tied exactly like ``keys`` under a stable sort.

    Int and uint keys are returned as they are (no pass, no copy); native
    float32/float64 keys get a fresh int32/int64 array.  ``None`` for
    every other dtype.
    """
    dtype = keys.dtype
    if dtype.kind in "iu":
        return keys
    if dtype.kind != "f" or dtype.itemsize not in _FLOAT_LAYOUT or not dtype.isnative:
        return None
    int_t, inf_bits, nan_bits = _FLOAT_LAYOUT[dtype.itemsize]
    bits = keys.view(int_t)
    sign = bits >> (8 * dtype.itemsize - 1)  # 0 for +x, -1 for -x
    codes = bits & np.iinfo(int_t).max  # magnitude
    has_nan = codes.max() > inf_bits
    # Negate the magnitude where the sign bit was set: (m ^ -1) - (-1) = -m.
    codes ^= sign
    codes -= sign
    if has_nan:
        np.putmask(codes, np.isnan(keys), nan_bits)
    return codes


def packed_stable_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Return ``(sorted_keys, stable_order)`` via code/index packing.

    Equivalent to ``order = keys.argsort(kind="stable")`` followed by
    ``keys[order]`` — same bytes, same tie resolution.  Returns ``None``
    when the packing precondition fails (no codec for the dtype, or the
    coded key range could collide with the index bits), in which case the
    caller must run the stable argsort itself.  ``stable_order`` is int64.
    """
    n = len(keys)
    if n < 2:
        return None
    shift = (n - 1).bit_length()
    # Conservative headroom test: |code| << shift must stay well inside
    # int64 (one spare bit), and huge inputs would not profit anyway.
    if shift > 40:
        return None
    codes = order_preserving_codes(keys)
    if codes is None:
        return None
    is_float = keys.dtype.kind == "f"
    limit = 1 << (62 - shift)
    lo, hi = int(codes.min()), int(codes.max())
    if hi >= limit or lo < -limit:
        if not is_float:
            return None
        # Float codes carry the mantissa's unused low bits as common
        # trailing zeros; dropping them is an exact, order-preserving shift.
        any_bit = int(np.bitwise_or.reduce(codes))
        strip = (any_bit & -any_bit).bit_length() - 1
        if (hi >> strip) >= limit or (lo >> strip) < -limit:
            return None
        codes >>= strip
    # Float64 codes are the codec's own fresh int64 array: shift in place.
    reuse = codes if is_float and codes.dtype == np.int64 else None
    packed = np.left_shift(codes, shift, out=reuse, dtype=np.int64)
    # Low ``shift`` bits of the shifted code are zero, so OR-ing the index
    # is an exact add; two's-complement shifts keep negative codes ordered.
    packed |= shared_arange(n)
    packed.sort()
    index_mask = (1 << shift) - 1
    if is_float:
        packed &= index_mask
        return keys[packed], packed
    sorted_keys = np.empty(n, dtype=keys.dtype)
    np.right_shift(packed, shift, out=sorted_keys, casting="unsafe")
    packed &= index_mask
    return sorted_keys, packed


def stable_sort_with_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
    """Step 1's kernel: ``(sorted_keys, stable_order, path)``; always returns.

    ``path`` names which kernel produced the (bit-identical) result:
    ``"packed"``, or ``"stable"`` when :func:`packed_stable_sort` declined
    and the plain stable argsort + gather ran.
    """
    packed = packed_stable_sort(keys)
    if packed is not None:
        return (*packed, "packed")
    order = keys.argsort(kind="stable")
    return keys[order], order, "stable"

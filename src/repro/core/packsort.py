"""Packed words: a stable sort, and a stable merge, as one plain sort.

``argsort(kind="stable")`` plus a gather is the semantic contract of the
data plane (steps 1 and 6 must keep provenance), but it is ~10x slower
than ``np.sort`` on a rank block.  The same result is available from a
vectorized sort of unique int64 words, in three stages:

1. **Key codec** (:func:`order_preserving_codes`): map every key to an
   integer *code* such that ``code(a) < code(b)`` exactly when ``a`` sorts
   before ``b`` under the stable comparison, and equal-comparing keys share
   a code.  Signed and unsigned ints are their own code.  float32/float64
   reinterpret their sign-magnitude bits as two's complement
   (``where(bits < 0, -(bits & MAG), bits & MAG)``), which folds −0.0 and
   +0.0 into code 0 just as ``<`` does; every NaN, whatever its sign or
   payload, takes the one canonical quiet-NaN code above +inf, matching
   the sort's "NaNs last, in input order".
2. **Key frame** (:func:`derive_key_frame`): from the
   ``(code_min, code_max, code_or, len)`` of every participating block
   (:func:`block_code_stats`) derive how the words are laid out —

       word = (code >> strip) << (rank_bits + idx_bits)
              | rank << idx_bits | index

   with ``idx_bits = bits(longest block − 1)`` and ``rank_bits =
   bits(p − 1)`` (zero for a single block).  The numeric order of words
   is the lexicographic ``(code, rank, index)`` order: within one block
   the *stable* sort order, across rank-ordered blocks the *stable merge*
   order — the unique (key, PE, position) triple of Axtmann et al.
   (PAPERS.md), in one machine word.  Every participant derives the same
   frame from the same statistics, so no coordination beyond exchanging
   them is needed.
3. **Pack, sort, unpack** (:func:`pack_words`, any sort,
   :func:`unpack_provenance` + :func:`decode_keys`): the words are
   unique, so the sort kind is unobservable — ``np.sort``'s default
   vectorized kernel for one unsorted block, :func:`sort_runs_in_place`
   for a buffer of already sorted runs.  Origin index and rank unpack by
   mask and shift.  Integer keys are the word's high bits; float keys
   invert the codec (undo the strip; a negative code ``c`` becomes
   ``SIGN | -c``).  Two codes are **lossy**: 0 (−0.0 and +0.0) and the
   NaN code (every sign and payload).  In sorted words each occupies one
   contiguous range, found by binary search, and exactly those keys are
   refilled bit for bit from the unsorted input through the provenance
   in the word — nothing else is gathered.

The single precondition is **bits(coded key range) + idx_bits +
rank_bits ≤ 62** (one spare bit of headroom, and ``idx_bits + rank_bits
≤ 40``).  Narrow ints and float32 always meet it; int64/uint64 meet it
when their values do.  A float64 code is 63 bits wide, so a frame that
fails the plain range test gets one more chance: the trailing zero bits
common to every code (``ctz`` of their OR) are stripped by an exact
arithmetic shift, which is what lets integral, low-precision and
float32-valued float64 keys fit.  Full-mantissa float64, uint64 ≥ 2^63
and every other dtype kind do not fit.

Two callers share this one implementation.  :func:`packed_stable_sort`
is the single-block case (``rank_bits = 0``): it returns ``None`` when
the frame declines and :func:`stable_sort_with_order` — step 1 of simnet
and of the process backend's fallback — then runs the plain stable
argsort; either way the output arrays are bit-identical, so the golden
fingerprints cannot tell which path ran.  The process backend's *word
path* (:mod:`repro.parallel.worker`) is the multi-block case: the frame
comes from an allgather, the words travel through the step-5 exchange,
and step 6 sorts them in place in shared memory and unpacks once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scratch import shared_arange

#: itemsize → (bit-pattern int type, +inf bits, canonical quiet-NaN bits).
_FLOAT_LAYOUT = {
    4: (np.int32, 0x7F80_0000, 0x7FC0_0000),
    8: (np.int64, 0x7FF0_0000_0000_0000, 0x7FF8_0000_0000_0000),
}


def has_key_codec(dtype) -> bool:
    """Whether :func:`order_preserving_codes` covers ``dtype`` at all."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        return dtype.itemsize in _FLOAT_LAYOUT and dtype.isnative
    return dtype.kind in "iu"


def order_preserving_codes(keys: np.ndarray) -> np.ndarray | None:
    """Integer codes ordered and tied exactly like ``keys`` under a stable sort.

    Int and uint keys are returned as they are (no pass, no copy); native
    float32/float64 keys get a fresh int32/int64 array.  ``None`` for
    every other dtype.
    """
    dtype = keys.dtype
    if not has_key_codec(dtype):
        return None
    if dtype.kind != "f":
        return keys
    int_t, inf_bits, nan_bits = _FLOAT_LAYOUT[dtype.itemsize]
    bits = keys.view(int_t)
    sign = bits >> (8 * dtype.itemsize - 1)  # 0 for +x, -1 for -x
    codes = bits & np.iinfo(int_t).max  # magnitude
    has_nan = len(codes) > 0 and codes.max() > inf_bits
    # Negate the magnitude where the sign bit was set: (m ^ -1) - (-1) = -m.
    codes ^= sign
    codes -= sign
    if has_nan:
        np.putmask(codes, np.isnan(keys), nan_bits)
    return codes


@dataclass(frozen=True)
class KeyFrame:
    """How one job packs ``(code, rank, index)`` into a unique int64 word.

    ``word = (code >> strip) << (rank_bits + idx_bits) | rank << idx_bits
    | index``.  Every participant derives the same frame from the same
    block statistics (:func:`derive_key_frame`), so words packed on
    different ranks compare as the triple ``(key, rank, index)`` — the
    order a stable merge of the rank-ordered runs produces.
    """

    dtype: np.dtype
    #: Trailing zero bits common to every float code, dropped before the
    #: pack (0 for ints and for floats that fit without it).
    strip: int
    idx_bits: int
    rank_bits: int
    #: Some code is negative: float decoding must restore sign bits.
    has_negative: bool
    #: Some float key is a NaN: the top code is the canonical NaN code.
    has_nan: bool

    @property
    def shift(self) -> int:
        """Bits below the code: rank tag + index."""
        return self.idx_bits + self.rank_bits


def block_code_stats(codes: np.ndarray, is_float: bool) -> tuple[int, int, int, int]:
    """``(code_min, code_max, code_or, len)`` of one block — the frame's input.

    ``code_or`` is only read for float codes (the trailing-zero strip), so
    integer blocks skip that pass and report 0.
    """
    n = len(codes)
    if n == 0:
        return 0, 0, 0, 0
    any_bit = int(np.bitwise_or.reduce(codes)) if is_float else 0
    return int(codes.min()), int(codes.max()), any_bit, n


def derive_key_frame(
    block_stats: Sequence[tuple[int, int, int, int]], dtype, num_ranks: int
) -> KeyFrame | None:
    """The job's key frame, or ``None`` when the words would not fit.

    Fits when bits(coded range) + idx_bits + rank_bits ≤ 62, i.e. every
    shifted code stays inside int64 with one spare bit:
    ``-limit ≤ code < limit`` for ``limit = 2**(62 - shift)``.  A float
    frame that fails the plain test strips the trailing zeros common to
    all codes (``ctz`` of the OR over every block) and tests again.
    Empty blocks contribute no range.
    """
    dtype = np.dtype(dtype)
    live = [stats for stats in block_stats if stats[3]]
    max_len = max((stats[3] for stats in live), default=0)
    idx_bits = max(max_len - 1, 0).bit_length()
    rank_bits = (num_ranks - 1).bit_length()
    shift = idx_bits + rank_bits
    # Conservative headroom: huge inputs would not profit anyway.
    if shift > 40:
        return None
    limit = 1 << (62 - shift)
    lo = min((stats[0] for stats in live), default=0)
    hi = max((stats[1] for stats in live), default=0)
    strip = 0
    if hi >= limit or lo < -limit:
        if dtype.kind != "f":
            return None
        # Float codes carry the mantissa's unused low bits as common
        # trailing zeros; dropping them is an exact, order-preserving shift.
        any_bit = 0
        for stats in live:
            any_bit |= stats[2]
        strip = (any_bit & -any_bit).bit_length() - 1
        if (hi >> strip) >= limit or (lo >> strip) < -limit:
            return None
    has_nan = dtype.kind == "f" and hi == _FLOAT_LAYOUT[dtype.itemsize][2]
    return KeyFrame(dtype, strip, idx_bits, rank_bits, lo < 0, has_nan)


def pack_words(
    codes: np.ndarray,
    frame: KeyFrame,
    rank: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Pack one block's codes into words; sort them to sort the block.

    Float64 codes are the codec's own fresh int64 array and are packed in
    place; every other dtype is packed into ``out`` (an int64 buffer of
    the block's length), or into a fresh array without one.
    """
    if frame.strip:
        codes >>= frame.strip  # float codes are always the codec's own array
    if frame.dtype.kind == "f" and codes.dtype == np.int64:
        out = codes
    words = np.left_shift(codes, frame.shift, out=out, dtype=np.int64)
    # The low ``shift`` bits of a shifted code are zero, so OR-ing rank
    # tag and index is an exact add; two's-complement shifts keep negative
    # codes ordered.
    words |= shared_arange(len(codes))
    if rank:
        words |= rank << frame.idx_bits
    return words


def unpack_provenance(
    words: np.ndarray,
    frame: KeyFrame,
    index_out: np.ndarray,
    proc_out: np.ndarray | None = None,
) -> None:
    """Origin index (and origin rank) of every word, by mask and shift.

    ``index_out`` may be ``words`` itself (unpacked last, in place).
    """
    if proc_out is not None:
        np.right_shift(words, frame.idx_bits, out=proc_out, casting="unsafe")
        proc_out &= (1 << frame.rank_bits) - 1
    np.bitwise_and(
        words, (1 << frame.idx_bits) - 1, out=index_out, casting="unsafe"
    )


def decode_keys(
    words: np.ndarray,
    frame: KeyFrame,
    out: np.ndarray,
    source: np.ndarray,
    block_starts: np.ndarray,
) -> int:
    """Keys of **sorted** ``words`` into ``out``; returns how many were refilled.

    Integer keys are the word's high bits.  Float keys invert the codec:
    undo the strip, then turn each negative code ``c`` back into
    sign-magnitude bits, ``SIGN | -c``.  Two codes are lossy — 0 (−0.0 and
    +0.0) and the canonical NaN code (every sign and payload) — and since
    the words are sorted their positions are two contiguous ranges: those
    keys are refilled bit for bit from ``source`` (the unsorted input) at
    ``block_starts[rank] + index``.  ``out`` may share memory with
    ``words`` (8-byte keys decode in place); the refill positions are read
    before the words are overwritten.
    """
    if frame.dtype.kind != "f":
        np.right_shift(words, frame.shift, out=out, casting="unsafe")
        return 0
    int_t, _inf_bits, nan_bits = _FLOAT_LAYOUT[frame.dtype.itemsize]
    idx_mask = (1 << frame.idx_bits) - 1
    rank_mask = (1 << frame.rank_bits) - 1
    zero_lo, zero_hi = np.searchsorted(words, [0, 1 << frame.shift])
    lossy_ranges = [(zero_lo, zero_hi)]
    if frame.has_nan:
        nan_word = (nan_bits >> frame.strip) << frame.shift
        lossy_ranges.append((np.searchsorted(words, nan_word), len(words)))
    refills = []
    for lo, hi in lossy_ranges:
        if hi > lo:
            lossy = words[lo:hi]
            starts = block_starts[(lossy >> frame.idx_bits) & rank_mask]
            refills.append((lo, hi, starts + (lossy & idx_mask)))
    bits = out.view(int_t)
    np.right_shift(words, frame.shift, out=bits, casting="unsafe")
    if frame.strip:
        bits <<= frame.strip
    if frame.has_negative:
        # Sign-magnitude bits of a negative code c: SIGN | -c == INT_MIN - c.
        np.subtract(np.iinfo(int_t).min, bits, out=bits, where=bits < 0)
    for lo, hi, positions in refills:
        out[lo:hi] = source[positions]
    return sum(hi - lo for lo, hi, _ in refills)


#: Up to this many nonempty sorted runs, timsort's galloping merge
#: (``kind="stable"``) beats the default vectorised sort on the
#: concatenation (2M int64 words, this repo's 2-vCPU recorder: k = 2
#: 11.0 vs 17.3 ms, k = 4 20.7 vs 30.7 ms, k = 5 22.5 vs 17.1 ms,
#: k = 16 42.5 vs 22.8 ms; at 60k words the two are within 0.1 ms up to
#: k = 4 and the default wins beyond).
GALLOP_MAX_RUNS = 4


def sort_runs_in_place(buffer: np.ndarray, run_lengths: Sequence[int]) -> None:
    """Sort a buffer of back-to-back sorted runs where it lies.

    For callers to whom the sort kind is unobservable — unique packed
    words, or values-only integer keys — so the kernel is picked by run
    count alone: the run-adaptive stable sort for few runs, the default
    kernel for many.
    """
    runs = sum(1 for length in run_lengths if length)
    buffer.sort(kind="stable" if runs <= GALLOP_MAX_RUNS else None)


_ONE_BLOCK = np.zeros(1, dtype=np.int64)


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
    codes = order_preserving_codes(keys)
    if codes is None:
        return None
    stats = block_code_stats(codes, keys.dtype.kind == "f")
    frame = derive_key_frame([stats], keys.dtype, 1)
    if frame is None:
        return None
    words = pack_words(codes, frame)
    words.sort()
    sorted_keys = np.empty(n, dtype=keys.dtype)
    decode_keys(words, frame, sorted_keys, keys, _ONE_BLOCK)
    unpack_provenance(words, frame, words)
    return sorted_keys, words


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

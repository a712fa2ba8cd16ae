"""Packed words: a stable sort, and a stable merge, as one plain sort.

``argsort(kind="stable")`` plus a gather is the semantic contract of the
data plane (steps 1 and 6 must keep provenance), but it is ~10x slower
than ``np.sort`` on a rank block.  The same result is available from a
vectorized sort of unique int64 words, in three stages:

1. **Key codec** (:func:`code_and_stats`): map every key to an
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
   (folded while it is coded) derive how the words are laid out —

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
   :func:`unpack_words`): the words are unique, so the sort kind is
   unobservable — ``np.sort``'s default vectorized kernel for one unsorted
   block, :func:`sort_runs_in_place` for a buffer of already sorted runs.
   Origin index and rank unpack by mask and shift.  Integer keys are the
   word's high bits; float keys invert the codec (undo the strip; a
   negative code ``c`` becomes ``SIGN | -c``).  Two codes are **lossy**:
   0 (−0.0 and +0.0) and the NaN code (every sign and payload).  In
   sorted words each occupies one contiguous range, found by binary
   search, and exactly those keys are refilled bit for bit from the
   unsorted input through the provenance in the word — nothing else is
   gathered.

Each of the three kernels — code + stats, pack, unpack — is one loop over
chunks of :data:`CHUNK_KEYS` keys: all its elementwise operations and
reductions run on a chunk while it is cache-resident, so a key crosses
memory once per kernel however many numpy calls that takes.  Between the
sort and the unpack nothing is decoded: :class:`SortedWords` answers what
steps 2–4 ask of a sorted block — the keys at some positions, the
positions of some needles — from the words, under the ``ndarray`` method
names, so the step kernels serve plain arrays and words alike.

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
path* (:mod:`repro.parallel.datapath`) is the multi-block case: the frame
comes from an allgather, steps 2–4 read the sorted words, the words
travel through the step-5 exchange, and step 6 sorts them in place in
shared memory and unpacks once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: itemsize → (bit-pattern int type, +inf bits, canonical quiet-NaN bits).
_FLOAT_LAYOUT = {
    4: (np.int32, 0x7F80_0000, 0x7FC0_0000),
    8: (np.int64, 0x7FF0_0000_0000_0000, 0x7FF8_0000_0000_0000),
}

#: Keys per kernel chunk: 32 Ki keys = 256 KiB per 8-byte stream, so a
#: chunk's input, output and temporaries sit in L2 together.  Measured on
#: this repo's 2-vCPU recorder (2 MiB L2 per core; 2M keys through code +
#: stats → pack → unpack, the sort excluded): float64 4 Ki 22.6 ms, 16 Ki
#: 15.5, 32 Ki 15.7, 64 Ki 18.6, 256 Ki 22.6, one chunk 22.9; int64 4 Ki
#: 15.0, 16 Ki 11.2, 32 Ki 10.3, 64 Ki 11.3, one chunk 11.9.  A power of
#: two, so chunk bases OR into the index bits exactly.
CHUNK_KEYS = 1 << 15

#: The index bits of one chunk; a chunk's base is OR-ed on as a scalar.
_RAMP = np.arange(CHUNK_KEYS, dtype=np.int64)


def has_key_codec(dtype) -> bool:
    """Whether :func:`code_and_stats` covers ``dtype`` at all."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        return dtype.itemsize in _FLOAT_LAYOUT and dtype.isnative
    return dtype.kind in "iu"


def code_and_stats(
    keys: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """Kernel 1: ``(codes, (code_min, code_max, code_or, len))`` of one block.

    The codes are integers ordered and tied exactly like ``keys`` under a
    stable sort; the statistics are the block's input to
    :func:`derive_key_frame`, folded chunk by chunk while the codes are
    cache-resident.  Int and uint keys are their own codes (``keys`` is
    returned: one read, no write); native float32/float64 codes are
    written to ``out``, an int64 buffer of the block's length, and
    ``code_or`` is only folded for them (the trailing-zero strip).  Other
    dtypes have no code: ask :func:`has_key_codec` first.
    """
    dtype = keys.dtype
    codes, is_float = keys, dtype.kind == "f"
    if is_float:
        int_t, inf_bits, nan_bits = _FLOAT_LAYOUT[dtype.itemsize]
        bits, codes = keys.view(int_t), out
    code_min = code_max = code_or = 0
    for lo in range(0, len(keys), CHUNK_KEYS):
        chunk = codes[lo : lo + CHUNK_KEYS]
        if is_float:
            raw = bits[lo : lo + CHUNK_KEYS]
            sign = raw >> (8 * dtype.itemsize - 1)  # 0 for +x, -1 for -x
            np.bitwise_and(raw, np.iinfo(int_t).max, out=chunk)  # magnitude
            # Negate it where the sign bit was set: (m ^ -1) - (-1) = -m.
            chunk ^= sign
            chunk -= sign
        chunk_min, chunk_max = int(chunk.min()), int(chunk.max())
        if is_float:
            if chunk_max > inf_bits or chunk_min < -inf_bits:
                np.putmask(chunk, np.isnan(keys[lo : lo + CHUNK_KEYS]), nan_bits)
                chunk_min, chunk_max = int(chunk.min()), nan_bits
            code_or |= int(np.bitwise_or.reduce(chunk))
        code_min = min(code_min, chunk_min) if lo else chunk_min
        code_max = max(code_max, chunk_max) if lo else chunk_max
    return codes, (code_min, code_max, code_or, len(keys))


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
    codes: np.ndarray, frame: KeyFrame, rank: int, out: np.ndarray
) -> np.ndarray:
    """Kernel 2: pack one block's codes into ``out``; sort it to sort the block.

    ``out`` is the int64 buffer :func:`code_and_stats` was handed: float
    codes already live there and are packed in place; int keys, their own
    codes, are read once and never modified.
    """
    tag = rank << frame.idx_bits
    for lo in range(0, len(codes), CHUNK_KEYS):
        chunk = out[lo : lo + CHUNK_KEYS]
        if frame.strip:
            np.right_shift(codes[lo : lo + CHUNK_KEYS], frame.strip, out=chunk)
            chunk <<= frame.shift
        else:
            np.left_shift(
                codes[lo : lo + CHUNK_KEYS], frame.shift, out=chunk, dtype=np.int64
            )
        # The low ``shift`` bits of a shifted code are zero and chunk bases
        # are multiples of the ramp's power-of-two length, so OR-ing index,
        # base and rank tag is an exact add; two's-complement shifts keep
        # negative codes ordered.
        chunk |= _RAMP[: len(chunk)]
        if tag | lo:
            chunk |= tag | lo
    return out


def _decode_keys(words: np.ndarray, frame: KeyFrame, keys: np.ndarray) -> None:
    """Keys of ``words`` into ``keys`` (may be ``words`` itself, viewed).

    Integer keys are the word's high bits.  Float keys invert the codec:
    undo the strip, then turn each negative code ``c`` back into
    sign-magnitude bits, ``SIGN | -c == INT_MIN - c``.  The two lossy
    codes come out as +0.0 and the canonical NaN.
    """
    is_float = frame.dtype.kind == "f"
    bits = keys.view(_FLOAT_LAYOUT[frame.dtype.itemsize][0]) if is_float else keys
    np.right_shift(words, frame.shift, out=bits, casting="unsafe")
    if frame.strip:
        bits <<= frame.strip
    if frame.has_negative and is_float:
        np.subtract(np.iinfo(bits.dtype).min, bits, out=bits, where=bits < 0)


def _origins(words: np.ndarray, frame: KeyFrame, block_starts: np.ndarray) -> np.ndarray:
    """Where each word's key sits in the unsorted input: its block + index."""
    ranks = (words >> frame.idx_bits) & ((1 << frame.rank_bits) - 1)
    return block_starts[ranks] + (words & ((1 << frame.idx_bits) - 1))


def unpack_words(
    words: np.ndarray,
    frame: KeyFrame,
    source: np.ndarray,
    block_starts: np.ndarray,
    keys_out: np.ndarray,
    index_out: np.ndarray,
    proc_out: np.ndarray | None = None,
) -> int:
    """Kernel 3: keys, origin index (and origin rank) of **sorted** ``words``.

    One read of the words per chunk yields all three.  Two float codes are
    lossy — 0 (−0.0 and +0.0) and the canonical NaN code (every sign and
    payload) — and since the words are sorted their positions are two
    contiguous ranges: those keys are refilled bit for bit from ``source``
    (the unsorted input) at ``block_starts[rank] + index``; the number
    refilled is returned.  ``keys_out`` or ``index_out`` may be ``words``
    itself (8-byte keys decode in place, chunk by chunk, last); the refill
    positions are read before any word is overwritten.
    """
    refills = []
    if frame.dtype.kind == "f":
        lossy_ranges = [words.searchsorted([0, 1 << frame.shift])]
        if frame.has_nan:
            nan_code = _FLOAT_LAYOUT[frame.dtype.itemsize][2] >> frame.strip
            lossy_ranges.append((words.searchsorted(nan_code << frame.shift), len(words)))
        refills = [
            (lo, hi, _origins(words[lo:hi], frame, block_starts))
            for lo, hi in lossy_ranges
            if hi > lo
        ]
    idx_mask = (1 << frame.idx_bits) - 1
    keys_last = np.may_share_memory(keys_out, words)
    for lo in range(0, len(words), CHUNK_KEYS):
        chunk, index = words[lo : lo + CHUNK_KEYS], index_out[lo : lo + CHUNK_KEYS]
        if proc_out is not None:
            proc = proc_out[lo : lo + CHUNK_KEYS]
            np.right_shift(chunk, frame.idx_bits, out=proc, casting="unsafe")
            proc &= (1 << frame.rank_bits) - 1
        if keys_last:
            np.bitwise_and(chunk, idx_mask, out=index, casting="unsafe")
        _decode_keys(chunk, frame, keys_out[lo : lo + CHUNK_KEYS])
        if not keys_last:
            np.bitwise_and(chunk, idx_mask, out=index, casting="unsafe")
    for lo, hi, positions in refills:
        keys_out[lo:hi] = source[positions]
    return sum(hi - lo for lo, hi, _ in refills)


@dataclass(frozen=True)
class SortedWords:
    """One sorted block, read through its packed words, never decoded whole.

    Answers what steps 2–4 ask of a rank's sorted keys under the
    ``ndarray`` method names, so the step kernels take either.
    """

    words: np.ndarray
    frame: KeyFrame
    #: The unsorted input and each rank's offset in it, as for
    #: :func:`unpack_words`: lossy codes are refilled from there.
    source: np.ndarray
    block_starts: np.ndarray

    @property
    def dtype(self) -> np.dtype:
        return self.frame.dtype

    def __len__(self) -> int:
        return len(self.words)

    def take(self, positions: np.ndarray) -> np.ndarray:
        """The keys at ``positions``, bit for bit; only those are decoded."""
        frame = self.frame
        picked = self.words.take(positions)
        keys = np.empty(len(picked), dtype=frame.dtype)
        _decode_keys(picked, frame, keys)
        if frame.dtype.kind == "f":
            stored = picked >> frame.shift
            lossy = stored == 0
            if frame.has_nan:
                lossy |= stored == _FLOAT_LAYOUT[frame.dtype.itemsize][2] >> frame.strip
            at = np.flatnonzero(lossy)
            keys[at] = self.source[_origins(picked[at], frame, self.block_starts)]
        return keys

    def searchsorted(self, needles: np.ndarray, side: str = "left") -> np.ndarray:
        """Positions of ``needles`` (of the block's dtype), in one search.

        A stored code is ``code >> strip``, so a key sorts at or before a
        needle of code ``c`` when its own is below ``(c >> strip) + 1`` —
        a bound that, shifted, is a word — and strictly before it when at
        or before ``c - 1``.  Bounds beyond the frame's ``±2**(62 - shift)``
        (another dataset's splitters) stop there and answer ``0`` or
        ``len``.  The needles are a handful of splitters, so the bounds
        are exact Python integers: no dtype can overflow, and a 60k-key
        job pays three numpy calls per probe, not ten.
        """
        frame = self.frame
        codes = np.asarray(needles, dtype=frame.dtype)
        if frame.dtype.kind == "f":
            codes = code_and_stats(codes, np.empty(len(codes), dtype=np.int64))[0]
        limit, before = 1 << (62 - frame.shift), side == "left"
        bounds = [
            min(max((code - before >> frame.strip) + 1, -limit), limit) << frame.shift
            for code in codes.tolist()
        ]
        return self.words.searchsorted(np.array(bounds, dtype=np.int64))


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
    words — so the kernel is picked by run count alone: the run-adaptive
    stable sort for few runs, the default kernel for many.
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
    if n < 2 or not has_key_codec(keys.dtype):
        return None
    words = np.empty(n, dtype=np.int64)
    codes, stats = code_and_stats(keys, words)
    frame = derive_key_frame([stats], keys.dtype, 1)
    if frame is None:
        return None
    pack_words(codes, frame, 0, words).sort()
    sorted_keys = np.empty(n, dtype=keys.dtype)
    unpack_words(words, frame, keys, _ONE_BLOCK, sorted_keys, words)
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

"""Packed words: a stable sort, and a stable merge, as one plain sort.

``argsort(kind="stable")`` plus a gather is the semantic contract of the
data plane (steps 1 and 6 must keep provenance), but it is ~10x slower
than ``np.sort`` on a rank block.  The same result is available from a
vectorized sort of unique int32 or int64 words, in three stages:

1. **Key codec** (:func:`key_codes`): map every key to an integer
   *code* such that ``code(a) < code(b)`` exactly when ``a`` sorts
   before ``b`` under the stable comparison, and equal-comparing keys share
   a code.  Signed and unsigned ints are their own code.  float32/float64
   reinterpret their sign-magnitude bits as two's complement
   (``where(bits < 0, -(bits & MAG), bits & MAG)``), which folds −0.0 and
   +0.0 into code 0 just as ``<`` does; every NaN, whatever its sign or
   payload, takes the one canonical quiet-NaN code above +inf, matching
   the sort's "NaNs last, in input order".  No block's codes are ever
   stored: :func:`block_stats` reads the statistics below straight off
   the keys, and :func:`pack_words` codes each chunk on its way into the
   words.
2. **Key frame** (:func:`derive_key_frame`): from the
   ``(code_min, code_max, code_or, len, inexact)`` of every participating
   block derive how the words are laid out —

       word = (code >> strip) << pos_bits | position

   with ``pos_bits = bits(n − 1)`` for the ``n`` keys of all blocks and
   ``position`` the key's place in their concatenation (its block's
   start plus its index there).  Blocks are contiguous in rank order, so
   the numeric order of words is the ``(code, position)`` order: within
   one block the *stable* sort order, across rank-ordered blocks the
   *stable merge* order — Axtmann et al.'s unique (key, PE, position)
   triple (PAPERS.md) with PE and position folded into one, in one
   machine word as wide as the frame needs: int32 when stored code and
   position fit in 30 bits, int64 otherwise.  Every participant derives
   the same frame from the same statistics, so no coordination beyond
   exchanging them is needed.
3. **Pack, sort, unpack** (:func:`pack_words`, any sort,
   :func:`unpack_words`): the words are unique, so the sort kind is
   unobservable — ``np.sort``'s default vectorized kernel for one unsorted
   block, :func:`sort_runs_in_place` for a buffer of already sorted runs.
   The origin position unpacks by one mask.  Integer keys are the
   word's high bits; float keys invert the codec (undo the strip; a
   negative code ``c`` becomes ``SIGN | -c``).  Two codes are **lossy**:
   0 (−0.0 and +0.0) and the NaN code (every sign and payload), but a
   lossy code gives back +0.0 and the canonical quiet NaN, so only the
   keys :func:`block_stats` counts as ``inexact`` — −0.0 and every other
   NaN — need more.  A frame with one (:attr:`KeyFrame.refills`) refills
   them: in sorted words each lossy code occupies one contiguous range,
   found by binary search, and exactly those keys are refilled bit for
   bit from the unsorted input at the position in the word — nothing
   else is gathered.  Any other frame never reads the input again once
   its words are packed, so they may go over it.

Each of the three kernels — stats, pack, unpack — is one loop over
chunks of :data:`CHUNK_KEYS` keys: all its elementwise operations and
reductions run on a chunk while it is cache-resident, so a key crosses
memory once per kernel however many numpy calls that takes.  Between the
sort and the unpack nothing is decoded: :class:`SortedWords` answers what
steps 2–4 ask of a sorted block — the keys at some positions, the
positions of some needles — from the words, under the ``ndarray`` method
names, so the step kernels serve plain arrays and words alike.

The single precondition is **bits(stored code range) + pos_bits ≤ 62**
(one sign bit and one spare bit of headroom, and ``pos_bits ≤ 40``); the
words are int32 when the same sum is ≤ 30, i.e. every stored code lies
in ``[-2^(30 - pos_bits), 2^(30 - pos_bits))``.  Narrow ints and float32
always meet the 62-bit test; int64/uint64 meet it when their values do.
A float code range that fails a test gets one more chance at the same
width: the trailing zero bits common to every code (``ctz`` of their OR)
are stripped by an exact arithmetic shift, which is what lets integral,
low-precision and float32-valued float64 keys fit, and small-integer
floats of either width take int32 words.  Full-mantissa float64, uint64
≥ 2^63 and every other dtype kind do not fit.

Both substrates run the multi-block case, the *word path*, through
:mod:`repro.core.datapath`: steps 2–4 read the sorted words, step 5 moves
them, step 6 sorts the received runs in place (:func:`sort_runs_in_place`)
and unpacks once.  Both allgather the frame's statistics in step 1, each
rank reading its own block.  The single-block case,
:func:`packed_stable_sort`, serves their keys + perm fallback in int64
words whatever the frame's width (its order output is int64): on a
decline :func:`stable_sort_with_order` runs the plain stable argsort,
with bit-identical output.
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
#: 15.0, 16 Ki 11.2, 32 Ki 10.3, 64 Ki 11.3, one chunk 11.9.
CHUNK_KEYS = 1 << 15

#: The word dtypes a frame picks from, narrowest first.
WORD_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))

#: The positions of one chunk's keys within it, in each word dtype; the
#: chunk's own position is added on as a scalar.
_RAMPS = {word: np.arange(CHUNK_KEYS, dtype=word) for word in WORD_DTYPES}


def has_key_codec(dtype) -> bool:
    """Whether the codec (:func:`key_codes`) covers ``dtype`` at all."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        return dtype.itemsize in _FLOAT_LAYOUT and dtype.isnative
    return dtype.kind in "iu"


def key_codes(keys: np.ndarray) -> np.ndarray:
    """The codes of ``keys``: int keys are their own, float keys get a
    fresh array of their bits' width.  Other dtypes have no code: ask
    :func:`has_key_codec` first."""
    if keys.dtype.kind != "f":
        return keys
    int_t, inf_bits, nan_bits = _FLOAT_LAYOUT[keys.dtype.itemsize]
    bits = keys.view(int_t)
    magnitude = bits & np.iinfo(int_t).max
    codes = np.where(bits < 0, -magnitude, magnitude)
    codes[magnitude > inf_bits] = nan_bits
    return codes


def block_stats(keys: np.ndarray) -> tuple[int, int, int, int, int]:
    """Kernel 1: ``(code_min, code_max, code_or, len, inexact)`` of one block.

    The block's input to :func:`derive_key_frame`, read chunk by chunk and
    no code written.  Int and uint keys are their own codes: their min and
    max, ``code_or = inexact = 0``.  For native float32/float64 keys
    ``code_min``/``code_max`` are the codes of the extreme keys, and
    ``code_or`` is the OR of the codes' magnitudes: only its trailing
    zeros are read (the strip), and negation keeps them.  ``inexact``
    counts the keys their code cannot give back — −0.0, and every NaN but
    the canonical quiet one — which the frame's :attr:`KeyFrame.refills`
    answers for.  Other dtypes have no code: ask :func:`has_key_codec`
    first.
    """
    n = len(keys)
    if not n:
        return 0, 0, 0, 0, 0
    if keys.dtype.kind != "f":
        return int(keys.min()), int(keys.max()), 0, n, 0
    bits = keys.view(_FLOAT_LAYOUT[keys.dtype.itemsize][0])
    lows, highs, ors, inexact = zip(
        *(
            _float_chunk_stats(keys[lo : lo + CHUNK_KEYS], bits[lo : lo + CHUNK_KEYS])
            for lo in range(0, n, CHUNK_KEYS)
        )
    )
    code_or = 0
    for chunk_or in ors:
        code_or |= chunk_or
    return min(lows), max(highs), code_or, n, sum(inexact)


def _float_chunk_stats(keys: np.ndarray, bits: np.ndarray) -> tuple[int, int, int, int]:
    """``(code_min, code_max, code_or, inexact)`` of one nonempty chunk:
    the codes of its float min and max, the OR of its magnitudes, and —
    only when the OR of its bits shows a sign bit — a count of −0.0.  A
    NaN min shows a NaN; only then are the NaNs picked out."""
    int_t, _inf_bits, nan_bits = _FLOAT_LAYOUT[bits.itemsize]
    low, high = keys.min(), keys.max()
    if low == low:
        code_or = int(np.bitwise_or.reduce(bits))
        negative_zeros = np.count_nonzero(bits == np.iinfo(int_t).min) if code_or < 0 else 0
        return _code_of(low), _code_of(high), code_or & np.iinfo(int_t).max, int(negative_zeros)
    nan = np.isnan(keys)
    inexact = int(np.count_nonzero(bits[nan] != nan_bits))
    if nan.all():
        return nan_bits, nan_bits, nan_bits, inexact
    rest = ~nan
    low, _high, code_or, rest_inexact = _float_chunk_stats(keys[rest], bits[rest])
    return low, nan_bits, code_or | nan_bits, rest_inexact + inexact


def _code_of(key: np.floating) -> int:
    """The code of one non-NaN float key."""
    bits = int(key.view(_FLOAT_LAYOUT[key.itemsize][0]))
    return bits if bits >= 0 else -(bits + (1 << (8 * key.itemsize - 1)))  # -magnitude


@dataclass(frozen=True)
class KeyFrame:
    """How one job packs ``(code, position)`` into one unique word.

    ``word = (code >> strip) << pos_bits | position``, in the narrowest of
    :data:`WORD_DTYPES` that holds every stored code with one sign and one
    spare bit (:attr:`code_limit`).  ``position`` is the key's place in
    the job's input, its rank-ordered blocks back to back.  Every
    participant derives the same frame from the same block statistics
    (:func:`derive_key_frame`), so words packed on different ranks compare
    as the pair ``(key, position)`` — the order a stable merge of the
    rank-ordered runs produces.
    """

    dtype: np.dtype
    #: int32 or int64: the dtype the words are packed, sorted, exchanged
    #: and merged in.
    word_dtype: np.dtype
    #: Trailing zero bits common to every float code, dropped before the
    #: pack (0 for ints and for floats that fit without it).
    strip: int
    #: Bits below the code: ``bits(n − 1)`` for the job's ``n`` keys.
    pos_bits: int
    #: Some code is negative: float decoding must restore sign bits.
    has_negative: bool
    #: Some float key is a NaN: the top code is the canonical NaN code.
    has_nan: bool
    #: Some block holds a key its code cannot give back (−0.0, a NaN other
    #: than the canonical quiet one): only then are the lossy codes
    #: refilled from the job's input.
    refills: bool

    @property
    def code_limit(self) -> int:
        """Every stored code lies in ``[-code_limit, code_limit)``; the
        spare bit makes ``±code_limit << pos_bits`` a word too."""
        return 1 << (8 * self.word_dtype.itemsize - 2 - self.pos_bits)


def derive_key_frame(stats: Sequence[tuple[int, int, int, int, int]], dtype) -> KeyFrame | None:
    """The job's key frame, or ``None`` when the words would not fit.

    The narrowest word that fits: bits(stored code range) + pos_bits ≤ 30
    gives int32 words, ≤ 62 int64 ones, i.e. every shifted code stays
    inside the word with one spare bit: ``-limit ≤ code >> strip <
    limit`` for ``limit = 2**(30 - pos_bits)`` or ``2**(62 - pos_bits)``.
    At each width a float frame that fails the plain test strips the
    trailing zeros common to all codes (``ctz`` of the OR over every
    block) and tests again.  Empty blocks contribute no range.  ``stats``
    are every block's :func:`block_stats`, in rank order.
    """
    dtype = np.dtype(dtype)
    live = [block for block in stats if block[3]]
    pos_bits = max(sum(block[3] for block in live) - 1, 0).bit_length()
    # Conservative headroom: huge inputs would not profit anyway.
    if pos_bits > 40:
        return None
    lo = min((block[0] for block in live), default=0)
    hi = max((block[1] for block in live), default=0)
    strips = [0]
    if dtype.kind == "f":
        # Float codes carry the mantissa's unused low bits as common
        # trailing zeros; dropping them is an exact, order-preserving shift.
        any_bit = 0
        for block in live:
            any_bit |= block[2]
        if any_bit:
            strips.append((any_bit & -any_bit).bit_length() - 1)
    has_nan = dtype.kind == "f" and hi == _FLOAT_LAYOUT[dtype.itemsize][2]
    refills = any(block[4] for block in live)
    for word in WORD_DTYPES:
        spare = 8 * word.itemsize - 2 - pos_bits
        for strip in strips:
            if spare >= 0 and -(1 << spare) <= lo >> strip and hi >> strip < 1 << spare:
                return KeyFrame(dtype, word, strip, pos_bits, lo < 0, has_nan, refills)
    return None


def pack_words(
    keys: np.ndarray, frame: KeyFrame, start: int, out: np.ndarray
) -> np.ndarray:
    """Kernel 2: pack one block's keys into ``out``; sort it to sort the block.

    ``start`` is the block's position in the job's input, so key ``i``'s
    word carries position ``start + i``.  Float keys are coded chunk by
    chunk on the way (int keys are their own codes), so no block-sized
    codes buffer exists.  ``out`` holds one word per key in the frame's
    word dtype (a wider buffer holds the same numbers).  It may be the
    keys' own memory viewed as words (packed in place: a pooled worker's
    staged block), as long as it starts where the keys do and a word is no
    wider than a key.  A word then never lands past the key it replaces,
    so no chunk overwrites a later chunk's keys; a narrower word's first
    chunk overlaps its own keys, which are read (into the chunk's scratch,
    or copied by numpy's ufuncs, which copy an input that overlaps their
    output) before it is written.  Otherwise the keys are only read.
    """
    word = frame.word_dtype
    ramp = _RAMPS[word]
    # Every code has ``strip`` trailing zeros, so ``(code >> strip) <<
    # pos_bits`` is one exact shift, and so is the magnitude's.
    up = frame.pos_bits - frame.strip
    codes, signed = keys, False
    if frame.dtype.kind == "f":
        int_t, inf_bits, nan_bits = _FLOAT_LAYOUT[frame.dtype.itemsize]
        # Without a sign bit or a NaN but the canonical one, a float key's
        # code is its bit pattern: a frame with no negative code and no
        # inexact key has neither.
        codes, signed = keys.view(int_t), frame.has_negative or frame.refills
        if signed:
            magnitudes = np.empty(min(len(keys), CHUNK_KEYS), int_t)
            signs = np.empty_like(magnitudes)
            sign_bit, magnitude_bits = 8 * magnitudes.itemsize - 1, np.iinfo(int_t).max
            if frame.has_nan:
                nan_word = word.type((nan_bits >> frame.strip) << frame.pos_bits)
    for lo in range(0, len(keys), CHUNK_KEYS):
        chunk = out[lo : lo + CHUNK_KEYS]
        source = codes[lo : lo + CHUNK_KEYS]
        if signed:
            sign = np.right_shift(source, sign_bit, out=signs[: len(chunk)])  # 0 for +x, -1 for -x
            source = np.bitwise_and(source, magnitude_bits, out=magnitudes[: len(chunk)])
            nan = source > inf_bits if frame.has_nan else None
        if up >= 0:
            # Shifted in the word's dtype, so a narrow code (int8) cannot
            # overflow its own width; a wider code casts down exactly.
            np.left_shift(source, up, out=chunk, dtype=word)
        else:
            np.right_shift(source, -up, out=chunk)
        if signed:
            # Negate it where the sign bit was set, (w ^ -1) - (-1) = -w:
            # exact after the shift, whose low bits are zero.
            chunk ^= sign
            chunk -= sign
            if nan is not None:
                np.putmask(chunk, nan, nan_word)  # every NaN: the canonical code
        # The low ``pos_bits`` bits of a shifted code are zero and every
        # position is below ``2**pos_bits``, so adding it carries into no
        # code bit; two's-complement shifts keep negative codes ordered.
        chunk |= ramp[: len(chunk)]
        if start + lo:
            chunk += start + lo
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
    np.right_shift(words, frame.pos_bits, out=bits, casting="unsafe")
    if frame.strip:
        bits <<= frame.strip
    if frame.has_negative and is_float:
        np.subtract(np.iinfo(bits.dtype).min, bits, out=bits, where=bits < 0)


def unpack_words(
    words: np.ndarray,
    frame: KeyFrame,
    source: np.ndarray,
    keys_out: np.ndarray,
    origin_out: np.ndarray,
) -> int:
    """Kernel 3: keys and origin positions of **sorted** ``words``.

    One read of the words per chunk yields both.  Two float codes are
    lossy — 0 (−0.0 and +0.0) and the canonical NaN code (every sign and
    payload) — and when the frame :attr:`~KeyFrame.refills`, since the
    words are sorted their positions are two contiguous ranges: those keys
    are refilled bit for bit from ``source`` (the unsorted input) at their
    origin positions; the number refilled is returned.  Any other frame
    decodes them exactly and never reads ``source``.  ``keys_out`` or
    ``origin_out`` may be ``words`` itself — int64 words of 8-byte keys
    decode their keys in place, int32 words their origin, in both cases
    chunk by chunk and last; the refill positions are read before any word
    is overwritten.
    """
    mask = (1 << frame.pos_bits) - 1
    refills = []
    if frame.refills:
        # Bounds in the words' dtype, so numpy never upcasts the words.
        zero = np.array([0, 1 << frame.pos_bits], dtype=words.dtype)
        lossy_ranges = [words.searchsorted(zero)]
        if frame.has_nan:
            nan_code = _FLOAT_LAYOUT[frame.dtype.itemsize][2] >> frame.strip
            nan_word = words.dtype.type(nan_code << frame.pos_bits)
            lossy_ranges.append((words.searchsorted(nan_word), len(words)))
        refills = [(lo, hi, words[lo:hi] & mask) for lo, hi in lossy_ranges if hi > lo]
    keys_last = np.may_share_memory(keys_out, words)
    for lo in range(0, len(words), CHUNK_KEYS):
        chunk, origin = words[lo : lo + CHUNK_KEYS], origin_out[lo : lo + CHUNK_KEYS]
        if keys_last:
            np.bitwise_and(chunk, mask, out=origin, casting="unsafe")
        _decode_keys(chunk, frame, keys_out[lo : lo + CHUNK_KEYS])
        if not keys_last:
            np.bitwise_and(chunk, mask, out=origin, casting="unsafe")
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
    #: The job's unsorted input, as for :func:`unpack_words`: lossy codes
    #: are refilled from there when the frame refills, and it is never
    #: read otherwise.
    source: np.ndarray

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
        if frame.refills:
            stored = picked >> frame.pos_bits
            lossy = stored == 0
            if frame.has_nan:
                lossy |= stored == _FLOAT_LAYOUT[frame.dtype.itemsize][2] >> frame.strip
            at = np.flatnonzero(lossy)
            keys[at] = self.source[picked[at] & ((1 << frame.pos_bits) - 1)]
        return keys

    def searchsorted(self, needles: np.ndarray, side: str = "left") -> np.ndarray:
        """Positions of ``needles`` (of the block's dtype), in one search.

        A stored code is ``code >> strip``, so a key sorts at or before a
        needle of code ``c`` when its own is below ``(c >> strip) + 1`` —
        a bound that, shifted, is a word — and strictly before it when at
        or before ``c - 1``.  Bounds beyond the frame's ``±code_limit``
        (another dataset's splitters) stop there and answer ``0`` or
        ``len``; so clamped, every bound is a word, and the bounds array
        takes the words' dtype: numpy never upcasts the words.  The
        needles are a handful of splitters, so the bounds are exact
        Python integers: no dtype can overflow, and a 60k-key job pays
        three numpy calls per probe, not ten.
        """
        frame = self.frame
        codes = key_codes(np.asarray(needles, dtype=frame.dtype))
        limit, before = frame.code_limit, side == "left"
        bounds = [
            min(max((code - before >> frame.strip) + 1, -limit), limit) << frame.pos_bits
            for code in codes.tolist()
        ]
        return self.words.searchsorted(np.array(bounds, dtype=self.words.dtype))


#: Up to this many true runs, timsort's galloping merge (``kind="stable"``)
#: beats the default vectorised sort on the concatenation (2M int64 words,
#: this repo's 2-vCPU recorder: k = 2 11.0 vs 17.3 ms, k = 4 20.7 vs
#: 30.7 ms, k = 5 22.5 vs 17.1 ms, k = 16 42.5 vs 22.8 ms; at 60k words
#: the two are within 0.1 ms up to k = 4 and the default wins beyond).
GALLOP_MAX_RUNS = 4


def sort_runs_in_place(buffer: np.ndarray, run_lengths: Sequence[int], pos_bits: int) -> None:
    """Sort back-to-back sorted runs of unique words (``pos_bits`` bits
    below the code) where they lie, with a kernel picked from O(k) boundary facts.

    Adjacent runs without a descent between them form one *true* run; one
    true run is left as it is.  At most :data:`GALLOP_MAX_RUNS` true runs,
    or a code span (last − first code) shorter than the buffer — ties in
    long same-key blocks that galloping skips — take the galloping stable
    sort, anything else the default kernel.  (p = 16, 2M keys, 2-vCPU
    recorder: right-skewed, galloping 7.3 ms vs default 20.1; uniform,
    default 21.8 vs galloping 48.6.)
    """
    ends = np.cumsum([length for length in run_lengths if length], dtype=np.int64)
    seams = ends[:-1]
    true_runs = 1 + int(np.count_nonzero(buffer[seams - 1] > buffer[seams]))
    if true_runs == 1:
        return
    first = int(buffer[np.concatenate(([0], seams))].min()) >> pos_bits
    tied = (int(buffer[ends - 1].max()) >> pos_bits) - first < len(buffer)
    buffer.sort(kind="stable" if true_runs <= GALLOP_MAX_RUNS or tied else None)


def packed_stable_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Return ``(sorted_keys, stable_order)`` via code/index packing.

    Equivalent to ``order = keys.argsort(kind="stable")`` followed by
    ``keys[order]`` — same bytes, same tie resolution.  Returns ``None``
    when the packing precondition fails (no codec for the dtype, or the
    coded key range could collide with the position bits), in which case the
    caller must run the stable argsort itself.  ``stable_order`` is int64,
    and so are the words it unpacks from, whatever the frame's width.
    """
    n = len(keys)
    if n < 2 or not has_key_codec(keys.dtype):
        return None
    frame = derive_key_frame([block_stats(keys)], keys.dtype)
    if frame is None:
        return None
    words = np.empty(n, dtype=np.int64)
    pack_words(keys, frame, 0, words).sort()
    sorted_keys = np.empty(n, dtype=keys.dtype)
    unpack_words(words, frame, keys, sorted_keys, words)
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

"""Generated-input coverage of the packsort key codec.

Contract under test: for every dtype, ``packed_stable_sort(k)`` either
declines (``None``) or returns exactly what ``k.argsort(kind="stable")`` +
gather returns, byte for byte — and the codec itself is order- and
tie-preserving.  Hypothesis runs derandomized with a small example cap so
the whole module stays well under five seconds of tier-1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import packsort
from repro.core.packsort import (
    SortedWords,
    code_and_stats,
    derive_key_frame,
    pack_words,
    packed_stable_sort,
    stable_sort_with_order,
    unpack_words,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64]
UINT_DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64]
FLOAT_DTYPES = [np.float32, np.float64]

#: float dtype → (same-width uint, sign bit, +inf bits, mantissa mask).
FLOAT_BITS = {
    np.float32: (np.uint32, 1 << 31, 0x7F80_0000, (1 << 23) - 1),
    np.float64: (np.uint64, 1 << 63, 0x7FF0_0000_0000_0000, (1 << 52) - 1),
}


def _assert_none_or_stable(keys):
    """The module contract; returns whether the packed path accepted."""
    expected_order = keys.argsort(kind="stable")
    expected_bytes = keys[expected_order].tobytes()
    result = packed_stable_sort(keys)
    sorted_keys, order, path = stable_sort_with_order(keys)
    assert path == ("stable" if result is None else "packed")
    np.testing.assert_array_equal(order, expected_order)
    assert sorted_keys.tobytes() == expected_bytes
    if result is None:
        return False
    sorted_keys, order = result
    assert order.dtype == np.int64
    np.testing.assert_array_equal(order, expected_order)
    assert sorted_keys.dtype == keys.dtype
    assert sorted_keys.tobytes() == expected_bytes
    return True


def _code(keys):
    """Kernel 1 on a buffer of the block's own: ``(codes, stats)``."""
    return code_and_stats(keys, np.empty(len(keys), dtype=np.int64))


def _assert_codec_laws(keys):
    codes, stats = _code(keys)
    assert codes.dtype.kind in "iu"
    assert stats[:2] == (int(codes.min()), int(codes.max())) and stats[3] == len(keys)
    lt = keys[:, None] < keys[None, :]
    eq = keys[:, None] == keys[None, :]
    assert (codes[:, None] < codes[None, :])[lt].all()  # a < b  =>  code(a) < code(b)
    assert (codes[:, None] == codes[None, :])[eq].all()  # a == b =>  code(a) == code(b)
    if keys.dtype.kind == "f":
        nan = np.isnan(keys)
        if nan.any():  # one code for every NaN, above everything else
            assert len(set(codes[nan].tolist())) == 1
            assert (codes[~nan] < codes[nan][0]).all()


# ------------------------------------------------------------- strategies


def _int_elements(dtype):
    info = np.iinfo(dtype)
    nasty = {info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max}
    # n in [2, 64] gives shift 1..6: sit exactly on the headroom test.
    for shift in range(1, 7):
        limit = 1 << (62 - shift)
        nasty.update({limit - 1, limit, -limit, -limit - 1})
    nasty = sorted(v for v in nasty if info.min <= v <= info.max)
    return st.one_of(
        st.sampled_from(nasty),
        st.integers(max(info.min, -3), min(info.max, 3)),  # tie-heavy
        st.integers(int(info.min), int(info.max)),
    )


def _float_bit_elements(dtype, flavour):
    """Bit patterns (python ints) for ``dtype``; ``flavour`` picks the bulk."""
    uint_t, sign, inf, mantissa = FLOAT_BITS[dtype]
    one = int(np.array(1.0, dtype).view(uint_t))
    specials = [
        0, sign,  # +0.0, -0.0
        inf, sign | inf,  # +inf, -inf
        inf | 1, inf | (mantissa + 1) >> 1, inf | mantissa,  # sNaN, qNaN, all-ones NaN
        sign | inf | 1, sign | inf | (mantissa + 1) >> 1, sign | inf | mantissa,
        1, sign | 1, mantissa, sign | mantissa,  # subnormals, both ends
        one, sign | one,
        inf - 1, sign | (inf - 1),  # ±max finite
    ]

    def from_value(v):
        return int(np.array(v, dtype).view(uint_t))

    bulk = {
        "integral": st.integers(-(2**20), 2**20).map(from_value),
        "float32-valued": st.integers(0, 2**32 - 1).map(
            lambda b: int(np.array(b, np.uint32).view(np.float32).astype(dtype).view(uint_t))
        ),
        "raw": st.integers(0, 2 * sign - 1),
    }[flavour]
    return st.one_of(st.sampled_from(specials), bulk)


def _draw_float_keys(data, dtype, flavours=("integral", "float32-valued", "raw")):
    flavour = data.draw(st.sampled_from(flavours))
    bits = data.draw(st.lists(_float_bit_elements(dtype, flavour), max_size=64))
    return np.array(bits, dtype=FLOAT_BITS[dtype][0]).view(dtype)


# ------------------------------------------------------------ generated


@pytest.mark.parametrize("dtype", INT_DTYPES + UINT_DTYPES)
@SETTINGS
@given(data=st.data())
def test_int_keys_decline_or_match_stable_argsort(dtype, data):
    values = data.draw(st.lists(_int_elements(dtype), max_size=64))
    keys = np.array(values, dtype=dtype)
    accepted = _assert_none_or_stable(keys)
    if np.dtype(dtype).itemsize < 8 and len(keys) >= 2:
        assert accepted  # narrow ints always pack
    if len(keys):
        _assert_codec_laws(keys)


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
@SETTINGS
@given(data=st.data())
def test_float_keys_decline_or_match_stable_argsort(dtype, data):
    keys = _draw_float_keys(data, dtype)
    accepted = _assert_none_or_stable(keys)
    if dtype is np.float32 and len(keys) >= 2:
        assert accepted  # float32 always packs
    if len(keys):
        _assert_codec_laws(keys)


# ------------------------------------------------- seeded nasty cases


def _float_cases(dtype):
    uint_t, sign, inf, mantissa = FLOAT_BITS[dtype]
    quiet = (mantissa + 1) >> 1
    nans = [inf | 1, inf | quiet, sign | inf | quiet | 5, sign | inf | mantissa]

    def as_keys(bits):
        return np.array(bits, dtype=uint_t).view(dtype)

    return {
        "signed-zeros": np.array([0.0, -0.0, -0.0, 0.0, 1.0, -1.0, -0.0], dtype=dtype),
        "nans-both-signs-and-payloads": as_keys(
            nans + [int(np.array(2.0, dtype).view(uint_t))] + nans[::-1] + [0]
        ),
        "infs": np.array([np.inf, 3.0, -np.inf, np.nan, -2.0, np.inf, -np.inf], dtype=dtype),
        "n=2": np.array([2.0, -0.0], dtype=dtype),
        "all-equal": np.full(9, -7.0, dtype=dtype),
        "all-nan": as_keys(nans),
        "all-zero-mixed-sign": np.array([-0.0, 0.0, -0.0], dtype=dtype),
    }


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
def test_seeded_float_cases_take_the_packed_path(dtype):
    for name, keys in _float_cases(dtype).items():
        assert _assert_none_or_stable(keys), name
        _assert_codec_laws(keys)


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
def test_subnormals_sort_correctly_on_either_path(dtype):
    uint_t, sign, inf, mantissa = FLOAT_BITS[dtype]
    bits = [1, sign | 1, mantissa, sign | mantissa, 0, sign, mantissa + 1, 2, sign | 2]
    keys = np.array(bits, dtype=uint_t).view(dtype)
    assert _assert_none_or_stable(keys)  # tiny codes: fits without stripping
    _assert_codec_laws(keys)
    # Next to ordinary magnitudes the low mantissa bits block the strip on
    # float64; the contract then is a clean decline, never a wrong order.
    mixed = np.concatenate([keys, np.array([1.0, -3.0, 1e30], dtype=dtype)])
    assert _assert_none_or_stable(mixed) == (dtype is np.float32)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_int64_extremes(dtype):
    info = np.iinfo(dtype)
    keys = np.array([info.max, info.min, 0, info.max, info.min], dtype=dtype)
    assert not _assert_none_or_stable(keys)  # no headroom: declines
    _assert_codec_laws(keys)
    small = np.array([5, 0, 5, 1, 0], dtype=dtype)
    assert _assert_none_or_stable(small)
    assert _assert_none_or_stable(np.array([7, 7], dtype=dtype))  # n = 2, all equal


@pytest.mark.parametrize("n", [2, 4, 33])
def test_headroom_boundary_is_exact(n):
    limit = 1 << (62 - (n - 1).bit_length())

    def int_keys(edge, dtype=np.int64):
        return np.array([edge] + [0] * (n - 1), dtype=dtype)

    assert _assert_none_or_stable(int_keys(limit - 1))
    assert not _assert_none_or_stable(int_keys(limit))
    assert _assert_none_or_stable(int_keys(-limit))
    assert not _assert_none_or_stable(int_keys(-limit - 1))
    assert _assert_none_or_stable(int_keys(limit - 1, np.uint64))
    assert not _assert_none_or_stable(int_keys(limit, np.uint64))

    # float64: the code of a non-negative float is its bit pattern.  An odd
    # neighbour (the smallest subnormal, code 1) pins the common trailing
    # zeros at none, so the plain range test decides.
    def float_keys(code):
        bits = [abs(code), 1] + [0] * (n - 2)
        keys = np.array(bits, dtype=np.uint64).view(np.float64)
        return -keys if code < 0 else keys

    assert _assert_none_or_stable(float_keys(limit - 1))
    assert not _assert_none_or_stable(float_keys(limit))
    assert _assert_none_or_stable(float_keys(-limit))
    assert not _assert_none_or_stable(float_keys(-limit - 1))
    # Without the odd neighbour the same key strips down and packs.
    strippable = np.array([limit] + [0] * (n - 1), dtype=np.uint64).view(np.float64)
    assert _assert_none_or_stable(strippable)


def test_integral_float64_block_packs_at_rank_block_scale():
    # The ledger's big_fallback shape, scaled down: floor(Exp(2000)) keys.
    rng = np.random.default_rng(12)
    keys = np.floor(rng.exponential(2000, 50_000))
    keys[::1000] = -0.0
    keys[7::5000] = np.nan
    keys[11::7000] = -np.inf
    assert _assert_none_or_stable(keys)
    # One full-mantissa key is enough to decline the block.
    keys[3] = np.pi
    assert not _assert_none_or_stable(keys)


# ----------------------------------------------- key frame and word laws
#
# The process backend packs (code, rank, index) into one int64 word per
# key, sorts/exchanges/merges words, and decodes once.  Laws: the numeric
# order of the words is the stable merge order of the rank-ordered blocks;
# decoding restores every key whose code is not lossy bit for bit; and the
# lossy codes are exactly 0 (±0.0) and the canonical NaN code.


#: The word laws loop in Python over a handful of ranks; half the examples
#: of the codec tests keeps the module inside its tier-1 budget.
WORD_SETTINGS = settings(SETTINGS, max_examples=30)


def _split(keys, p, data):
    """``p`` blocks, some possibly empty, concatenating back to ``keys``."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(keys)), min_size=p - 1, max_size=p - 1)))
    return np.split(keys, cuts)


def _assert_word_laws(blocks):
    """Returns whether the frame fit; checks every law when it did."""
    dtype = np.dtype(blocks[0].dtype)
    is_float = dtype.kind == "f"
    buffers = [np.empty(len(block), dtype=np.int64) for block in blocks]
    coded = [code_and_stats(block, out) for block, out in zip(blocks, buffers)]
    frame = derive_key_frame([stats for _codes, stats in coded], dtype, len(blocks))
    if frame is None:
        return False
    for rank, ((codes, _stats), out) in enumerate(zip(coded, buffers)):
        assert pack_words(codes, frame, rank, out) is out  # always in the caller's buffer
        if not is_float:
            assert codes is blocks[rank]  # int keys are their own codes, never written
    words = np.concatenate(buffers)
    assert len(set(words.tolist())) == len(words)  # unique: sort kind is unobservable
    words.sort()

    source = np.concatenate(blocks)
    starts = np.concatenate(([0], np.cumsum([len(b) for b in blocks])))
    order = source.argsort(kind="stable")  # ties by (rank, index): the merge order
    index = np.empty(len(words), dtype=np.int32)
    proc = np.empty(len(words), dtype=np.int16)

    # Decoded against a poisoned source, only the lossy codes may differ ...
    poison = np.full(len(source), 1.5 if is_float else 1, dtype=dtype)
    decoded = np.empty(len(words), dtype=dtype)
    refilled = unpack_words(words.copy(), frame, poison, starts, decoded, index, proc)
    np.testing.assert_array_equal(starts[proc] + index, order)
    expected = source[order]
    as_bytes = (len(words), dtype.itemsize)
    same = decoded.view(np.uint8).reshape(as_bytes) == expected.view(np.uint8).reshape(as_bytes)
    lossy = (expected == 0) | (expected != expected) if is_float else np.zeros(len(words), bool)
    np.testing.assert_array_equal(~same.all(axis=1), lossy)
    assert refilled == lossy.sum()
    # ... and against the real one, in place for 8-byte keys, nothing does.
    out = words.view(dtype) if dtype.itemsize == 8 else np.empty(len(words), dtype=dtype)
    unpack_words(words, frame, source, starts, out, index, proc)
    assert out.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(starts[proc] + index, order)
    return True


@pytest.mark.parametrize("dtype", INT_DTYPES + UINT_DTYPES)
@WORD_SETTINGS
@given(data=st.data())
def test_int_words_decode_to_the_stable_merge(dtype, data):
    keys = np.array(data.draw(st.lists(_int_elements(dtype), max_size=64)), dtype=dtype)
    fitted = _assert_word_laws(_split(keys, data.draw(st.integers(1, 4)), data))
    if np.dtype(dtype).itemsize < 8:
        assert fitted  # narrow ints always fit the frame


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
@WORD_SETTINGS
@given(data=st.data())
def test_float_words_decode_to_the_stable_merge(dtype, data):
    keys = _draw_float_keys(data, dtype)
    fitted = _assert_word_laws(_split(keys, data.draw(st.integers(1, 4)), data))
    if dtype is np.float32:
        assert fitted


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
def test_seeded_float_cases_fit_the_frame_on_three_ranks(dtype):
    for name, keys in _float_cases(dtype).items():
        assert _assert_word_laws(np.array_split(keys, 3)), name


def test_frame_fits_the_pool_workload_shapes():
    """``(lo, hi, or, max block len)`` of the ledger's pooled workloads, p = 2."""
    rng = np.random.default_rng(3)
    lo, hi, any_bit, _ = _code(np.floor(rng.exponential(2000.0, 20_000)))[1]
    shapes = {
        # Uniform [0, 2^40) at 2M keys/rank on 2 ranks: 21 index bits + 1
        # rank bit leave limit = 2^40, so this fits by exactly one value.
        "big_uniform": (np.int64, 0, (1 << 40) - 1, 0, 2_000_000),
        "big_fallback": (np.float64, lo, hi, any_bit, 2_000_000),
        "small_stream uniform / near-sorted": (np.int64, 0, (1 << 40) - 1, 0, 60_000),
        "small_stream duplicate-heavy": (np.int64, 0, 999, 0, 60_000),
    }
    for name, (dtype, lo, hi, any_bit, max_len) in shapes.items():
        stats = [(lo, hi, any_bit, max_len), (lo, hi, any_bit, max_len - 1)]
        frame = derive_key_frame(stats, dtype, 2)
        assert frame is not None, name
        assert frame.rank_bits == 1 and frame.idx_bits == (max_len - 1).bit_length()
    one_more = [(0, 1 << 40, 0, 2_000_000)] * 2
    assert derive_key_frame(one_more, np.int64, 2) is None
    assert derive_key_frame(one_more, np.int64, 1) is not None  # no rank bit: fits again
    assert shapes["big_fallback"][1] == 0 and derive_key_frame(
        [shapes["big_fallback"][1:]] * 2, np.float64, 2
    ).strip >= 37  # integral values below 2^15 leave the low mantissa zero


def test_frame_ignores_empty_blocks_and_takes_the_longest():
    frame = derive_key_frame([(0, 0, 0, 0), (-5, 9, 0, 3), (2, 2, 0, 1)], np.int32, 3)
    assert (frame.idx_bits, frame.rank_bits, frame.strip) == (2, 2, 0)
    assert frame.has_negative and not frame.has_nan
    empty = derive_key_frame([(0, 0, 0, 0)] * 2, np.float64, 2)
    assert (empty.idx_bits, empty.rank_bits, empty.has_negative) == (0, 1, False)


# ------------------------------------------- steps 2-4 read the sorted words
#
# ``SortedWords`` stands in for the decoded sorted block: ``take`` must
# return the keys' own bytes and ``searchsorted`` the positions numpy finds
# in the decoded keys, for needles that need not come from the block, fit
# its frame, or sit on its strip grid.

RANK_OF = [(0, 1), (1, 2), (3, 4)]

#: 30 dtype × rank cases share the budget: a dozen examples each.
READ_SETTINGS = settings(SETTINGS, max_examples=12)


def _pack(block, rank, p):
    """Kernels 1–2 on ``block`` as rank ``rank`` of ``p`` like-shaped blocks:
    ``(stats, frame, words)``, unsorted; ``frame`` is ``None`` on a decline."""
    out = np.empty(len(block), dtype=np.int64)
    codes, stats = code_and_stats(block, out)
    frame = derive_key_frame([stats] * p, block.dtype, p)
    if frame is not None:
        pack_words(codes, frame, rank, out)
    return stats, frame, out


def _sorted_words(block, rank, p):
    """``(SortedWords, decoded sorted keys)``, or ``None`` when the frame
    declines.  Every other rank's input offset is poisoned, so a refill
    through the wrong rank bits indexes out of range."""
    _stats, frame, words = _pack(block, rank, p)
    if frame is None:
        return None
    words.sort()
    starts = np.full(p, 1 << 40, dtype=np.int64)
    starts[rank] = 3
    source = np.concatenate([np.ones(3, dtype=block.dtype), block])
    return (
        SortedWords(words, frame, source, starts),
        block[block.argsort(kind="stable")],
    )


def _assert_reads_like_decoded(block, rank, p, needles, positions):
    made = _sorted_words(block, rank, p)
    if made is None:
        return False
    words, decoded = made
    assert len(words) == len(decoded) and words.dtype == decoded.dtype
    picked = words.take(np.array(positions, dtype=np.int64))
    assert picked.dtype == decoded.dtype
    assert picked.tobytes() == decoded[positions].tobytes()  # -0.0, NaN payloads too
    for side in ("left", "right"):
        np.testing.assert_array_equal(
            words.searchsorted(needles, side=side),
            np.searchsorted(decoded, needles, side=side),
            err_msg=f"{block.dtype} side={side} strip={words.frame.strip}",
        )
    return True


def _positions(data, n):
    if n == 0:
        return []
    return data.draw(st.lists(st.integers(0, n - 1), max_size=12))  # unsorted, repeats


@pytest.mark.parametrize("rank,p", RANK_OF)
@pytest.mark.parametrize("dtype", INT_DTYPES + UINT_DTYPES)
@READ_SETTINGS
@given(data=st.data())
def test_sorted_int_words_read_like_the_decoded_keys(dtype, rank, p, data):
    info = np.iinfo(dtype)
    # 8-byte keys stay where the frame fits; the needles go everywhere.
    lo, hi = max(int(info.min), -(1 << 40)), min(int(info.max), 1 << 40)
    element = st.one_of(st.integers(max(lo, -3), min(hi, 3)), st.integers(lo, hi))
    block = np.array(data.draw(st.lists(element, max_size=48)), dtype=dtype)
    outside = [int(info.min), int(info.min) + 1, int(info.max) - 1, int(info.max)]
    for bits in (41, 52, 61, 62):  # around and far beyond any frame limit here
        outside += [v for v in (1 << bits, -(1 << bits)) if info.min <= v <= info.max]
    neighbours = [int(k) + d for k in block[:8].tolist() for d in (-1, 0, 1)]
    drawn = data.draw(st.lists(st.integers(int(info.min), int(info.max)), max_size=8))
    needles = [v for v in outside + neighbours + drawn if info.min <= v <= info.max]
    fitted = _assert_reads_like_decoded(
        block, rank, p, np.array(needles, dtype=dtype), _positions(data, len(block))
    )
    assert fitted


@pytest.mark.parametrize("rank,p", RANK_OF)
@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
@READ_SETTINGS
@given(data=st.data())
def test_sorted_float_words_read_like_the_decoded_keys(dtype, rank, p, data):
    uint_t, sign, inf, mantissa = FLOAT_BITS[dtype]
    # float64 blocks are integral or float32-valued: they fit only stripped.
    flavours = ("integral", "float32-valued") + (("raw",) if dtype is np.float32 else ())
    block = _draw_float_keys(data, dtype, flavours)
    block_bits = block.view(uint_t)[:8].tolist()
    needle_bits = (
        block_bits
        + [b ^ 1 for b in block_bits]  # one ulp off: off the strip grid
        + [0, sign, inf, sign | inf, inf - 1, sign | (inf - 1), 1, sign | 1]
        + [inf | 1, inf | mantissa, sign | inf | 5, sign | inf | mantissa]  # NaNs
        + data.draw(st.lists(st.integers(0, 2 * sign - 1), max_size=8))  # raw: any code
    )
    needles = np.array(needle_bits, dtype=uint_t).view(dtype)
    fitted = _assert_reads_like_decoded(block, rank, p, needles, _positions(data, len(block)))
    if dtype is np.float32:
        assert fitted


def test_stripped_float64_words_answer_needles_off_the_grid():
    rng = np.random.default_rng(21)
    block = np.floor(rng.exponential(2000.0, 5_000)) - 300.0
    block[::50], block[7::90], block[9::400] = -0.0, np.nan, -np.inf
    words, decoded = _sorted_words(block, 1, 2)
    assert words.frame.strip >= 37 and words.frame.has_nan and words.frame.has_negative
    needles = np.concatenate(
        [
            decoded[::97],
            decoded[::97] + 0.5,
            np.nextafter(decoded[::97], np.inf),
            np.nextafter(decoded[::97], -np.inf),
            [np.nan, -np.nan, -0.0, 0.0, np.inf, -np.inf, 1e300, -1e300, 5e-324, -5e-324],
        ]
    )
    for side in ("left", "right"):
        np.testing.assert_array_equal(
            words.searchsorted(needles, side=side), np.searchsorted(decoded, needles, side=side)
        )
    every = np.arange(len(block))
    assert words.take(every).tobytes() == decoded.tobytes()


# ----------------------------------------------- chunk-boundary equivalence


def _reference_code(key):
    """The codec, one key at a time, in Python integers."""
    if key.dtype.kind != "f":
        return int(key)
    uint_t, sign, inf, mantissa = FLOAT_BITS[key.dtype.type]
    bits = int(key.view(uint_t))
    magnitude = bits & (sign - 1)
    if magnitude > inf:
        return inf | (mantissa + 1) >> 1  # every NaN: the canonical quiet one
    return -magnitude if bits & sign else magnitude


def _run_kernels(block, rank, p):
    stats, frame, words = _pack(block, rank, p)
    packed = words.copy()
    words.sort()
    starts = np.zeros(p, dtype=np.int64)
    keys = np.empty(len(block), dtype=block.dtype)
    index = np.empty(len(block), dtype=np.int32)
    proc = np.empty(len(block), dtype=np.int16)
    refilled = unpack_words(words, frame, block, starts, keys, index, proc)
    return stats, frame, packed, keys, index, proc, refilled


CHUNK_BLOCKS = {
    "int64-negative": lambda n: (np.arange(n, dtype=np.int64) * 7919) % 23 - 11,
    "uint16": lambda n: ((np.arange(n) * 7919) % 65_536).astype(np.uint16),
    "float32": lambda n: np.array(
        [-0.0, np.nan, 2.5, -1.25, 0.0, -np.inf, 1e30, -np.nan, 3.0] * 2, dtype=np.float32
    )[:n],
    "float64-stripped": lambda n: np.array(
        [4.0, -0.0, np.nan, -8.0, 0.0, 2.0**40, -np.nan, 16.0, -2.0] * 2, dtype=np.float64
    )[:n],
}


@pytest.mark.parametrize("name", CHUNK_BLOCKS)
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 17])
def test_chunk_boundaries_do_not_show(monkeypatch, name, n):
    block = CHUNK_BLOCKS[name](n)
    rank, p = 3, 4
    whole = _run_kernels(block, rank, p)
    assert n <= packsort.CHUNK_KEYS  # ... which was the one-chunk run
    monkeypatch.setattr(packsort, "CHUNK_KEYS", 8)
    chunked = _run_kernels(block, rank, p)
    for one, many in zip(whole, chunked):
        if isinstance(one, np.ndarray):
            assert one.dtype == many.dtype and one.tobytes() == many.tobytes()
        else:
            assert one == many
    stats, frame, packed, keys, index, proc, refilled = chunked
    codes = [_reference_code(k) for k in block]
    any_bit = 0
    for code in codes:
        any_bit |= code
    assert stats == (
        min(codes, default=0), max(codes, default=0),
        any_bit if block.dtype.kind == "f" else 0, n,
    )
    closed_form = [
        ((code >> frame.strip) << frame.shift) | (rank << frame.idx_bits) | i
        for i, code in enumerate(codes)
    ]
    assert packed.tolist() == closed_form
    order = block.argsort(kind="stable")
    assert keys.tobytes() == block[order].tobytes()
    assert index.tolist() == order.tolist() and set(proc.tolist()) <= {rank}
    if name == "float64-stripped" and n >= 9:
        assert frame.strip > 0 and refilled == int(((block == 0) | np.isnan(block)).sum())

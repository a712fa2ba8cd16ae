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
    block_stats,
    derive_key_frame,
    key_codes,
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
    """The codec and kernel 1 on one block: ``(codes, stats)``."""
    return key_codes(keys), block_stats(keys)


def _reference_inexact(keys):
    """Keys their code cannot give back, counted in NumPy: −0.0 and every
    NaN but the canonical quiet one."""
    if keys.dtype.kind != "f":
        return 0
    uint_t, sign = FLOAT_BITS[keys.dtype.type][:2]
    canonical = int(np.array(np.nan, keys.dtype).view(uint_t))
    bits = keys.view(uint_t)
    return int(np.count_nonzero((bits == sign) | (np.isnan(keys) & (bits != canonical))))


def _magnitude_or(codes):
    """The OR of the codes' magnitudes: the statistic the strip reads."""
    any_bit = 0
    for code in codes:
        any_bit |= abs(int(code))
    return any_bit


def _assert_codec_laws(keys):
    codes, stats = _code(keys)
    assert codes.dtype.kind in "iu"
    assert stats[:2] == (int(codes.min()), int(codes.max())) and stats[3] == len(keys)
    is_float = keys.dtype.kind == "f"
    assert stats[2] == (_magnitude_or(codes.tolist()) if is_float else 0)
    assert stats[4] == _reference_inexact(keys)
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
    # n in [2, 64] gives pos_bits 1..6: sit exactly on the headroom test.
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
# Both substrates pack (code, position) into one word per key, sort,
# exchange and merge words, and decode once.  Laws: the numeric order of
# the words is the stable merge order of the rank-ordered blocks, so the
# decoded positions are the stable argsort of their concatenation;
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
    frame = derive_key_frame([block_stats(block) for block in blocks], dtype)
    if frame is None:
        return False
    assert frame.refills == any(_reference_inexact(block) for block in blocks)
    starts = np.cumsum([0, *map(len, blocks)])
    assert frame.pos_bits == max(int(starts[-1]) - 1, 0).bit_length()
    for start, block, out in zip(starts.tolist(), blocks, buffers):
        kept = block.tobytes()
        assert pack_words(block, frame, start, out) is out  # always in the caller's buffer
        assert block.tobytes() == kept  # the keys are only read
        if frame.word_dtype.itemsize <= dtype.itemsize:
            # Packed over the keys themselves, the words are the same.
            staged = block.copy()
            in_place = pack_words(staged, frame, start, staged.view(frame.word_dtype)[: len(block)])
            assert in_place.tolist() == out.tolist()
    words = np.concatenate(buffers)
    assert len(set(words.tolist())) == len(words)  # unique: sort kind is unobservable
    words.sort()

    source = np.concatenate(blocks)
    order = source.argsort(kind="stable")  # ties by position: the merge order
    origin = np.empty(len(words), dtype=np.int32)

    # Decoded against a poisoned source, only the lossy codes may differ,
    # and only when the frame refills them; any other frame is exact ...
    poison = np.full(len(source), 1.5 if is_float else 1, dtype=dtype)
    decoded = np.empty(len(words), dtype=dtype)
    refilled = unpack_words(words.copy(), frame, poison, decoded, origin)
    np.testing.assert_array_equal(origin, order)
    expected = source[order]
    as_bytes = (len(words), dtype.itemsize)
    same = decoded.view(np.uint8).reshape(as_bytes) == expected.view(np.uint8).reshape(as_bytes)
    lossy = (expected == 0) | (expected != expected) if is_float else np.zeros(len(words), bool)
    lossy &= frame.refills
    np.testing.assert_array_equal(~same.all(axis=1), lossy)
    assert refilled == lossy.sum()
    # ... and against the real one, in place for 8-byte keys, nothing does.
    out = words.view(dtype) if dtype.itemsize == 8 else np.empty(len(words), dtype=dtype)
    unpack_words(words, frame, source, out, origin)
    assert out.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(origin, order)
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


@pytest.mark.parametrize("p", [1, 2, 3, 5, 16])
@WORD_SETTINGS
@given(data=st.data())
def test_random_blocks_unpack_to_the_stable_order_of_their_concatenation(p, data):
    """Any block lengths, empty blocks included: the positions unpacked
    from the merged words are ``concatenation.argsort(kind="stable")``
    and the keys come back bit for bit, −0.0 and NaN payloads refilled."""
    dtype = data.draw(st.sampled_from([np.int16, np.int64, np.uint32, np.float32, np.float64]))
    if np.dtype(dtype).kind == "f":
        keys = _draw_float_keys(data, dtype, ("integral", "float32-valued"))
    else:
        keys = np.array(data.draw(st.lists(_int_elements(dtype), max_size=64)), dtype=dtype)
    fitted = _assert_word_laws(_split(keys, p, data))
    if np.dtype(dtype).itemsize < 8:
        assert fitted


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
def test_seeded_float_cases_fit_the_frame_on_three_ranks(dtype):
    for name, keys in _float_cases(dtype).items():
        assert _assert_word_laws(np.array_split(keys, 3)), name


def test_frame_fits_the_pool_workload_shapes():
    """``(lo, hi, or, max block len)`` of the ledger's pooled workloads, p = 2."""
    rng = np.random.default_rng(3)
    lo, hi, any_bit, _, inexact = _code(np.floor(rng.exponential(2000.0, 20_000)))[1]
    assert inexact == 0  # floor(Exp) holds +0.0 but never -0.0: nothing to refill
    shapes = {
        # Uniform [0, 2^40) at 2M keys/rank on 2 ranks: 22 position bits
        # leave limit = 2^40, so this fits by exactly one value.
        "big_uniform": (np.int64, 0, (1 << 40) - 1, 0, 2_000_000),
        "big_fallback": (np.float64, lo, hi, any_bit, 2_000_000),
        "small_stream uniform / near-sorted": (np.int64, 0, (1 << 40) - 1, 0, 60_000),
        "small_stream duplicate-heavy": (np.int64, 0, 999, 0, 60_000),
    }
    for name, (dtype, lo, hi, any_bit, max_len) in shapes.items():
        stats = [(lo, hi, any_bit, max_len, 0), (lo, hi, any_bit, max_len - 1, 0)]
        frame = derive_key_frame(stats, dtype)
        assert frame is not None, name
        # Two near-equal blocks: one bit more than one block's own index.
        assert frame.pos_bits == (2 * max_len - 2).bit_length() == 1 + (max_len - 1).bit_length()
        assert not frame.refills, name
    one_more = [(0, 1 << 40, 0, 2_000_000, 0)] * 2
    assert derive_key_frame(one_more, np.int64) is None
    assert derive_key_frame(one_more[:1], np.int64) is not None  # half the keys: fits again
    assert shapes["big_fallback"][1] == 0 and derive_key_frame(
        [(*shapes["big_fallback"][1:], 0)] * 2, np.float64
    ).strip >= 37  # integral values below 2^15 leave the low mantissa zero


def test_frame_ignores_empty_blocks_and_counts_every_key():
    frame = derive_key_frame([(0, 0, 0, 0, 0), (-5, 9, 0, 3, 0), (2, 2, 0, 1, 0)], np.int32)
    assert (frame.pos_bits, frame.strip) == (2, 0)  # positions 0..3
    assert frame.has_negative and not frame.has_nan and not frame.refills
    empty = derive_key_frame([(0, 0, 0, 0, 0)] * 2, np.float64)
    assert (empty.pos_bits, empty.has_negative) == (0, False)
    assert not empty.refills


def test_one_position_narrows_the_frame_a_rank_tag_widened():
    """Three blocks of 2^20 + 1 keys in [0, 256), from their statistics
    alone (no key array): a rank tag and a block index would take 2 + 21
    bits, code + tag + index 31, past int32's 30; the 3·2^20 + 3
    positions take 22, code + position 30, so the words are int32."""
    stats = [(0, 255, 0, (1 << 20) + 1, 0)] * 3
    old_shift = (3 - 1).bit_length() + (1 << 20).bit_length()
    assert 8 + old_shift == 31
    frame = derive_key_frame(stats, np.int64)
    assert frame.pos_bits == 22 and 8 + frame.pos_bits == 30
    assert frame.word_dtype == np.int32


def test_frame_refills_when_one_block_holds_an_inexact_key():
    exact = (0, 1 << 52, 1 << 52, 5, 0)
    assert not derive_key_frame([exact] * 3, np.float64).refills
    assert derive_key_frame([exact, exact, (0, 1 << 52, 1 << 52, 5, 1)], np.float64).refills


@pytest.mark.parametrize("n,origin", [(0, np.int32), ((1 << 31) - 1, np.int32), (1 << 31, np.int64)])
def test_the_origin_role_widens_to_int64_at_two_to_the_31_keys(n, origin):
    """``lay_out`` picks the ``index`` role's dtype from the job's size;
    the roles are only described here, so no 2^31-key array exists."""
    from repro.core.datapath import OUTPUT_ROLES, lay_out

    taken = {}

    def take(role, length, dtype):
        taken[role] = (length, np.dtype(dtype))
        return np.empty(0, dtype)

    storage = lay_out(np.array([0, n // 2, n]), np.int64, take, np.ndarray.view)
    assert taken["index"] == (n, np.dtype(origin)) and taken["keys"] == (n, np.dtype(np.int64))
    assert OUTPUT_ROLES == ("keys", "index") and set(taken) == {"input", "keys", "index"}
    assert storage.words is not None  # 8-byte keys: the word stream is the keys, retyped


class _Untouchable(np.ndarray):
    """A refill source that fails any read: an exact frame must not read it."""

    def __getitem__(self, item):
        raise AssertionError("an exact frame read its refill source")

    take = __getitem__


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
@pytest.mark.parametrize("p", [1, 3])
def test_exact_frames_decode_bit_exact_without_reading_the_source(monkeypatch, dtype, p):
    # +0.0, the canonical NaN and ±inf: lossy codes that give their keys
    # back, across chunk boundaries, on every rank.
    monkeypatch.setattr(packsort, "CHUNK_KEYS", 8)
    keys = np.array([3.0, 0.0, np.nan, -5.0, np.inf, 0.0, -np.inf, np.nan, 7.0] * 5, dtype=dtype)
    blocks = np.array_split(keys, p)
    frame = derive_key_frame([block_stats(block) for block in blocks], dtype)
    assert frame.has_nan and not frame.refills
    starts = np.cumsum([0] + [len(block) for block in blocks]).tolist()
    words = np.concatenate(
        [pack_words(block, frame, start, np.empty(len(block), np.int64)) for start, block in zip(starts, blocks)]
    )
    words.sort()
    untouchable = np.full(len(keys), 1.5, dtype=dtype).view(_Untouchable)
    order = keys.argsort(kind="stable")
    assert SortedWords(words, frame, untouchable).take(np.arange(len(keys))).tobytes() == (
        keys[order].tobytes()
    )
    decoded, origin = np.empty(len(keys), dtype=dtype), np.empty(len(keys), np.int32)
    assert unpack_words(words, frame, untouchable, decoded, origin) == 0
    assert decoded.tobytes() == keys[order].tobytes()
    np.testing.assert_array_equal(origin, order)


# ---------------------------------------------------- the word's width
#
# A frame packs int32 words exactly while every stored code lies in
# [-2^(30 - pos_bits), 2^(30 - pos_bits)), the 62-bit test's one-spare-bit
# rule at 32 bits, and int64 words otherwise.  Both substrates then pack,
# sort, merge and unpack int32 words, decoding the origins in place.

WIDTH_RANKS = [1, 2, 16]


def _frame_of(blocks):
    stats = [_code(block)[1] for block in blocks]
    return derive_key_frame(stats, blocks[0].dtype)


@pytest.mark.parametrize("p", WIDTH_RANKS)
def test_words_are_int32_exactly_while_the_stored_codes_fit_30_bits(p):
    m = 33  # keys per block
    limit = 1 << (30 - (m * p - 1).bit_length())

    def int_blocks(stored):
        keys = np.zeros(m * p, dtype=np.int64)
        keys[-1] = stored  # on the last rank
        return np.split(keys, p)

    def float_blocks(stored, strip=20):
        # Every code a multiple of 2^20, one of them exactly: strip = 20.
        bits = np.full(m * p, 1 << strip, dtype=np.uint64)
        bits[-1] = abs(stored) << strip
        keys = bits.view(np.float64)
        keys[-1] *= -1 if stored < 0 else 1
        return np.split(keys, p)

    for blocks in (int_blocks, float_blocks):
        assert _frame_of(blocks(limit - 1)).word_dtype == np.int32
        assert _frame_of(blocks(limit)).word_dtype == np.int64
        assert _frame_of(blocks(-limit)).word_dtype == np.int32
        assert _frame_of(blocks(-limit - 1)).word_dtype == np.int64
    assert _frame_of(float_blocks(limit - 1)).strip == 20
    assert _frame_of(float_blocks(limit)).strip == 0  # int64 words fit unstripped


def _through_int32_words(blocks):
    """Steps 1, 5 and 6 on ``blocks`` in int32 words, as both substrates
    run them: pack and sort each block, concatenate the runs (every rank
    sends one destination everything), sort them in place and unpack,
    the origins in place over the words.  Returns ``(keys, origin)``."""
    dtype = blocks[0].dtype
    frame = derive_key_frame([block_stats(block) for block in blocks], dtype)
    assert frame.word_dtype == np.int32
    starts = np.cumsum([0] + [len(block) for block in blocks]).tolist()
    runs = [
        np.sort(pack_words(block, frame, start, np.empty(len(block), dtype=np.int32)))
        for start, block in zip(starts, blocks)
    ]
    stream = np.concatenate(runs)
    packsort.sort_runs_in_place(stream, [len(run) for run in runs], frame.pos_bits)
    keys = np.empty(len(stream), dtype=dtype)
    unpack_words(stream, frame, np.concatenate(blocks), keys, stream)
    return keys, stream


def _small_keys(dtype, n, rng):
    """Small integers, and for floats ±0.0, NaNs of both signs with
    distinct payloads and ±inf among them."""
    if np.dtype(dtype).kind != "f":
        info = np.iinfo(dtype)
        return rng.integers(max(int(info.min), -50), min(int(info.max), 50), n, endpoint=True).astype(dtype)
    keys = rng.integers(-9, 9, n).astype(dtype)
    uint_t, sign, inf, mantissa = FLOAT_BITS[dtype]
    quiet = (mantissa + 1) >> 1
    specials = np.array(
        [0, sign, inf, sign | inf, inf | 1, inf | quiet | 7, sign | inf | quiet | 5, sign | inf | mantissa],
        dtype=uint_t,
    ).view(dtype)
    keys[rng.integers(0, n, 3 * len(specials))] = np.resize(specials, 3 * len(specials))
    return keys


@pytest.mark.parametrize("p", WIDTH_RANKS)
@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.float32, np.float64])
def test_int32_words_round_trip_byte_for_byte(dtype, p):
    rng = np.random.default_rng([p, np.dtype(dtype).num])
    blocks = np.array_split(_small_keys(dtype, 40 * p + 3, rng), p)
    keys, origin = _through_int32_words(blocks)
    source = np.concatenate(blocks)
    order = source.argsort(kind="stable")  # ties by position: the merge order
    assert keys.tobytes() == source[order].tobytes()  # -0.0 and NaN payloads refilled
    np.testing.assert_array_equal(origin, order)


class _SearchSpy(np.ndarray):
    """A word buffer that records the dtype of every ``searchsorted`` needle array."""

    needles: list = []

    def searchsorted(self, v, *args, **kwargs):
        _SearchSpy.needles.append(np.asarray(v).dtype)
        return super().searchsorted(v, *args, **kwargs)


@pytest.mark.parametrize("p", WIDTH_RANKS)
def test_int32_words_answer_needles_far_outside_the_frame(monkeypatch, p):
    block = np.arange(-20, 20, dtype=np.int64).repeat(3)
    frame = derive_key_frame([block_stats(block)] * p, block.dtype)
    assert frame.word_dtype == np.int32
    start = (p - 1) * len(block)
    words = np.sort(pack_words(block, frame, start, np.empty(len(block), dtype=np.int32)))
    monkeypatch.setattr(_SearchSpy, "needles", [])
    sorted_words = SortedWords(words.view(_SearchSpy), frame, block)
    far = np.array([-(1 << 62), -(1 << 40), -(1 << 31), 1 << 31, 1 << 40, 1 << 62], dtype=np.int64)
    for side in ("left", "right"):
        assert sorted_words.searchsorted(far, side=side).tolist() == [0] * 3 + [len(block)] * 3
        np.testing.assert_array_equal(
            sorted_words.searchsorted(block[::7], side=side),
            np.searchsorted(block, block[::7], side=side),
        )
    assert _SearchSpy.needles == [np.dtype(np.int32)] * 4  # the words are never upcast


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
    stats = block_stats(block)
    frame = derive_key_frame([stats] * p, block.dtype)
    if frame is not None:
        pack_words(block, frame, rank * len(block), out)
    return stats, frame, out


def _job_input(block, rank, p):
    """The job's input with ``block`` as rank ``rank``'s and every other
    rank's keys poisoned, so a refill from the wrong position shows."""
    source = np.ones(p * len(block), dtype=block.dtype)
    source[rank * len(block) : (rank + 1) * len(block)] = block
    return source


def _sorted_words(block, rank, p):
    """``(SortedWords, decoded sorted keys)``, or ``None`` when the frame
    declines."""
    _stats, frame, words = _pack(block, rank, p)
    if frame is None:
        return None
    words.sort()
    return (
        SortedWords(words, frame, _job_input(block, rank, p)),
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
    keys = np.empty(len(block), dtype=block.dtype)
    origin = np.empty(len(block), dtype=np.int32)
    refilled = unpack_words(words, frame, _job_input(block, rank, p), keys, origin)
    return stats, frame, packed, keys, origin, refilled


CHUNK_BLOCKS = {
    "int64-negative": lambda n: (np.arange(n, dtype=np.int64) * 7919) % 23 - 11,
    "uint16": lambda n: ((np.arange(n) * 7919) % 65_536).astype(np.uint16),
    "float32": lambda n: np.array(
        [-0.0, np.nan, 2.5, -1.25, 0.0, -np.inf, 1e30, -np.nan, 3.0] * 2, dtype=np.float32
    )[:n],
    "float64-stripped": lambda n: np.array(
        [4.0, -0.0, np.nan, -8.0, 0.0, 2.0**40, -np.nan, 16.0, -2.0] * 2, dtype=np.float64
    )[:n],
    # +0.0 and the canonical NaN only: lossy codes that decode exactly.
    "float64-exact": lambda n: np.array(
        [4.0, 0.0, np.nan, -8.0, 0.0, 2.0**40, np.inf, 16.0, -2.0] * 2, dtype=np.float64
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
    stats, frame, packed, keys, origin, refilled = chunked
    codes = [_reference_code(k) for k in block]
    assert stats == (
        min(codes, default=0), max(codes, default=0),
        _magnitude_or(codes) if block.dtype.kind == "f" else 0, n, _reference_inexact(block),
    )
    start = rank * n
    closed_form = [((code >> frame.strip) << frame.pos_bits) + start + i for i, code in enumerate(codes)]
    assert packed.tolist() == closed_form
    order = block.argsort(kind="stable")
    assert keys.tobytes() == block[order].tobytes()
    assert origin.tolist() == (start + order).tolist()
    if name == "float64-stripped" and n >= 9:
        assert frame.strip > 0 and refilled == int(((block == 0) | np.isnan(block)).sum())
    if name == "float64-exact":
        assert not frame.refills and refilled == 0


# ------------------------------------------------- step 6's kernel rule
#
# ``sort_runs_in_place`` picks its kernel from facts read at the run
# boundaries.  Whatever it picks, the bytes are ``np.sort``'s: the words
# are unique.  A spy subclass records which kernel ran.


class _SortSpy(np.ndarray):
    """A word buffer that records every ``sort`` call's ``kind``."""

    kinds: list = []

    def sort(self, *args, kind=None, **kwargs):
        _SortSpy.kinds.append(kind)
        return super().sort(*args, kind=kind, **kwargs)


def _received_runs(blocks):
    """Step 6's input: each rank's sorted words, back to back in rank order
    as the exchange leaves them (here every rank sends its whole block)."""
    stats = [_code(block)[1] for block in blocks]
    frame = derive_key_frame(stats, blocks[0].dtype)
    runs, start = [], 0
    for block in blocks:
        out = np.empty(len(block), dtype=np.int64)
        runs.append(np.sort(pack_words(block, frame, start, out)))
        start += len(block)
    return np.concatenate(runs), [len(block) for block in blocks], frame


def _kernel_of(blocks, monkeypatch):
    """Run the rule on ``blocks``' runs; returns the sort kinds it called."""
    words, lengths, frame = _received_runs(blocks)
    expected = np.sort(words).tobytes()
    monkeypatch.setattr(_SortSpy, "kinds", [])
    spied = words.view(_SortSpy)
    packsort.sort_runs_in_place(spied, lengths, frame.pos_bits)
    assert words.tobytes() == expected
    return _SortSpy.kinds


RULE_RNG = np.random.default_rng(31)
KERNEL_RULE = {
    # name: (blocks, the sort kinds the rule must call)
    "one run": ([RULE_RNG.integers(0, 1 << 40, 500)], []),
    "k = 2": ([RULE_RNG.integers(0, 1 << 40, 300) for _ in range(2)], ["stable"]),
    "k = 4": ([RULE_RNG.integers(0, 1 << 40, 300) for _ in range(4)], ["stable"]),
    "many runs, small span": (
        [RULE_RNG.integers(0, 50, 300) for _ in range(16)], ["stable"],
    ),
    "many runs, wide span": (
        [RULE_RNG.integers(0, 1 << 40, 300) for _ in range(16)], [None],
    ),
    "many runs, one tied key": ([np.full(200, 7) for _ in range(16)], []),
    "runs touching at equal codes": (
        [np.arange(10 * r, 10 * r + 11) for r in range(16)], [],
    ),
    "empty runs": (
        [np.empty(0, np.int64), RULE_RNG.integers(0, 1 << 40, 300), np.empty(0, np.int64),
         RULE_RNG.integers(0, 1 << 40, 300)] + [np.empty(0, np.int64)] * 12,
        ["stable"],
    ),
    "every run empty": ([np.empty(0, np.int64)] * 5, []),
    "one nonempty run among empties": (
        [np.empty(0, np.int64), RULE_RNG.integers(0, 1 << 40, 300)] + [np.empty(0, np.int64)] * 6,
        [],
    ),
    "five true runs, wide span": (
        [RULE_RNG.integers(0, 1 << 40, 300) for _ in range(5)], [None],
    ),
    "five runs, four seams without a descent": (
        [np.arange(100 * r, 100 * r + 100) * (1 << 30) for r in range(4)]
        + [RULE_RNG.integers(0, 1 << 40, 300)],
        ["stable"],
    ),
}


@pytest.mark.parametrize("name", KERNEL_RULE)
def test_sort_runs_in_place_matches_np_sort_and_picks_its_kernel(monkeypatch, name):
    blocks, kinds = KERNEL_RULE[name]
    assert _kernel_of([b.astype(np.int64) for b in blocks], monkeypatch) == kinds


@pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.float32, np.float64])
def test_sort_runs_in_place_on_other_dtypes_and_lossy_codes(monkeypatch, dtype):
    rng = np.random.default_rng(37)
    blocks = [(rng.integers(-40, 40, 200) / 4).astype(dtype) for _ in range(8)]
    if np.dtype(dtype).kind == "f":
        for block in blocks:
            block[::9], block[4::13] = -0.0, np.nan
    # Eight true runs: one sort, whichever kernel.  Float codes are bit
    # patterns, so a few distinct floats still span a wide code range.
    assert len(_kernel_of(blocks, monkeypatch)) == 1

"""The word path end to end: pooled workers exchange packed (key, rank,
index) words, merge them in place in shared memory and unpack once.

Differential contract: for every key dtype the codec covers and every
degenerate shape, the process backend's keys, ``origin_proc`` and
``origin_index`` are bytes-equal to the ``local_sample_sort`` oracle, and
every rank reports the path the job's key frame predicts — ``"through"``
when it fits, today's keys + perm path (``"packed"``/``"stable"``) when it
misses, including by one.  Hypothesis runs derandomized on one warm pool
per rank count, capped to a few seconds of tier-1.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import distributed_sort, partition_input
from repro.core.local_backend import local_sample_sort
from repro.core.packsort import (
    block_code_stats,
    derive_key_frame,
    order_preserving_codes,
    packed_stable_sort,
)
from repro.core.sorter import SortOptions
from repro.obs.context import capture
from repro.parallel import ProcessBackend

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
FLOAT_DTYPES = [np.float32, np.float64]


@pytest.fixture(scope="module")
def pool():
    with ProcessBackend() as backend:
        yield backend


def _expected_paths(blocks):
    """What each rank must report, from the frame arithmetic alone."""
    is_float = blocks[0].dtype.kind == "f"
    stats = [block_code_stats(order_preserving_codes(b), is_float) for b in blocks]
    if derive_key_frame(stats, blocks[0].dtype, len(blocks)) is not None:
        return ["through"] * len(blocks)
    return ["stable" if packed_stable_sort(b) is None else "packed" for b in blocks]


def _assert_matches_oracle(pool, blocks, paths=None):
    reference = local_sample_sort(blocks)
    run = pool.sort_blocks(blocks)
    assert [r.local_sort_path for r in run.reports] == (paths or _expected_paths(blocks))
    for out, keys, prov in zip(run.outputs, reference.per_processor, reference.provenance):
        assert out.keys.dtype == keys.dtype
        assert out.keys.tobytes() == keys.tobytes()  # -0.0 and NaN payloads too
        assert out.provenance.origin_proc.dtype == prov.origin_proc.dtype
        assert out.provenance.origin_index.dtype == prov.origin_index.dtype
        assert out.provenance.origin_proc.tobytes() == prov.origin_proc.tobytes()
        assert out.provenance.origin_index.tobytes() == prov.origin_index.tobytes()
    assert run.splitters.tobytes() == reference.splitters.tobytes()
    return run


# ------------------------------------------------------------- strategies


def _int_keys(data, dtype, size):
    info = np.iinfo(dtype)
    span = data.draw(st.sampled_from(["tiny", "full", "negative"]))
    lo, hi = {
        "tiny": (max(info.min, -2), min(info.max, 2)),  # tie-heavy / all-equal
        "full": (int(info.min), int(info.max)),  # 64-bit: frame declines
        "negative": (int(info.min) // 2, 0),
    }[span]
    return np.array(
        data.draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)), dtype=dtype
    )


def _float_keys(data, dtype, size):
    uint_t = {np.float32: np.uint32, np.float64: np.uint64}[dtype]
    bits = 8 * np.dtype(dtype).itemsize
    sign, mantissa = 1 << (bits - 1), (1 << {32: 23, 64: 52}[bits]) - 1
    inf = (sign - 1) & ~mantissa
    quiet = (mantissa + 1) >> 1
    specials = [
        0, sign,  # ±0.0
        inf, sign | inf,  # ±inf
        inf | 1, inf | quiet, sign | inf | quiet | 5, sign | inf | mantissa,  # NaNs
    ]
    flavour = data.draw(st.sampled_from(["integral", "zeros-and-nans", "raw"]))
    bulk = {
        "integral": st.integers(-3000, 3000).map(
            lambda v: int(np.array(v, dtype).view(uint_t))
        ),
        "zeros-and-nans": st.sampled_from(specials),
        "raw": st.integers(0, 2 * sign - 1),  # float64: full mantissa, frame declines
    }[flavour]
    drawn = data.draw(
        st.lists(st.one_of(st.sampled_from(specials), bulk), min_size=size, max_size=size)
    )
    return np.array(drawn, dtype=uint_t).view(dtype)


def _blocks(data, dtype, p):
    """``p`` blocks: balanced, one rank empty, or fewer keys than ranks."""
    shape = data.draw(st.sampled_from(["balanced", "one-empty", "n<p", "ragged"]))
    size = data.draw(st.integers(0, p - 1) if shape == "n<p" else st.integers(p, 40))
    draw = _float_keys if dtype in FLOAT_DTYPES else _int_keys
    keys = draw(data, dtype, size)
    if shape in ("balanced", "n<p"):
        return list(partition_input(keys, p)[0])
    cuts = sorted(data.draw(st.lists(st.integers(0, size), min_size=p - 1, max_size=p - 1)))
    if shape == "one-empty" and p > 1:
        victim = data.draw(st.integers(0, p - 2))
        cuts[victim] = cuts[victim - 1] if victim else 0
    return [np.ascontiguousarray(b) for b in np.split(keys, cuts)]


# -------------------------------------------------------------- generated


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@SETTINGS
@given(data=st.data())
def test_generated_inputs_match_the_oracle(pool, p, data):
    dtype = data.draw(st.sampled_from(INT_DTYPES + FLOAT_DTYPES))
    _assert_matches_oracle(pool, _blocks(data, dtype, p))


# ---------------------------------------------------- frame limit, by one


@pytest.mark.parametrize("p", [2, 4])
def test_keys_at_the_frame_limit_fit_or_decline_by_one(pool, p):
    m = 33  # keys per rank: 6 index bits
    shift = (m - 1).bit_length() + (p - 1).bit_length()
    limit = 1 << (62 - shift)

    def int_blocks(edge, dtype=np.int64):
        keys = np.zeros(m * p, dtype=dtype)
        keys[m + 1] = edge  # lives on rank 1
        return list(partition_input(keys, p)[0])

    # One block alone still packs (no rank bits), so a miss reports "packed".
    for dtype in (np.int64, np.uint64):
        _assert_matches_oracle(pool, int_blocks(limit - 1, dtype), ["through"] * p)
        _assert_matches_oracle(pool, int_blocks(limit, dtype), ["packed"] * p)
    _assert_matches_oracle(pool, int_blocks(-limit), ["through"] * p)
    _assert_matches_oracle(pool, int_blocks(-limit - 1), ["packed"] * p)

    # float64: the code of a non-negative float is its bit pattern; the
    # smallest subnormal (code 1) pins the common trailing zeros at none.
    def float_blocks(code):
        bits = np.zeros(m * p, dtype=np.uint64)
        bits[m + 1], bits[0] = abs(code), 1
        keys = bits.view(np.float64)
        return list(partition_input(-keys if code < 0 else keys, p)[0])

    _assert_matches_oracle(pool, float_blocks(limit - 1), ["through"] * p)
    _assert_matches_oracle(pool, float_blocks(limit), ["packed"] * p)
    _assert_matches_oracle(pool, float_blocks(-limit), ["through"] * p)
    _assert_matches_oracle(pool, float_blocks(-limit - 1), ["packed"] * p)


def test_codec_less_dtype_takes_the_fallback_without_a_frame_collective(pool):
    keys = np.random.default_rng(2).normal(size=400).astype(np.float16)
    run = _assert_matches_oracle(pool, list(partition_input(keys, 2)[0]), ["stable"] * 2)
    # No frame allgather was posted: step 1 never touched the control plane.
    assert all("1-local-sort" not in r.step_wait_seconds for r in run.reports)


# ------------------------------------------------- values-only, in place


@pytest.mark.parametrize("p", [2, 4])
def test_values_only_merge_is_bytes_equal_to_the_oracle(pool, p):
    rng = np.random.default_rng(5)
    options = SortOptions(track_provenance=False)
    for keys in (
        rng.integers(0, 50, 6_000).astype(np.int64),  # duplicate-heavy
        rng.integers(-(1 << 40), 1 << 40, 6_000).astype(np.int64),
        rng.integers(0, 1 << 16, 6_000).astype(np.uint16),
        np.empty(0, dtype=np.int64),
    ):
        blocks = list(partition_input(keys, p)[0])
        reference = local_sample_sort(blocks, options)
        run = pool.sort_blocks(blocks, options=options)
        for out, expected in zip(run.outputs, reference.per_processor):
            assert out.keys.tobytes() == expected.tobytes()
            assert len(out.provenance) == 0
        assert [r.local_sort_path for r in run.reports] == [None] * p


# ------------------------------------------- the data path says it once


def _narrow(rng, dtype):
    return rng.integers(-(1 << 20), 1 << 20, 6_000).astype(dtype)


#: row -> (keys, options, what its DataPath declares: label, roles, B/key)
DATA_PATHS = {
    "word": (lambda rng: _narrow(rng, np.int64), SortOptions(), "through", ("keys",), 8),
    "word-narrow-keys": (
        lambda rng: _narrow(rng, np.int32), SortOptions(), "through", ("words",), 8,
    ),
    # Full-mantissa float64 in [0, 1): no frame fits, not even one block's.
    "keys+perm": (
        lambda rng: rng.random(6_000), SortOptions(), "stable", ("keys", "index"), 12,
    ),
    "values-only": (
        lambda rng: _narrow(rng, np.int64),
        SortOptions(track_provenance=False),
        None,
        ("keys",),
        8,
    ),
}


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("row", DATA_PATHS)
def test_declared_data_path_agrees_everywhere(row, p, tmp_path):
    make_keys, options, label, roles, bytes_per_key = DATA_PATHS[row]
    blocks = list(partition_input(make_keys(np.random.default_rng(13)), p)[0])
    reference = local_sample_sort(blocks, options)
    with ProcessBackend(sanitize=True) as backend:
        run = backend.sort_blocks(blocks, options=options)
        assert backend.sanitizer.report.ok, backend.sanitizer.report.summary()
        backend.sanitizer.dump_log(tmp_path / "log.json")
    for out, keys, prov in zip(run.outputs, reference.per_processor, reference.provenance):
        assert out.keys.tobytes() == keys.tobytes()
        if options.track_provenance:
            assert out.provenance.origin_proc.tobytes() == prov.origin_proc.tobytes()
            assert out.provenance.origin_index.tobytes() == prov.origin_index.tobytes()
    # One decision, said once by the data path, read everywhere else.
    for report in run.reports:
        assert report.local_sort_path == label
        assert report.exchanged == roles
        assert report.bytes_per_key == bytes_per_key
    log = json.loads((tmp_path / "log.json").read_text())
    assert tuple(log["exchanged"]) == roles
    off_diagonal = int(run.counts_matrix.sum() - np.trace(run.counts_matrix))
    assert off_diagonal > 0
    assert run.cluster_metrics().remote_bytes == off_diagonal * bytes_per_key


# ------------------------------------------------------------ observability


def test_traced_word_run_ships_eight_bytes_per_key_and_labels_the_frame_wait():
    p, n = 4, 20_000
    data = np.random.default_rng(11).integers(0, 1 << 40, n).astype(np.int64)
    with capture(name="word-path") as cap:
        result = distributed_sort(data, num_processors=p, backend="process")
    tracer = cap.sessions[-1].tracer
    run = cap.sessions[-1].simulator.run
    assert [r.local_sort_path for r in run.reports] == ["through"] * p
    # One flow per (src, dst) word run: count x 8 bytes at the run's byte
    # offset in the word stream — together exactly one word per key.
    assert len(tracer.flows) == p * p
    assert sum(f.nbytes for f in tracer.flows) == 8 * n
    counts = result.counts_matrix
    starts = np.concatenate(([0], np.cumsum(counts.sum(axis=0))))
    for flow in tracer.flows:
        assert flow.nbytes == 8 * counts[flow.src, flow.dst]
        before = counts[: flow.src, flow.dst].sum()
        assert flow.offset == 8 * (starts[flow.dst] + before)
    # The frame allgather blocks inside step 1 and is accounted there.
    for report in run.reports:
        assert report.step_wait_seconds["1-local-sort"] > 0.0
    metrics = run.cluster_metrics()
    assert sum(m.bytes_sent for m in metrics.processes) == 8 * (n - np.trace(counts))

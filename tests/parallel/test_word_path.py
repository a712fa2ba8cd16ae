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
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import distributed_sort, partition_input
from repro.core.local_backend import local_sample_sort
from repro.core.packsort import (
    SortedWords,
    code_and_stats,
    derive_key_frame,
    packed_stable_sort,
)
from repro.core.scratch import ScratchArena
from repro.core.sorter import SortOptions
from repro.obs.context import capture
from repro.parallel import ProcessBackend
from repro.parallel.datapath import JobViews, choose_data_path

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
FLOAT_DTYPES = [np.float32, np.float64]


@pytest.fixture(scope="module")
def pool():
    with ProcessBackend() as backend:
        yield backend


def _expected_paths(blocks):
    """What each rank must report, from the frame arithmetic alone."""
    stats = [code_and_stats(b, np.empty(len(b), dtype=np.int64))[1] for b in blocks]
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


# ------------------------------------- steps 2-4 read the words, not a copy
#
# Fingerprints below are literals recorded at the parent commit (which
# decoded the whole block for steps 2-4): the sampled bytes are unchanged.


def _sanitized_stream(jobs, tmp_path):
    """Sort ``jobs`` in order on one sanitized p = 2 pool, each checked
    against the oracle; returns ``(verdict, fingerprint, path)`` per job."""
    seen = []
    with ProcessBackend(sanitize=True) as backend:
        for number, keys in enumerate(jobs):
            blocks = list(partition_input(keys, 2)[0])
            run = _assert_matches_oracle(backend, blocks)
            assert backend.sanitizer.report.ok, backend.sanitizer.report.summary()
            master = run.reports[0]
            seen.append((master.splitter_cache, master.sample_fingerprint, master.local_sort_path))
            # The step-2 refill gathers from the rank's own block of the
            # input, which the step-1 ``input-read`` record already covers.
            backend.sanitizer.dump_log(tmp_path / f"log{number}.json")
            log = json.loads((tmp_path / f"log{number}.json").read_text())
            reads = sorted(a[1:3] for a in log["accesses"] if a[7] == "input-read")
            assert [hi - lo for lo, hi in reads] == [b.nbytes for b in blocks]
            assert reads[0][1] == reads[1][0]  # back to back: together the whole input
    return seen


def test_cached_splitters_far_outside_the_key_frame_are_probed_exactly(tmp_path):
    rng = np.random.default_rng(41)
    far = ((1 << 61) + rng.integers(0, 1000, 400)).astype(np.int64)
    near = rng.integers(0, 1000, 400).astype(np.int64)
    # Jobs 3 and 4 take the word path with both far epochs as cache
    # candidates: every candidate is ranked against the words before the
    # verdict, and ±2^61 << shift would leave int64.
    assert _sanitized_stream([far, -far, near, near], tmp_path) == [
        ("cold", "33442658894248f83c0a898ae14d937545888c85", "stable"),
        ("miss", "03a8ee061cbb385247be4b6a5e9d34452353adcd", "stable"),
        ("miss", "08fafaf4c5f702505c6634482e8f5ca71f60d37c", "through"),
        ("hit", "08fafaf4c5f702505c6634482e8f5ca71f60d37c", "through"),
    ]


def _lossy_float_keys():
    rng = np.random.default_rng(43)
    keys = np.floor(rng.exponential(50.0, 2_000)) - 20.0
    bits = keys.view(np.uint64)
    keys[::7] = -0.0
    bits[3::11] = 0x7FF8_0000_0000_0000 | rng.integers(1, 1 << 20, len(bits[3::11])).astype(
        np.uint64
    )
    bits[5::13] = 0xFFF0_0000_0000_0001 + rng.integers(0, 1 << 20, len(bits[5::13])).astype(
        np.uint64
    )
    return keys


def test_samples_with_signed_zeros_and_nan_payloads_keep_their_bytes(tmp_path):
    # 1000 keys per rank against a 16 Ki sample budget: every key is a
    # sample, the lossy codes (-0.0, NaNs of both signs) included.
    keys = _lossy_float_keys()
    fingerprint = "31bae59e4d4b8cc5961479ede5d2f90d5ddf8444"
    assert _sanitized_stream([keys, keys], tmp_path) == [
        ("cold", fingerprint, "through"),
        ("hit", fingerprint, "through"),
    ]


def test_word_path_step_one_holds_one_lease_and_no_decoded_copy():
    block = _lossy_float_keys()
    n = len(block)
    lease = SimpleNamespace(name="stub")
    plan = SimpleNamespace(
        size=1, block_bounds=(0, n), options=SortOptions(), word_lease=lease, key_lease=lease
    )
    link = SimpleNamespace(allgather=lambda stats: [stats])
    out = np.empty(n, dtype=np.float64)
    views = JobViews(
        block, out, np.empty(n, np.int32), np.empty(n, np.int16), out.view(np.int64)
    )
    scratch = ScratchArena()
    path = choose_data_path(plan, 0, link, views, block, scratch)
    assert path.label == "through" and isinstance(path.sorted_block, SortedWords)
    assert (scratch.pooled_bytes(), scratch.live_leases) == (8 * n, 1)
    assert path.streams[0][2] is path.sorted_block.words  # the lease *is* the payload
    expected = block[block.argsort(kind="stable")]
    assert path.sorted_block.take(np.arange(n)).tobytes() == expected.tobytes()
    assert scratch.pooled_bytes() == 8 * n  # reading the block decoded nothing into the pool


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

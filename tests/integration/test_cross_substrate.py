"""Cross-substrate differential test: simnet, the pool and the oracle agree.

Contract: for every dtype the codec covers, full-mantissa float64, the
degenerate shapes and every sort option, the simulated sorter's keys,
``origin_proc`` and ``origin_index`` are bytes-equal to
``local_sample_sort``; simnet takes the word path exactly when the frame
arithmetic says the job's key frame fits; and for p ≤ 4 one warm
``ProcessBackend`` returns the same bytes and reports the same data path
on every rank.
Under faults, a wire fault leaves simnet's bytes and path as they were,
and a persistent crash degrades both substrates to the same bytes.
Hypothesis runs derandomized (``tests/conftest.py``) with a small cap.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import DistributedSorter, partition_input
from repro.core.local_backend import local_sample_sort
from repro.core.packsort import code_and_stats, derive_key_frame
from repro.core.datapath import THROUGH
from repro.core.retry import RetryPolicy
from repro.core.scratch import ARENAS
from repro.core.sorter import SortJob, SortOptions
from repro.parallel import ProcessBackend, RealFaultPlan
from repro.simnet.faults import FaultPlan
from repro.simnet.sanitizer import sanitize
from repro.workloads.distributions import right_skewed, uniform

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
RANKS = [1, 2, 3, 16]


@pytest.fixture(scope="module")
def pool():
    with ProcessBackend() as backend:
        yield backend


@pytest.fixture
def word_merges(monkeypatch):
    """Counts simnet's word-path step-6 merges (one per rank per job)."""
    calls = []
    merge = SortJob.merge

    def counting(self, machine, path, *args):
        if path.label == THROUGH:
            calls.append(1)
        return merge(self, machine, path, *args)

    monkeypatch.setattr(SortJob, "merge", counting)
    return calls


def _frame(blocks):
    """The frame arithmetic alone, from every block's statistics."""
    stats = [code_and_stats(b, np.empty(len(b), dtype=np.int64))[1] for b in blocks]
    return derive_key_frame(stats, blocks[0].dtype, len(blocks))


def _assert_bytes_equal(outputs, reference):
    for (keys, prov), ref_keys, ref_prov in zip(outputs, reference.per_processor, reference.provenance):
        assert keys.dtype == ref_keys.dtype and keys.tobytes() == ref_keys.tobytes()
        for name in ("origin_proc", "origin_index"):
            got, want = getattr(prov, name), getattr(ref_prov, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def _assert_substrates_agree(blocks, word_merges, pool=None):
    """Simnet (and the pool, for p ≤ 4) against the oracle; returns whether
    simnet took the word path."""
    p = len(blocks)
    reference = local_sample_sort(blocks)
    word_merges.clear()
    result = DistributedSorter(num_processors=p).sort_partitioned(blocks)
    _assert_bytes_equal(zip(result.per_processor, result.provenance), reference)
    took_words = bool(word_merges)
    assert took_words == (_frame(blocks) is not None)
    assert len(word_merges) == (p if took_words else 0)
    # A frame-miss run explains itself; a word-path one keeps its schema.
    assert all((m.local_sort_path is None) == took_words for m in result.metrics.processes)
    if pool is not None and p <= 4:
        run = pool.sort_blocks(blocks)
        _assert_bytes_equal(((o.keys, o.provenance) for o in run.outputs), reference)
        # One data path: each rank says the same of it on both substrates.
        paths = [m.local_sort_path for m in result.metrics.processes]
        assert paths == [m.local_sort_path for m in run.cluster_metrics().processes]
    return took_words


def _special_floats(dtype):
    """±0.0, ±inf and NaNs of both signs with distinct payloads."""
    uint_t = {np.float32: np.uint32, np.float64: np.uint64}[dtype]
    bits = 8 * np.dtype(dtype).itemsize
    sign, mantissa = 1 << (bits - 1), (1 << {32: 23, 64: 52}[bits]) - 1
    inf = (sign - 1) & ~mantissa
    quiet = (mantissa + 1) >> 1
    raw = [0, sign, inf, sign | inf, inf | 1, inf | quiet | 7, sign | inf | quiet | 5, sign | inf | mantissa]
    return np.array(raw, dtype=uint_t).view(dtype)


def _keys(kind, n, rng):
    """One dataset of ``n`` keys of the named kind."""
    if kind in {np.dtype(d).name for d in INT_DTYPES}:
        info = np.iinfo(kind)
        lo, hi = max(int(info.min), -(1 << 40)), min(int(info.max), 1 << 40)
        return rng.integers(lo, hi, n, endpoint=True).astype(kind)
    if kind == "float32":
        keys = rng.normal(size=n).astype(np.float32)
    elif kind == "integral float64":
        keys = np.floor(rng.exponential(300.0, n)) - 40.0
    else:  # "full-mantissa float64": no frame fits
        return rng.random(n)
    specials = _special_floats(keys.dtype.type)
    at = rng.integers(0, n, min(n, 3 * len(specials)))
    keys[at] = specials[np.arange(len(at)) % len(specials)]
    return keys


KINDS = [np.dtype(d).name for d in INT_DTYPES] + [
    "float32",
    "integral float64",
    "full-mantissa float64",
]


# ------------------------------------------------------------ every dtype


@pytest.mark.parametrize("p", RANKS)
@pytest.mark.parametrize("kind", KINDS)
def test_every_dtype_agrees_across_substrates(pool, word_merges, kind, p):
    keys = _keys(kind, 40 * p + 7, np.random.default_rng([p, KINDS.index(kind)]))
    took_words = _assert_substrates_agree(list(partition_input(keys, p)[0]), word_merges, pool)
    assert took_words == (kind != "full-mantissa float64")


# --------------------------------------------------------- degenerate shapes


def _shape(name, p):
    rng = np.random.default_rng([p, 99])
    if name == "empty blocks":
        keys = rng.integers(0, 50, 3 * p + 1)
        cuts = sorted(rng.integers(0, len(keys), p - 1).tolist())
        cuts[: (p - 1) // 2] = [0] * ((p - 1) // 2)  # the low ranks hold nothing
        return [np.ascontiguousarray(b) for b in np.split(keys, cuts)]
    if name == "n < p":
        return list(partition_input(rng.integers(0, 9, max(p - 1, 0)), p)[0])
    if name == "nothing at all":
        return list(partition_input(np.empty(0, dtype=np.int64), p)[0])
    if name == "all equal":
        return list(partition_input(np.full(50 * p, -3, dtype=np.int32), p)[0])
    if name == "right-skewed":  # one tie across several splitters
        return list(partition_input(right_skewed(400 * p, seed=p), p)[0])
    raise KeyError(name)


@pytest.mark.parametrize("p", RANKS)
@pytest.mark.parametrize("name", ["empty blocks", "n < p", "nothing at all", "all equal", "right-skewed"])
def test_degenerate_shapes_agree_across_substrates(pool, word_merges, name, p):
    assert _assert_substrates_agree(_shape(name, p), word_merges, pool)


@pytest.mark.parametrize("edge, fits", [(-1, True), (0, False)])
def test_int64_at_the_p16_frame_limit(word_merges, edge, fits):
    p, m = 16, 33  # keys per rank: 6 index bits, 4 rank bits
    limit = 1 << (62 - (m - 1).bit_length() - (p - 1).bit_length())
    keys = np.zeros(m * p, dtype=np.int64)
    keys[5 * m + 2] = limit + edge
    keys[9 * m] = -limit  # the other end of the frame fits either way
    assert _assert_substrates_agree(list(partition_input(keys, p)[0]), word_merges) == fits


# ------------------------------------------------------ narrow key frames
#
# The paper's duplicate-heavy inputs pack into int32 words: code, rank
# and index fit in 30 bits, and the words travel in the index stream.
# CI also runs these pinned to one CPU (one kernel thread, same bytes).

NARROW = {
    "right-skewed": lambda n, seed: right_skewed(n, seed=seed),
    "uniform over 100": lambda n, seed: uniform(n, seed=seed),
    "duplicate-heavy [0, 1000)": lambda n, seed: np.random.default_rng(seed).integers(0, 1000, n),
    "int8": lambda n, seed: np.random.default_rng(seed).integers(-128, 128, n).astype(np.int8),
}


@pytest.mark.parametrize("p", [2, 3, 4, 16])
@pytest.mark.parametrize("name", NARROW)
def test_narrow_frames_agree_across_substrates(pool, word_merges, name, p):
    blocks = list(partition_input(NARROW[name](500 * p + 3, p), p)[0])
    assert _frame(blocks).word_dtype == np.int32
    assert _assert_substrates_agree(blocks, word_merges, pool)


# ``word_merges`` is cleared inside every ``_assert_substrates_agree`` call.
@settings(max_examples=12, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_generated_jobs_agree_across_substrates(pool, word_merges, data):
    p = data.draw(st.sampled_from(RANKS))
    kind = data.draw(st.sampled_from(KINDS))
    n = data.draw(st.integers(0, 30 * p))
    keys = _keys(kind, n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    _assert_substrates_agree(list(partition_input(keys, p)[0]), word_merges, pool)


# ------------------------------------------------------------------ options

#: Every non-default value something that runs sets, as sorter overrides.
OPTIONS = {
    "no investigator": {"investigator": False},
    "sequential merge": {"balanced_merge": False},
    "sample x0.25": {"sample_factor": 0.25},
    "sample x4": {"sample_factor": 4.0},
}


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("kind", ["int64", "full-mantissa float64"])
@pytest.mark.parametrize("name", OPTIONS)
def test_every_option_agrees_across_substrates(pool, name, kind, p):
    keys = _keys(kind, 60 * p + 5, np.random.default_rng([p, KINDS.index(kind)]))
    keys[::4] = keys[1]  # a tie across splitters: the investigator's case
    blocks = list(partition_input(keys, p)[0])
    options = SortOptions(**OPTIONS[name])
    reference = local_sample_sort(blocks, options)
    sim = DistributedSorter(num_processors=p, **OPTIONS[name]).sort_partitioned(blocks)
    _assert_bytes_equal(zip(sim.per_processor, sim.provenance), reference)
    run = pool.sort_blocks(blocks, options=options)
    _assert_bytes_equal(((o.keys, o.provenance) for o in run.outputs), reference)


# ---------------------------------------------------- several jobs, faults


def test_sort_multi_of_mixed_dtypes_is_each_datasets_oracle(word_merges):
    """Back-to-back jobs in one run, each on its own path.  A slow rank
    still drains one job's words while its peers pack the next job's: a
    step-1 lease reused before the run ends would corrupt its output."""
    p = 4
    rng = np.random.default_rng(5)
    datasets = [
        rng.integers(0, 1 << 30, 4_000),
        _keys("full-mantissa float64", 2_000, rng),
        _keys("float32", 2_500, rng),
        right_skewed(3_000, seed=2).astype(np.int32)[::-1].copy(),
        _keys("uint16", 1_000, rng),
    ]
    sorter = DistributedSorter(num_processors=p, rank_speed=(1.0, 0.02, 1.0, 1.0))
    with sanitize() as san:
        results = sorter.sort_multi(datasets)
    assert san.report.ok, san.report.summary()
    for data, result in zip(datasets, results):
        reference = local_sample_sort(list(partition_input(data, p)[0]))
        _assert_bytes_equal(zip(result.per_processor, result.provenance), reference)
    assert len(word_merges) == 4 * p  # every dataset but the float64 one


def test_sort_multi_of_narrow_and_wide_frames_does_not_grow_the_arenas():
    """int32- and int64-word jobs back to back in one run: each is its
    dataset's oracle, and twelve datasets pool what one of each shape does."""
    p = 4
    rng = np.random.default_rng(8)
    shapes = [
        lambda: rng.integers(0, 1000, 3_000),  # int32 words
        lambda: rng.integers(0, 1 << 40, 3_000),  # int64 words, 8-byte keys
        lambda: rng.integers(-9, 9, 3_000).astype(np.float32),  # int32 words from int64 codes
        lambda: rng.integers(0, 1 << 30, 3_000).astype(np.int32),  # int64 words stream of its own
    ]
    datasets = [shapes[k % len(shapes)]() for k in range(12)]
    widths = [_frame(list(partition_input(d, p)[0])).word_dtype for d in datasets]
    assert widths[:4] == [np.int32, np.int64, np.int32, np.int64]
    sorter = DistributedSorter(num_processors=p)
    sorter.sort_multi(datasets[:4])
    pooled = sum(arena.pooled_bytes() for arena in ARENAS.idle)
    for data, result in zip(datasets, sorter.sort_multi(datasets)):
        reference = local_sample_sort(list(partition_input(data, p)[0]))
        _assert_bytes_equal(zip(result.per_processor, result.provenance), reference)
    assert sum(arena.pooled_bytes() for arena in ARENAS.idle) == pooled


WIRE_FAULTS = {
    "drop": FaultPlan(seed=1, drop_prob=0.1),
    "delay": FaultPlan(seed=2, delay_prob=0.2, delay_spike=1e-4),
    "link": FaultPlan(seed=3, links=((0, 1, 4.0, 1e-5), (1, 2, 2.0, 0.0))),
    "slow": FaultPlan(seed=4, slow=((1, 3.0),)),
}


@pytest.mark.parametrize("p", [3, 16])
@pytest.mark.parametrize("name", WIRE_FAULTS)
def test_wire_faults_leave_the_bytes_and_the_word_path(word_merges, name, p):
    blocks = list(partition_input(_keys("int64", 300 * p, np.random.default_rng(p)), p)[0])
    clean = DistributedSorter(num_processors=p).sort_partitioned(blocks)
    word_merges.clear()
    result = DistributedSorter(num_processors=p, faults=WIRE_FAULTS[name]).sort_partitioned(blocks)
    assert result.survivors is None and result.recovery_rounds == 0
    _assert_bytes_equal(zip(result.per_processor, result.provenance), clean)
    assert len(word_merges) == (p if _frame(blocks) is not None else 0) == p


@pytest.mark.parametrize("p", [2, 3, 4])
def test_a_persistent_crash_degrades_both_substrates_alike(p):
    """simnet's ``crash=R@T`` and the pool's ``poison=R`` are one fault:
    the rank is dropped after ``degrade_after`` attempts and the whole
    input comes back from the survivors, byte for byte the same."""
    data = _keys("int64", 500 * p, np.random.default_rng([p, 7]))
    blocks, offsets = partition_input(data, p)
    sim = DistributedSorter(num_processors=p, faults=FaultPlan(crashes=((1, 0.0),))).sort(data)
    policy = RetryPolicy(backoff_seconds=0.001, backoff_cap_seconds=0.01)
    with ProcessBackend(chaos=RealFaultPlan.from_spec("poison=1"), retry=policy) as backend:
        real = backend.sort_blocks(blocks).to_sort_result(offsets)
    assert sim.survivors == real.survivors == tuple(r for r in range(p) if r != 1)
    assert sim.input_offsets.tobytes() == real.input_offsets.tobytes()
    assert np.array_equal(sim.to_array(), np.sort(data))
    _assert_bytes_equal(zip(sim.per_processor, sim.provenance), real)

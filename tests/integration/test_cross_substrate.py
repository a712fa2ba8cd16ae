"""Cross-substrate differential test: simnet, the pool and the oracle agree.

Contract: for every dtype the codec covers, full-mantissa float64, the
degenerate shapes and every sort option, the simulated sorter's keys,
``origin_proc`` and ``origin_index`` are bytes-equal to
``local_sample_sort``; simnet takes the word path exactly when the frame
arithmetic says the job's key frame fits; and for p ≤ 4 one warm
``ProcessBackend`` returns the same bytes and reports the same data path
on every rank.
Under faults, a wire fault leaves simnet's bytes and path as they were,
and one fault spec drives both backend objects (``SimnetBackend`` and
``ProcessBackend``) alike through the same ``sort_blocks`` call: a kill
at any step recovers in one retry to the fault-free bytes, a poisoned
rank degrades both to the same bytes, and generated ``kill``/``poison``/
``slow`` specs end both in their substrate's error or in the same bytes
and accounting; on both, the innermost fault scope wins.  Every
case also holds each substrate to regular sampling's balance bound (the
``assert_balanced`` fixture); only the no-investigator option, Figure 3b's
naive cuts, is exempt.
Hypothesis runs derandomized (``tests/conftest.py``) with a small cap.
"""

from contextlib import closing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import DistributedSorter, partition_input
from repro.core.local_backend import local_sample_sort
from repro.core.packsort import block_stats, derive_key_frame
from repro.core.datapath import THROUGH
from repro.core.retry import RetryPolicy
from repro.core.scratch import ARENAS
from repro.core.sorter import STEP_LABELS, SortJob, SortOptions
from repro.faults import COLLECTIVE_OPS, FaultPlan, inject_faults
from repro.obs import capture
from repro.parallel import JobAbortedError, ProcessBackend, SimnetBackend
from repro.simnet.errors import DeadlockError
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
    stats = [block_stats(b) for b in blocks]
    return derive_key_frame(stats, blocks[0].dtype)


def _assert_bytes_equal(outputs, reference):
    for (keys, prov), ref_keys, ref_prov in zip(outputs, reference.per_processor, reference.provenance):
        assert keys.dtype == ref_keys.dtype and keys.tobytes() == ref_keys.tobytes()
        for name in ("origin_proc", "origin_index"):
            got, want = getattr(prov, name), getattr(ref_prov, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def _assert_substrates_agree(blocks, word_merges, assert_balanced, pool=None):
    """Simnet (and the pool, for p ≤ 4) against the oracle, each within the
    balance bound; returns whether simnet took the word path."""
    p = len(blocks)
    reference = local_sample_sort(blocks)
    assert_balanced(reference.per_processor, blocks)
    word_merges.clear()
    result = DistributedSorter(num_processors=p).sort_partitioned(blocks)
    _assert_bytes_equal(zip(result.per_processor, result.provenance), reference)
    assert_balanced(result.per_processor, blocks)
    took_words = bool(word_merges)
    assert took_words == (_frame(blocks) is not None)
    assert len(word_merges) == (p if took_words else 0)
    # A frame-miss run explains itself; a word-path one keeps its schema.
    assert all((m.local_sort_path is None) == took_words for m in result.metrics.processes)
    if pool is not None and p <= 4:
        run = pool.sort_blocks(blocks)
        _assert_bytes_equal(((o.keys, o.provenance) for o in run.outputs), reference)
        assert_balanced([o.keys for o in run.outputs], blocks)
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
    if kind == "uint64 upper half":  # codes no int64 holds: no frame fits
        return rng.integers(1 << 63, (1 << 64) - 1, n, dtype=np.uint64, endpoint=True)
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


#: The kinds no key frame fits: keys + perm.
FRAME_MISSES = ["full-mantissa float64", "uint64 upper half"]
KINDS = [np.dtype(d).name for d in INT_DTYPES] + ["float32", "integral float64", *FRAME_MISSES]


# ------------------------------------------------------------------ step 1


def _step_one_windows(tracer):
    """Each rank's step-1 phase span, as ``rank -> (begin, end)``."""
    return {s.rank: (s.start, s.end) for s in tracer.phase_spans() if s.label == STEP_LABELS[0]}


#: A dtype the codec covers, and one it has no code for.
STEP_ONE_DTYPES = [np.int64, np.float16]


@pytest.mark.parametrize("p", RANKS[1:])
@pytest.mark.parametrize("dtype", STEP_ONE_DTYPES)
def test_simnet_step_one_allgathers_the_frame_statistics(dtype, p):
    """Each rank codes its block and allgathers its statistics in step 1,
    charged as a gather to the Master and a binomial broadcast: 2(p − 1)
    messages between the step-1 marks.  A dtype without a codec posts none."""
    data = np.random.default_rng(p).integers(0, 1000, 400 * p).astype(dtype)
    with capture() as cap:
        result = DistributedSorter(num_processors=p).sort(data)
    assert np.array_equal(result.to_array(), np.sort(data))
    tracer = cap.sessions[-1].tracer
    windows = _step_one_windows(tracer)
    sent = [f for f in tracer.flows if windows[f.src][0] <= f.inject_t < windows[f.src][1]]
    assert len(sent) == (2 * (p - 1) if dtype is np.int64 else 0)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("dtype", STEP_ONE_DTYPES)
def test_pool_step_one_allgathers_the_frame_statistics(pool, dtype, p):
    """The pool's step 1 posts the same collective: one allgather per rank,
    or none for a dtype without a codec."""
    data = np.random.default_rng(p).integers(0, 1000, 400 * p).astype(dtype)
    blocks, _ = partition_input(data, p)
    with capture() as cap:
        result = pool.sort_blocks(blocks).to_sort_result()
    assert np.array_equal(result.to_array(), np.sort(data))
    tracer = cap.sessions[-1].tracer
    windows = _step_one_windows(tracer)
    waits = [
        s for s in tracer.spans
        if s.label == "allgather" and windows[s.rank][0] <= s.start < windows[s.rank][1]
    ]
    assert sorted(s.rank for s in waits) == (list(range(p)) if dtype is np.int64 else [])


# ------------------------------------------------------------ every dtype


@pytest.mark.parametrize("p", RANKS)
@pytest.mark.parametrize("kind", KINDS)
def test_every_dtype_agrees_across_substrates(pool, word_merges, assert_balanced, kind, p):
    keys = _keys(kind, 40 * p + 7, np.random.default_rng([p, KINDS.index(kind)]))
    took_words = _assert_substrates_agree(
        list(partition_input(keys, p)[0]), word_merges, assert_balanced, pool
    )
    assert took_words == (kind not in FRAME_MISSES)


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
def test_degenerate_shapes_agree_across_substrates(pool, word_merges, assert_balanced, name, p):
    assert _assert_substrates_agree(_shape(name, p), word_merges, assert_balanced, pool)


@pytest.mark.parametrize("edge, fits", [(-1, True), (0, False)])
def test_int64_at_the_p16_frame_limit(word_merges, assert_balanced, edge, fits):
    p, m = 16, 33  # keys per rank: 6 index bits, 4 rank bits
    limit = 1 << (62 - (m - 1).bit_length() - (p - 1).bit_length())
    keys = np.zeros(m * p, dtype=np.int64)
    keys[5 * m + 2] = limit + edge
    keys[9 * m] = -limit  # the other end of the frame fits either way
    blocks = list(partition_input(keys, p)[0])
    assert _assert_substrates_agree(blocks, word_merges, assert_balanced) == fits


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
def test_narrow_frames_agree_across_substrates(pool, word_merges, assert_balanced, name, p):
    blocks = list(partition_input(NARROW[name](500 * p + 3, p), p)[0])
    assert _frame(blocks).word_dtype == np.int32
    assert _assert_substrates_agree(blocks, word_merges, assert_balanced, pool)


# ``word_merges`` is cleared inside every ``_assert_substrates_agree`` call.
@settings(max_examples=12, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_generated_jobs_agree_across_substrates(pool, word_merges, assert_balanced, data):
    p = data.draw(st.sampled_from(RANKS))
    kind = data.draw(st.sampled_from(KINDS))
    n = data.draw(st.integers(0, 30 * p))
    keys = _keys(kind, n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    _assert_substrates_agree(list(partition_input(keys, p)[0]), word_merges, assert_balanced, pool)


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
def test_every_option_agrees_across_substrates(pool, assert_balanced, name, kind, p):
    keys = _keys(kind, 60 * p + 5, np.random.default_rng([p, KINDS.index(kind)]))
    keys[::4] = keys[1]  # a tie across splitters: the investigator's case
    blocks = list(partition_input(keys, p)[0])
    options = SortOptions(**OPTIONS[name])
    reference = local_sample_sort(blocks, options)
    sim = DistributedSorter(num_processors=p, **OPTIONS[name]).sort_partitioned(blocks)
    _assert_bytes_equal(zip(sim.per_processor, sim.provenance), reference)
    run = pool.sort_blocks(blocks, options=options)
    _assert_bytes_equal(((o.keys, o.provenance) for o in run.outputs), reference)
    if options.investigator:  # Figure 3b's naive cuts promise no balance
        for partitions in (reference.per_processor, sim.per_processor, [o.keys for o in run.outputs]):
            assert_balanced(partitions, blocks, options.sample_factor)


# ---------------------------------------------------- several jobs, faults


def test_sort_many_of_mixed_dtypes_is_each_datasets_oracle(word_merges, assert_balanced):
    """Back-to-back jobs, each on its own path and each with one slow
    rank: every job is its dataset's oracle, balanced, and SimSan-clean,
    whichever job leased the arena before it."""
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
        results = sorter.sort_many(datasets)
    assert san.report.ok, san.report.summary()
    for data, result in zip(datasets, results):
        blocks = list(partition_input(data, p)[0])
        reference = local_sample_sort(blocks)
        _assert_bytes_equal(zip(result.per_processor, result.provenance), reference)
        assert_balanced(result.per_processor, blocks)
    assert len(word_merges) == 4 * p  # every dataset but the float64 one


def test_sort_many_of_narrow_and_wide_frames_does_not_grow_the_arenas(assert_balanced):
    """int32- and int64-word jobs back to back: each is its dataset's
    oracle, and twelve datasets pool what one of each shape does."""
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
    sorter.sort_many(datasets[:4])
    pooled = sum(arena.pooled_bytes() for arena in ARENAS.idle)
    for data, result in zip(datasets, sorter.sort_many(datasets)):
        blocks = list(partition_input(data, p)[0])
        reference = local_sample_sort(blocks)
        _assert_bytes_equal(zip(result.per_processor, result.provenance), reference)
        assert_balanced(result.per_processor, blocks)
    assert sum(arena.pooled_bytes() for arena in ARENAS.idle) == pooled


WIRE_FAULTS = {
    "drop": FaultPlan(seed=1, drop_prob=0.1),
    "delay": FaultPlan(seed=2, delay_prob=0.2, delay_spike=1e-4),
    "link": FaultPlan(seed=3, links=((0, 1, 4.0, 1e-5), (1, 2, 2.0, 0.0))),
    "slow": FaultPlan(seed=4, slow=((1, 3.0),)),
}


@pytest.mark.parametrize("p", [3, 16])
@pytest.mark.parametrize("name", WIRE_FAULTS)
def test_wire_faults_leave_the_bytes_and_the_word_path(word_merges, assert_balanced, name, p):
    blocks = list(partition_input(_keys("int64", 300 * p, np.random.default_rng(p)), p)[0])
    clean = DistributedSorter(num_processors=p).sort_partitioned(blocks)
    word_merges.clear()
    result = DistributedSorter(num_processors=p, faults=WIRE_FAULTS[name]).sort_partitioned(blocks)
    assert result.survivors is None and result.recovery_rounds == 0
    _assert_bytes_equal(zip(result.per_processor, result.provenance), clean)
    assert_balanced(result.per_processor, blocks)
    assert len(word_merges) == (p if _frame(blocks) is not None else 0) == p


@st.composite
def _wire_specs(draw):
    """``(p, spec)``: wire faults alone — ``drop``, ``delay`` and ``link``,
    simnet's keys — from harmless to losing messages for good."""
    p = draw(st.sampled_from([2, 3, 16]))
    entries = []
    for key in sorted(draw(st.sets(st.sampled_from(["drop", "delay", "link"]), min_size=1))):
        if key == "drop":
            entries.append(f"drop={draw(st.sampled_from([0.05, 0.3, 0.8]))}")
        elif key == "delay":
            entries.append(f"delay={draw(st.sampled_from([0.1, 0.5]))}:{draw(st.sampled_from([1e-5, 1e-4]))}")
        else:
            for _ in range(draw(st.integers(1, 3))):
                src = draw(st.integers(0, p - 1))
                dst = (src + draw(st.integers(1, p - 1))) % p
                entries.append(f"link={src}-{dst}:{draw(st.sampled_from([1.5, 4.0]))}:{draw(st.sampled_from([0.0, 1e-5]))}")
    return p, ",".join(entries)


def _lost_for_good(session):
    """Whether the session's run lost a message: every copy of it dropped."""
    return any(m.messages_dropped > m.retries for m in session.simulator.metrics().processes)


@settings(max_examples=12)
@given(case=_wire_specs(), seed=st.integers(0, 2**32 - 1))
def test_generated_wire_faults_leave_the_bytes_or_fail_typed(case, seed):
    """A generated wire-fault spec on simnet: the job either returns the
    fault-free run's bytes and provenance at full width, every attempt
    but the last having lost a message for good, or ends in a
    ``DeadlockError`` after every attempt lost one."""
    p, spec = case
    blocks = list(partition_input(_keys("int64", 300 * p, np.random.default_rng(p)), p)[0])
    clean = DistributedSorter(num_processors=p).sort_partitioned(blocks)
    sorter = DistributedSorter(num_processors=p, faults=FaultPlan.from_spec(spec, seed=seed))
    with capture() as cap:
        try:
            result = sorter.sort_partitioned(blocks)
        except DeadlockError:
            result = None
    lost = [_lost_for_good(session) for session in cap.sessions]
    if result is None:
        assert lost and all(lost), (spec, lost)
        return
    assert result.survivors is None, spec
    _assert_bytes_equal(zip(result.per_processor, result.provenance), clean)
    assert lost == [True] * (len(lost) - 1) + [False], (spec, lost)


#: The pool's retries back off briefly; the attempt and degrade budgets
#: are the default policy's, which simnet runs under.
FAST_RETRY = RetryPolicy(backoff_seconds=0.001, backoff_cap_seconds=0.01)


def _backends():
    """One backend object per substrate; each reads the ambient fault
    plan (``inject_faults``) per job, the same way."""
    return SimnetBackend(), ProcessBackend(retry=FAST_RETRY)


def _on_both_substrates(spec, data, p):
    """One fault spec, one job: the same ``sort_blocks`` call on each
    substrate's backend object."""
    blocks, _ = partition_input(data, p)
    results = []
    for backend in _backends():
        with closing(backend), inject_faults(FaultPlan.from_spec(spec, seed=p)):
            results.append(backend.sort_blocks(blocks).to_sort_result())
    return results


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("step", STEP_LABELS)
def test_a_kill_at_any_step_recovers_alike_on_both_substrates(assert_balanced, step, p):
    """``kill=R@STEP`` means one thing on both substrates: the rank dies
    entering the step on the first attempt, and the retry recovers at
    full width to the fault-free bytes."""
    rank = STEP_LABELS.index(step) % p
    data = _keys("int64", 400 * p, np.random.default_rng([p, 5]))
    blocks = list(partition_input(data, p)[0])
    reference = local_sample_sort(blocks)
    for result in _on_both_substrates(f"kill={rank}@{step}", data, p):
        assert result.survivors is None and result.recovery_rounds == 0
        assert [m.retries for m in result.metrics.processes] == [int(r == rank) for r in range(p)]
        _assert_bytes_equal(zip(result.per_processor, result.provenance), reference)
        assert_balanced(result.per_processor, blocks)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_a_persistent_crash_degrades_both_substrates_alike(assert_balanced, p):
    """``poison=R`` is one fault on both substrates: the rank is dropped
    after ``degrade_after`` attempts and the whole input comes back from
    the survivors, byte for byte the same."""
    data = _keys("int64", 500 * p, np.random.default_rng([p, 7]))
    sim, real = _on_both_substrates("poison=1", data, p)
    assert sim.survivors == real.survivors == tuple(r for r in range(p) if r != 1)
    assert sim.input_offsets.tobytes() == real.input_offsets.tobytes()
    # One accounting on both: the dropped rank crashed, and each of its
    # failed attempts is a retry charged to it.
    for field in ("crashed", "retries"):
        assert [getattr(m, field) for m in sim.metrics.processes] == [
            getattr(m, field) for m in real.metrics.processes
        ]
    assert sim.metrics.processes[1].crashed and sim.metrics.processes[1].retries > 0
    # The offsets are the provenance's block starts, on every rank.
    for result in (sim, real):
        for prov in result.provenance:
            assert np.array_equal(result.input_offsets, prov.block_starts[:-1])
    assert np.array_equal(sim.to_array(), np.sort(data))
    _assert_bytes_equal(zip(sim.per_processor, sim.provenance), real)
    # The survivors re-sorted the whole input as p - 1 equal blocks.
    survivor_blocks = list(partition_input(data, p - 1)[0])
    assert_balanced(sim.per_processor, survivor_blocks)
    assert_balanced(real.per_processor, survivor_blocks)


#: Two plans told apart by what they do: the outer one would drop rank 1
#: (poisoned), the inner one kills rank 2 once, retried at full width.
OUTER_PLAN = FaultPlan.from_spec("poison=1", seed=4)
INNER_PLAN = FaultPlan.from_spec("kill=2@5-exchange", seed=4)


@pytest.mark.parametrize("substrate", ["simnet", "process"])
def test_the_innermost_fault_scope_wins(assert_balanced, substrate):
    """Nesting is the one precedence rule for a fault plan, on both
    substrates: an inner ``inject_faults`` replaces an outer one, and a
    sorter's ``SortConfig.faults`` is the innermost scope of its jobs."""
    data = _keys("int64", 1_600, np.random.default_rng(9))
    blocks = list(partition_input(data, 4)[0])
    reference = local_sample_sort(blocks)
    backend = SimnetBackend() if substrate == "simnet" else ProcessBackend(retry=FAST_RETRY)
    with closing(backend), inject_faults(OUTER_PLAN):
        with inject_faults(INNER_PLAN):
            nested = backend.sort_blocks(blocks).to_sort_result()
        sorter = DistributedSorter(num_processors=4, faults=INNER_PLAN, backend=backend)
        configured = sorter.sort(data)
    for result in (nested, configured):
        assert result.survivors is None and result.recovery_rounds == 0
        assert [m.retries for m in result.metrics.processes] == [0, 0, 1, 0]
        _assert_bytes_equal(zip(result.per_processor, result.provenance), reference)
        assert_balanced(result.per_processor, blocks)


@pytest.mark.parametrize("dropped", [2, 3])
def test_a_dropped_rank_is_an_empty_block_and_origins_are_the_oracle_positions(dropped):
    """A degraded result's input offsets are non-decreasing — the dropped
    rank is an empty block at the next survivor's start, or at the end —
    and on both substrates ``origin_of`` and ``gather_values`` answer with
    the oracle's positions in the survivors' re-planned input."""
    p = 4
    data = _keys("int64", 500 * p, np.random.default_rng([p, dropped]))
    survivors = tuple(r for r in range(p) if r != dropped)
    reference = local_sample_sort(list(partition_input(data, p - 1)[0]))
    positions = np.concatenate([prov.origin for prov in reference.provenance])
    payload = 3 * np.arange(len(data)) + 1
    for result in _on_both_substrates(f"poison={dropped}", data, p):
        assert result.survivors == survivors
        offsets = result.input_offsets
        assert np.all(np.diff(offsets) >= 0), offsets
        assert offsets[dropped] == (offsets[dropped + 1] if dropped + 1 < p else len(data))
        np.testing.assert_array_equal(result.gather_values(payload), payload[positions])
        for slot, rank in enumerate(survivors):
            ref = reference.provenance[slot]
            expected = zip(ref.origin_proc.tolist(), ref.origin_index.tolist())
            got = [result.origin_of(rank, i) for i in range(len(ref))]
            assert got == [(survivors[proc], index) for proc, index in expected]


@st.composite
def _fault_specs(draw):
    """``(p, spec)``: a spec over the keys both substrates realise —
    ``kill=R@STEP[:JOB]``, ``poison=R`` and ``slow=RxM`` — whose outcome
    does not hang on which of two dying ranks the pool sees first: no
    rank, one rank or every rank is poisoned, and a kill elsewhere waits
    for step 2, where the step-1 allgather holds its rank back."""
    p = draw(st.sampled_from([2, 3]))
    poisoned = draw(st.sampled_from([(), (p - 1,), (0,), tuple(range(p))]))
    entries = [f"poison={rank}" for rank in poisoned]
    if draw(st.booleans()):
        rank = draw(st.integers(0, p - 1))
        first = 1 if poisoned and rank not in poisoned else 0
        step = draw(st.sampled_from(STEP_LABELS[first:]))
        entries.append(f"kill={rank}@{step}" + draw(st.sampled_from([":1", ":0", ""])))
    if draw(st.booleans()):
        entries.append(f"slow={draw(st.integers(0, p - 1))}x{draw(st.sampled_from([1.5, 3.0]))}")
    return p, ",".join(entries)


def _two_jobs(backend, plan, blocks):
    """Jobs 0 and 1 of ``blocks`` on ``backend`` under ``plan``: the
    results, or the error that ended the first job to fail."""
    with closing(backend), inject_faults(plan):
        try:
            return [backend.sort_blocks(blocks).to_sort_result() for _ in range(2)]
        except (DeadlockError, JobAbortedError) as exc:
            return exc


@settings(max_examples=12)
@given(case=_fault_specs(), seed=st.integers(0, 2**32 - 1))
def test_generated_fault_specs_agree_across_substrates(assert_balanced, case, seed):
    """One generated fault spec on both backend objects, two jobs each:
    either both end in their substrate's error, or each job comes back
    with the same bytes, provenance, survivors and per-rank accounting,
    balanced over the ranks that sorted it."""
    p, spec = case
    data = _keys("int64", 300 * p, np.random.default_rng(seed))
    blocks, _ = partition_input(data, p)
    sim, real = (
        _two_jobs(backend, FaultPlan.from_spec(spec, seed=seed), blocks) for backend in _backends()
    )
    if isinstance(sim, Exception) or isinstance(real, Exception):
        assert isinstance(sim, DeadlockError) and isinstance(real, JobAbortedError), (spec, sim, real)
        return
    for a, b in zip(sim, real):
        assert np.array_equal(a.to_array(), np.sort(data)), spec
        _assert_bytes_equal(zip(a.per_processor, a.provenance), b)
        assert a.survivors == b.survivors, spec
        width = p if a.survivors is None else len(a.survivors)
        for result in (a, b):
            assert_balanced(result.per_processor, list(partition_input(data, width)[0]))
        for field in ("crashed", "retries"):
            assert [getattr(m, field) for m in a.metrics.processes] == [
                getattr(m, field) for m in b.metrics.processes
            ], (spec, field)


@st.composite
def _silent_rank_specs(draw):
    """``(p, spec, hang, kill)``: the pool's own keys over two jobs —
    ``mute=R`` for any ranks, maybe one ``hang=R@OP[:JOB]`` and, in a job
    no hang stalls, maybe one kill of a muted rank.  ``hang`` and ``kill``
    are ``(rank, where, job)`` (job ``None``: every job), or ``None``."""
    p = draw(st.sampled_from([2, 3]))
    muted = sorted(draw(st.sets(st.integers(0, p - 1))))
    entries = [f"mute={rank}" for rank in muted]
    hang = kill = None
    if draw(st.booleans()):
        hang = (draw(st.integers(0, p - 1)), draw(st.sampled_from(COLLECTIVE_OPS)), draw(st.sampled_from([None, 0, 1])))
        entries.append(f"hang={hang[0]}@{hang[1]}" + ("" if hang[2] is None else f":{hang[2]}"))
    free = [job for job in (0, 1) if hang is None or hang[2] not in (None, job)]
    if muted and free and draw(st.booleans()):
        kill = (draw(st.sampled_from(muted)), draw(st.sampled_from(STEP_LABELS[1:])), draw(st.sampled_from(free)))
        entries.append(f"kill={kill[0]}@{kill[1]}:{kill[2]}")
    return p, ",".join(entries), hang, kill


@settings(max_examples=10, deadline=None)
@given(case=_silent_rank_specs(), seed=st.integers(0, 2**32 - 1))
def test_generated_hang_and_mute_specs_recover_on_the_pool(case, seed):
    """Hangs and mutes are the pool's alone (simnet rejects them): over
    two jobs, every job returns the oracle's bytes; a hang is a timeout the
    phase deadline charges to the hung rank through ``missing_ranks``; and
    a muted rank's crash reports no heartbeat, though it died past step 1."""
    p, spec, hang, kill = case
    data = _keys("int64", 300 * p, np.random.default_rng(seed))
    blocks = list(partition_input(data, p)[0])
    reference = local_sample_sort(blocks)
    plan = FaultPlan.from_spec(spec, seed=seed)
    with inject_faults(plan), ProcessBackend(retry=FAST_RETRY, phase_timeout_seconds=0.5) as backend:
        runs = [backend.sort_blocks(blocks) for _ in range(2)]
    for job, run in enumerate(runs):
        result = run.to_sort_result()
        _assert_bytes_equal(zip(result.per_processor, result.provenance), reference)
        failures, charged = [], [(0, 0)] * p
        if hang is not None and hang[2] in (None, job):
            failures.append(("ControlPlaneTimeout", hang[0], None))
            charged[hang[0]] = (1, 0)
        if kill is not None and kill[2] == job:
            failures.append(("WorkerCrashedError", kill[0], None))
            charged[kill[0]] = (0, 1)
        history = [(r["error"], r["rank"], r["last_step"]) for r in run.attempt_history]
        assert history == failures, (spec, job)
        assert [(m.timeouts, m.retries) for m in result.metrics.processes] == charged, (spec, job)

"""Float keys sort where they were staged: placement follows the key frame.

Contract: a float job's key frame refills
(:attr:`~repro.core.packsort.KeyFrame.refills`) exactly when some block
holds a key its code cannot give back — −0.0, or a NaN other than the
canonical quiet one (x86's ``0/0`` is ``-nan``, so it counts).  Either
way simnet at p ∈ {1, 2, 3, 16} and the pool at p ≤ 4 return the
``local_sample_sort`` oracle's bytes.  On the pool, each rank's staged
slice of the job's input, read after the job, shows where its step-1
words went: an exact job sorted them over the slice (strictly increasing
words of the frame's dtype), while a refilling job and a frame miss left
the slice byte-identical to the caller's block.  Hypothesis runs
derandomized (``tests/conftest.py``) with small caps.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import program
from repro.core.api import DistributedSorter
from repro.core.local_backend import local_sample_sort
from repro.core.packsort import block_stats, derive_key_frame
from repro.parallel import ProcessBackend
from repro.parallel import backend as backend_module

SETTINGS = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

FLOAT_DTYPES = [np.float64, np.float32]

#: Where the job's one inexact key goes, if anywhere.
CASES = ["exact", "lone -0.0", "0/0", "payload NaN", "last rank only"]

#: The bulk of the keys: exact values only.  Full-mantissa float64 misses
#: every frame (keys + perm); float32 fits whatever its values.
FLAVOURS = ["integral", "float32-valued", "full-mantissa", "exact specials"]

#: float dtype → (same-width uint, sign bit, +inf bits, quiet bit).
FLOAT_BITS = {
    np.float32: (np.uint32, 1 << 31, 0x7F80_0000, 1 << 22),
    np.float64: (np.uint64, 1 << 63, 0x7FF0_0000_0000_0000, 1 << 51),
}


@pytest.fixture(scope="module")
def pool():
    with ProcessBackend() as backend:
        yield backend


@pytest.fixture
def staged(monkeypatch):
    """Every pooled job's storage as the driver lays it out, in order."""
    jobs = []
    lay_out = backend_module.lay_out

    def lay_out_and_keep(*args):
        jobs.append(lay_out(*args))
        return jobs[-1]

    monkeypatch.setattr(backend_module, "lay_out", lay_out_and_keep)
    return jobs


@pytest.fixture
def frames(monkeypatch):
    """Every key frame simnet's ranks derive (the pool's workers were
    forked before this patch, so they derive theirs unobserved)."""
    seen = []
    derive = program.derive_key_frame

    def recording(*args):
        seen.append(derive(*args))
        return seen[-1]

    monkeypatch.setattr(program, "derive_key_frame", recording)
    return seen


def _inexact(block):
    """Keys their code cannot give back, counted in NumPy."""
    uint_t, sign = FLOAT_BITS[block.dtype.type][:2]
    canonical = int(np.array(np.nan, block.dtype).view(uint_t))
    bits = block.view(uint_t)
    return int(np.count_nonzero((bits == sign) | (np.isnan(block) & (bits != canonical))))


def _bulk(flavour, dtype, n, rng):
    if flavour == "integral":
        return rng.integers(-300, 300, n).astype(dtype)
    if flavour == "positive":
        return rng.integers(1, 3000, n).astype(dtype)
    if flavour == "float32-valued":
        return rng.normal(size=n).astype(np.float32).astype(dtype)
    if flavour == "full-mantissa":
        return rng.random(n).astype(dtype)
    # +0.0, the canonical NaN and ±inf: lossy codes that decode exactly.
    keys = rng.integers(-9, 9, n).astype(dtype)
    keys[rng.integers(0, n, n // 3)] = np.array([0.0, np.nan, np.inf, -np.inf], dtype)[
        rng.integers(0, 4, n // 3)
    ]
    return keys


def _inexact_key(kind, dtype, rng):
    """One key its code cannot give back, as a one-element array."""
    uint_t, sign, inf, quiet = FLOAT_BITS[dtype]
    if kind == "lone -0.0":
        return np.array([-0.0], dtype)
    if kind == "0/0":
        zero = np.zeros(1, dtype)
        with np.errstate(invalid="ignore"):
            return zero / zero
    payload = int(rng.integers(1, quiet))
    bits = inf | quiet | payload | (sign if rng.integers(0, 2) else 0)
    return np.array([bits], dtype=uint_t).view(dtype)


@st.composite
def float_jobs(draw, p, case):
    """``p`` float blocks, exact or with one inexact key placed by case."""
    dtype = draw(st.sampled_from(FLOAT_DTYPES))
    flavour = "positive" if case == "lone -0.0" else draw(st.sampled_from(FLAVOURS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [_bulk(flavour, dtype, draw(st.integers(0, 40)), rng) for _ in range(p)]
    if case != "exact":
        kind = draw(st.sampled_from(CASES[1:4])) if case == "last rank only" else case
        rank = p - 1 if case == "last rank only" else draw(st.integers(0, p - 1))
        block = blocks[rank]
        at = draw(st.integers(0, len(block)))
        blocks[rank] = np.concatenate([block[:at], _inexact_key(kind, dtype, rng), block[at:]])
    return blocks


def _assert_like_the_oracle(per_processor, provenance, blocks):
    reference = local_sample_sort(blocks)
    for keys, prov, ref_keys, ref_prov in zip(
        per_processor, provenance, reference.per_processor, reference.provenance
    ):
        assert keys.dtype == ref_keys.dtype and keys.tobytes() == ref_keys.tobytes()
        assert prov.origin_proc.tobytes() == ref_prov.origin_proc.tobytes()
        assert prov.origin_index.tobytes() == ref_prov.origin_index.tobytes()


def _expected_frame(case, blocks):
    """The job's frame from the arithmetic, checked against the blocks:
    it refills exactly when some block holds an inexact key."""
    frame = derive_key_frame([block_stats(b) for b in blocks], blocks[0].dtype)
    inexact = any(_inexact(block) for block in blocks)
    if case in ("exact", "lone -0.0", "payload NaN"):
        assert inexact == (case != "exact")
    if frame is not None:
        assert frame.refills == inexact
    return frame


def _assert_simnet(case, blocks, frames):
    frames.clear()
    result = DistributedSorter(num_processors=len(blocks)).sort_partitioned(blocks)
    _assert_like_the_oracle(result.per_processor, result.provenance, blocks)
    frame = _expected_frame(case, blocks)
    assert frames == [frame] * len(blocks)  # every rank derives the one frame


def _assert_pool_placement(pool, staged, case, blocks):
    """The pool sorts like the oracle, and each rank's staged slice shows
    where its words went: over it when exact, nowhere near it otherwise."""
    run = pool.sort_blocks(blocks)
    _assert_like_the_oracle(
        [o.keys for o in run.outputs], [o.provenance for o in run.outputs], blocks
    )
    frame = _expected_frame(case, blocks)
    staged_input = pool.arena.view(staged[-1].input)
    bounds = np.cumsum([0, *map(len, blocks)]).tolist()
    if frame is None or frame.refills or frame.word_dtype.itemsize > staged_input.itemsize:
        # A frame miss, a refill source, or int64 words of float32 keys
        # (the workers' scratch): the staged input was only read.
        assert staged_input.tobytes() == np.concatenate(blocks).tobytes()
    else:
        words = staged_input.view(frame.word_dtype)
        ratio = staged_input.itemsize // frame.word_dtype.itemsize
        for lo, hi in zip(bounds, bounds[1:]):
            mine = words[ratio * lo : ratio * lo + hi - lo]
            assert (np.diff(mine) > 0).all(), (frame, lo, hi, mine, blocks)  # sorted, unique words
    del run


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("p", [1, 2, 3, 16])
@SETTINGS
@given(data=st.data())
def test_simnet_refills_exactly_when_a_block_is_inexact(frames, p, case, data):
    _assert_simnet(case, data.draw(float_jobs(p, case)), frames)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("p", [1, 2, 3, 4])
@SETTINGS
@given(data=st.data())
def test_pool_sorts_exact_float_words_over_the_staged_block(pool, staged, p, case, data):
    _assert_pool_placement(pool, staged, case, data.draw(float_jobs(p, case)))


def _seeded_job(case, dtype):
    """Two ranks of ``floor(Exp(2000))`` keys, each across chunk boundaries
    (+0.0 among them), with the case's inexact key on the last rank."""
    rng = np.random.default_rng([7, np.dtype(dtype).num])
    blocks = [np.floor(rng.exponential(2000.0, 40_000)).astype(dtype) for _ in range(2)]
    if case != "exact":
        blocks[-1][12_345:12_346] = _inexact_key(case, dtype, rng)
    return blocks


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
@pytest.mark.parametrize("case", ["exact", "lone -0.0", "0/0", "payload NaN"])
def test_rank_sized_float_blocks_place_their_words_on_both_substrates(
    pool, staged, frames, dtype, case
):
    blocks = _seeded_job(case, dtype)
    placed = "last rank only" if case != "exact" else case
    _assert_simnet(placed, blocks, frames)
    _assert_pool_placement(pool, staged, placed, blocks)

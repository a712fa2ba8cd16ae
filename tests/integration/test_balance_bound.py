"""Load balance as a tested guarantee, on every substrate.

Regular sampling bounds the largest partition
(:func:`repro.core.verify.max_partition_bound`, the ``assert_balanced``
fixture), and the investigator must keep that bound on inputs built
against it (:data:`repro.workloads.duplicates.ADVERSARIAL`) and on the
paper's four distributions.  Each input runs through the oracle and
simnet at p ∈ {2, 3, 16}, and through one warm pool at p ≤ 4, as int32
words, int64 words and keys + perm (full-mantissa float64); the three
substrates must also agree byte for byte, so one bound covers them all.
"""

import numpy as np
import pytest

from repro.core.api import DistributedSorter, partition_input
from repro.core.local_backend import local_sample_sort
from repro.core.packsort import block_stats, derive_key_frame
from repro.parallel import ProcessBackend
from repro.workloads.distributions import generate
from repro.workloads.duplicates import ADVERSARIAL

RANKS = [2, 3, 16]

#: How each input's integer keys (below 2^13) are stored, and the step-1
#: words that gets: small codes pack into int32 words; codes scaled by 2^30
#: need int64 ones; full-mantissa floats fit no frame (keys + perm).
KINDS = {
    "int32 words": (lambda keys: keys, np.int32),
    "int64 words": (lambda keys: keys << 30, np.int64),
    "keys + perm": (lambda keys: (keys + 0.5) / 7.0, None),
}


@pytest.fixture(scope="module")
def pool():
    with ProcessBackend() as backend:
        yield backend


def _word_dtype(blocks):
    stats = [block_stats(b) for b in blocks]
    frame = derive_key_frame(stats, blocks[0].dtype)
    return None if frame is None else frame.word_dtype


def _assert_balanced_everywhere(blocks, assert_balanced, pool=None):
    """Oracle, simnet and (for p ≤ 4) the pool: the same bytes, and no
    partition above the bound."""
    p = len(blocks)
    reference = local_sample_sort(blocks)
    partitions = {
        "oracle": reference.per_processor,
        "simnet": DistributedSorter(num_processors=p).sort_partitioned(blocks).per_processor,
    }
    if pool is not None and p <= 4:
        partitions["pool"] = [out.keys for out in pool.sort_blocks(blocks).outputs]
    for substrate, parts in partitions.items():
        for got, want in zip(parts, reference.per_processor):
            assert got.tobytes() == want.tobytes(), substrate
        assert_balanced(parts, blocks)


def _n(p):
    """Blocks well above a rank's sample budget, so sampling decides."""
    return 96_000 if p == 16 else 60_003


@pytest.mark.parametrize("p", RANKS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ADVERSARIAL)
def test_adversaries_stay_within_the_bound(pool, assert_balanced, name, kind, p):
    store, words = KINDS[kind]
    keys = store(ADVERSARIAL[name](_n(p), p, 7 * p))
    blocks = list(partition_input(keys, p)[0])
    assert _word_dtype(blocks) == words
    _assert_balanced_everywhere(blocks, assert_balanced, pool)


@pytest.mark.parametrize("p", RANKS)
@pytest.mark.parametrize("kind", ["uniform", "normal", "right-skewed", "exponential"])
def test_paper_distributions_stay_within_the_bound(pool, assert_balanced, kind, p):
    blocks = list(partition_input(generate(kind, _n(p), seed=p), p)[0])
    _assert_balanced_everywhere(blocks, assert_balanced, pool)

"""Suite-wide test configuration.

Every Hypothesis test runs derandomized: the examples are a fixed function
of the test, so a run that passes passes again and a counterexample found
once is found every time, instead of surfacing only when the random draw
happens to reach it.  No example database is read or written, and no
per-example deadline applies (simulated runs vary in wall time with the
machine, not with the input).  The ``assert_balanced`` fixture checks
the balance every sort owes its input; ``oracle_order`` gives the exact
output order a sort owes it.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile(
    "derandomized", derandomize=True, database=None, deadline=None
)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def assert_balanced():
    """``assert_balanced(partitions, blocks, sample_factor=1.0)``: no output
    partition holds more keys than the sort may leave on one processor for
    these input blocks — regular sampling's guarantee
    (:func:`repro.core.verify.max_partition_bound`), with each rank's
    sample count as step 2 draws it."""
    from repro.core.sampling import sample_count
    from repro.core.verify import max_partition_bound
    from repro.pgxd.config import PgxdConfig

    def check(partitions, blocks, sample_factor=1.0):
        p = len(blocks)
        lengths = [len(block) for block in blocks]
        count = sample_count(PgxdConfig(), p, np.dtype(blocks[0].dtype).itemsize, sample_factor)
        bound = max_partition_bound(lengths, [min(count, n) for n in lengths], p)
        sizes = [len(keys) for keys in partitions]
        assert max(sizes) <= bound, (sizes, bound)

    return check


@pytest.fixture(scope="session")
def oracle_order():
    """``oracle_order(keys, p)``: the input index of every output key, in
    output order, as the in-process oracle
    (:func:`repro.core.local_backend.local_sample_sort`) sorts ``keys``
    block-partitioned over ``p`` processors with the default options.  The
    order is deterministic but not the stable sort's: a tie the
    investigator cuts keeps source-major order within each destination.
    A payload gathered through provenance must follow exactly this order."""
    from repro.core import local_sample_sort, partition_input

    def order(keys, p):
        blocks, offsets = partition_input(keys, p)
        out = local_sample_sort(list(blocks))
        return np.concatenate([prov.global_indices(offsets) for prov in out.provenance])

    return order

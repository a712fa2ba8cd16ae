"""Tests for step 1 (parallel quicksort) and provenance plumbing."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import local_sort_seconds, split_into_chunks
from repro.core.provenance import Provenance
from repro.core.steps import sort_block
from repro.pgxd import PgxdConfig
from repro.pgxd.runtime import Machine
from repro.simnet import CostModel
from repro.simnet.engine import ProcessHandle
from repro.simnet.metrics import ProcessMetrics


def parallel_quicksort(machine, keys, balanced=True):
    """Step 1 on the keys + perm path as the sorter composes it: the data
    kernel, and the charge computed from the key count alone."""
    sorted_keys, perm, _path = sort_block(np.asarray(keys))
    seconds = local_sort_seconds(machine, len(keys), balanced=balanced)
    return SimpleNamespace(keys=sorted_keys, perm=perm, seconds=seconds)


def make_machine(threads=4, rank=0, size=2):
    proc = ProcessHandle(rank, size, ProcessMetrics(rank))
    return Machine(proc, PgxdConfig(threads_per_machine=threads), CostModel(), None)


class TestSplitIntoChunks:
    def test_even(self):
        assert split_into_chunks(8, 4) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 8)]

    def test_uneven_sizes_differ_by_one(self):
        slices = split_into_chunks(10, 4)
        sizes = [sl.stop - sl.start for sl in slices]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_more_parts_than_items(self):
        slices = split_into_chunks(2, 5)
        assert sum(sl.stop - sl.start for sl in slices) == 2

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            split_into_chunks(10, 0)


class TestParallelQuicksort:
    def test_sorts_correctly(self):
        m = make_machine()
        data = np.random.default_rng(0).integers(0, 1000, 5000)
        res = parallel_quicksort(m, data)
        np.testing.assert_array_equal(res.keys, np.sort(data))

    def test_perm_maps_to_original(self):
        m = make_machine()
        data = np.random.default_rng(1).permutation(100)
        res = parallel_quicksort(m, data)
        np.testing.assert_array_equal(data[res.perm], res.keys)

    def test_perm_is_permutation(self):
        m = make_machine(threads=8)
        data = np.random.default_rng(2).integers(0, 10, 1000)  # many ties
        res = parallel_quicksort(m, data)
        np.testing.assert_array_equal(np.sort(res.perm), np.arange(1000))

    def test_empty_input(self):
        m = make_machine()
        res = parallel_quicksort(m, np.array([]))
        assert len(res.keys) == 0
        assert res.seconds == 0.0

    def test_cost_positive_and_scales(self):
        m = make_machine()
        small = parallel_quicksort(m, np.random.default_rng(3).random(1000))
        large = parallel_quicksort(m, np.random.default_rng(3).random(100_000))
        assert 0 < small.seconds < large.seconds

    def test_more_threads_cheaper(self):
        data = np.random.default_rng(4).random(1 << 16)
        t1 = parallel_quicksort(make_machine(threads=1), data).seconds
        t8 = parallel_quicksort(make_machine(threads=8), data).seconds
        assert t8 < t1

    def test_balanced_flag_changes_cost_not_result(self):
        data = np.random.default_rng(5).integers(0, 100, 10_000)
        m = make_machine(threads=16)
        bal = parallel_quicksort(m, data, balanced=True)
        seq = parallel_quicksort(m, data, balanced=False)
        np.testing.assert_array_equal(bal.keys, seq.keys)
        assert bal.seconds < seq.seconds

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_sort_property(self, xs):
        m = make_machine(threads=3)
        data = np.array(xs, dtype=np.float64)
        res = parallel_quicksort(m, data)
        np.testing.assert_array_equal(res.keys, np.sort(data))
        np.testing.assert_array_equal(data[res.perm], res.keys)


class TestProvenance:
    def test_global_indices(self):
        prov = Provenance(np.array([5, 100, 102]), np.array([0, 100, 103]))
        np.testing.assert_array_equal(prov.global_indices(np.array([0, 100])), [5, 100, 102])
        np.testing.assert_array_equal(prov.origin_proc, [0, 1, 1])
        np.testing.assert_array_equal(prov.origin_index, [5, 0, 2])

    def test_global_indices_range_check(self):
        prov = Provenance(np.array([3]), np.array([0, 10, 20]))
        with pytest.raises(ValueError):
            prov.global_indices(np.array([0, 11]))  # not the blocks it indexes
        with pytest.raises(ValueError):
            prov.global_indices(np.array([0]))

    def test_empty(self):
        prov = Provenance.empty()
        assert len(prov) == 0
        assert prov.nbytes() == 0
        assert prov.origin_proc.dtype == np.int16 and prov.origin_index.dtype == np.int32

    def test_nbytes(self):
        prov = Provenance(np.zeros(10, dtype=np.int32), np.array([0, 10]))
        assert prov.nbytes() == 40  # one origin position per key, nothing else

    @pytest.mark.parametrize(
        "sizes",
        [[0], [7], [5, 0, 3], [0, 0, 4, 0], [3, 0, 0], [4, 5, 6, 7], [0, 0, 0]],
        ids=["n=0", "p=1", "empty-middle", "empties-around", "empty-tail", "p=4", "all-empty"],
    )
    def test_derived_origins_are_the_oracle_columns(self, sizes):
        """``origin_proc``/``origin_index`` derived from the positions match
        what the oracle would hold as two columns, dtypes included."""
        rng = np.random.default_rng(len(sizes))
        starts = np.cumsum([0, *sizes])
        origin = rng.permutation(int(starts[-1])).astype(np.int32)
        prov = Provenance(origin, starts)
        proc = np.repeat(np.arange(len(sizes), dtype=np.int16), sizes)
        index = np.concatenate([np.arange(size, dtype=np.int32) for size in sizes])
        assert prov.origin_proc.dtype == np.int16 and prov.origin_index.dtype == np.int32
        assert prov.origin_proc.tobytes() == proc[origin].tobytes()
        assert prov.origin_index.tobytes() == index[origin].tobytes()
        assert prov.global_indices(starts[:-1]) is origin

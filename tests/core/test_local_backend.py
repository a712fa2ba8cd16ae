"""Reference backend tests, including bit-exact simulation cross-validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DistributedSorter
from repro.core import SortOptions, partition_input
from repro.core.local_backend import local_sample_sort, sample_sort_partition
from repro.workloads import generate


class TestLocalBackend:
    def test_sorts_correctly(self):
        data = np.random.default_rng(0).integers(0, 10_000, 30_000)
        shards = sample_sort_partition(data, 6)
        np.testing.assert_array_equal(np.concatenate(shards), np.sort(data))

    def test_shards_globally_ordered(self):
        data = np.random.default_rng(1).random(20_000)
        shards = sample_sort_partition(data, 5)
        for a, b in zip(shards, shards[1:]):
            if len(a) and len(b):
                assert a[-1] <= b[0]

    def test_single_partition(self):
        data = np.array([3, 1, 2])
        shards = sample_sort_partition(data, 1)
        np.testing.assert_array_equal(shards[0], [1, 2, 3])

    def test_empty(self):
        shards = sample_sort_partition(np.array([]), 4)
        assert sum(len(s) for s in shards) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_sort_partition(np.arange(5), 0)
        with pytest.raises(ValueError):
            local_sample_sort([])

    def test_provenance_roundtrip(self):
        data = np.random.default_rng(2).integers(0, 100, 5000)
        blocks, _ = partition_input(data, 4)
        out = local_sample_sort(list(blocks))
        for dst, (keys, prov) in enumerate(zip(out.per_processor, out.provenance)):
            for i in (0, len(keys) // 2, len(keys) - 1):
                src, idx = int(prov.origin_proc[i]), int(prov.origin_index[i])
                assert blocks[src][idx] == keys[i]


class TestCrossValidation:
    """The simulated cluster must reproduce the reference backend exactly,
    and both must keep regular sampling's balance bound."""

    @pytest.mark.parametrize("kind", ["uniform", "right-skewed", "exponential"])
    @pytest.mark.parametrize("p", [3, 8])
    def test_bit_identical_partitions(self, assert_balanced, kind, p):
        data = generate(kind, 20_000, seed=13)
        blocks, _ = partition_input(data, p)
        reference = local_sample_sort(list(blocks))
        simulated = DistributedSorter(num_processors=p).sort(data)
        for ref, sim in zip(reference.per_processor, simulated.per_processor):
            np.testing.assert_array_equal(ref, sim)
        assert_balanced(reference.per_processor, list(blocks))

    def test_identical_under_ablations(self, assert_balanced):
        data = generate("right-skewed", 15_000, seed=14)
        for opts in (
            SortOptions(investigator=False),
            SortOptions(balanced_merge=False),
            SortOptions(sample_factor=0.04),
        ):
            blocks, _ = partition_input(data, 6)
            reference = local_sample_sort(list(blocks), opts)
            simulated = DistributedSorter(
                num_processors=6,
                investigator=opts.investigator,
                balanced_merge=opts.balanced_merge,
                sample_factor=opts.sample_factor,
            ).sort(data)
            for ref, sim in zip(reference.per_processor, simulated.per_processor):
                np.testing.assert_array_equal(ref, sim)
            if opts.investigator:  # Figure 3b's naive cuts promise no balance
                assert_balanced(reference.per_processor, list(blocks), opts.sample_factor)

    def test_provenance_identical(self, assert_balanced):
        data = generate("normal", 10_000, seed=15)
        blocks, _ = partition_input(data, 5)
        reference = local_sample_sort(list(blocks))
        simulated = DistributedSorter(num_processors=5).sort(data)
        for ref, sim in zip(reference.provenance, simulated.provenance):
            np.testing.assert_array_equal(ref.origin_proc, sim.origin_proc)
            np.testing.assert_array_equal(ref.origin_index, sim.origin_index)
        assert_balanced(reference.per_processor, list(blocks))

    @given(
        st.lists(st.integers(0, 50), min_size=0, max_size=600),
        st.integers(2, 7),
    )
    @settings(max_examples=30, deadline=None)
    def test_cross_validation_property(self, assert_balanced, xs, p):
        data = np.array(xs, dtype=np.int64)
        blocks, _ = partition_input(data, p)
        reference = local_sample_sort(list(blocks))
        simulated = DistributedSorter(num_processors=p).sort(data)
        for ref, sim in zip(reference.per_processor, simulated.per_processor):
            np.testing.assert_array_equal(ref, sim)
        assert_balanced(reference.per_processor, list(blocks))

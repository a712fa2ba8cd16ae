"""Tests for the bitonic and radix distributed baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    assign_buckets,
    bitonic_sort,
    radix_sort,
)
from repro import distributed_sort
from repro.workloads import right_skewed, uniform


class TestBitonic:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_sorts_correctly(self, p):
        rng = np.random.default_rng(p)
        data = rng.integers(0, 10_000, 4000)
        res = bitonic_sort(data, p)
        assert res.is_globally_sorted()
        np.testing.assert_array_equal(res.to_array(), np.sort(data))

    def test_round_count_is_d_times_d_plus_1_over_2(self):
        data = np.random.default_rng(0).integers(0, 100, 1024)
        res = bitonic_sort(data, 8)  # d=3 -> 6 rounds
        assert res.rounds == 6
        res16 = bitonic_sort(data, 16)  # d=4 -> 10 rounds
        assert res16.rounds == 10

    def test_uneven_input_padded_and_trimmed(self):
        data = np.random.default_rng(1).integers(0, 100, 1003)
        res = bitonic_sort(data, 4)
        np.testing.assert_array_equal(res.to_array(), np.sort(data))

    def test_float_keys(self):
        data = np.random.default_rng(2).random(2048)
        res = bitonic_sort(data, 4)
        np.testing.assert_array_equal(res.to_array(), np.sort(data))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            bitonic_sort(np.arange(10), 6)

    def test_more_traffic_than_sample_sort(self):
        """The paper's criticism: bitonic exchanges the entire block every
        round, sample sort moves each key once."""
        rng = np.random.default_rng(3)
        data = rng.integers(0, 1 << 30, 32_768)
        bit = bitonic_sort(data, 8)
        pgx = distributed_sort(data, num_processors=8)
        assert bit.metrics.remote_bytes > 2 * pgx.metrics.remote_bytes

    def test_duplicates(self):
        data = np.random.default_rng(4).integers(0, 3, 4096)
        res = bitonic_sort(data, 8)
        np.testing.assert_array_equal(res.to_array(), np.sort(data))


class TestAssignBuckets:
    def test_uniform_histogram_even_split(self):
        owners = assign_buckets(np.full(8, 100), 4)
        np.testing.assert_array_equal(owners, [0, 0, 1, 1, 2, 2, 3, 3])

    def test_hot_bucket_cannot_be_split(self):
        hist = np.array([1000, 1, 1, 1])
        owners = assign_buckets(hist, 4)
        assert owners[0] == 0  # the hot bucket sits wholly on processor 0

    def test_empty_histogram(self):
        owners = assign_buckets(np.zeros(4, dtype=np.int64), 3)
        np.testing.assert_array_equal(owners, 0)

    def test_owners_monotone(self):
        rng = np.random.default_rng(0)
        hist = rng.integers(0, 100, 64)
        owners = assign_buckets(hist, 7)
        assert np.all(np.diff(owners) >= 0)
        assert owners.max() <= 6


class TestRadix:
    @pytest.mark.parametrize("p", [1, 2, 5, 8])
    def test_sorts_correctly(self, p):
        rng = np.random.default_rng(p)
        data = rng.integers(0, 1 << 20, 5000)
        res = radix_sort(data, p)
        assert res.is_globally_sorted()
        np.testing.assert_array_equal(res.to_array(), np.sort(data))

    def test_rejects_floats_and_negatives(self):
        with pytest.raises(TypeError):
            radix_sort(np.random.default_rng(0).random(10), 2)
        with pytest.raises(ValueError):
            radix_sort(np.array([-1, 2]), 2)

    def test_uniform_data_balances(self):
        data = uniform(50_000, seed=0, value_range=1 << 20)
        res = radix_sort(data, 8)
        assert res.imbalance() < 1.1

    def test_duplicates_break_balance_unlike_investigator(self):
        """The paper's point: bit-pattern bucketing cannot split a tied
        value, the investigator can."""
        data = right_skewed(50_000, seed=0)
        rad = radix_sort(data, 10)
        pgx = distributed_sort(data, num_processors=10)
        assert pgx.imbalance() < rad.imbalance()

    def test_empty(self):
        res = radix_sort(np.array([], dtype=np.int64), 4)
        assert res.to_array().size == 0

    @given(st.lists(st.integers(0, 1 << 16), max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_sort_property(self, xs):
        data = np.array(xs, dtype=np.int64)
        res = radix_sort(data, 4)
        np.testing.assert_array_equal(res.to_array(), np.sort(data))


class TestNaiveAblation:
    """The paper's algorithm with its two mechanisms switched off."""

    NAIVE = {"investigator": False, "balanced_merge": False}

    def test_naive_worse_on_duplicates(self):
        data = right_skewed(60_000, seed=1)
        naive = distributed_sort(data, num_processors=10, **self.NAIVE)
        full = distributed_sort(data, num_processors=10)
        assert naive.is_globally_sorted()
        assert full.imbalance() < naive.imbalance()

    def test_single_switch_investigator_only(self):
        data = right_skewed(30_000, seed=2)
        inv_only = distributed_sort(
            data, num_processors=8, investigator=True, balanced_merge=False
        )
        assert inv_only.is_globally_sorted()
        # Investigator alone restores balance even without balanced merge.
        naive = distributed_sort(data, num_processors=8, **self.NAIVE)
        assert inv_only.imbalance() < naive.imbalance()

    def test_balanced_merge_only_still_sorts(self):
        data = right_skewed(30_000, seed=3)
        res = distributed_sort(
            data, num_processors=8, investigator=False, balanced_merge=True
        )
        np.testing.assert_array_equal(res.to_array(), np.sort(data))

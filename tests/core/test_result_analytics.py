"""Tests for the analytics APIs on SortResult: selection, quantiles,
range counting, and structured-record sorting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DistributedSorter, distributed_sort
from repro.core.api import partition_input


@pytest.fixture(scope="module")
def sorted_uniform():
    data = np.random.default_rng(20).integers(0, 10_000, 40_000)
    return data, distributed_sort(data, num_processors=7)


class TestSelect:
    def test_select_matches_flat_indexing(self, sorted_uniform):
        data, result = sorted_uniform
        flat = np.sort(data)
        for rank in (0, 1, 999, 20_000, len(data) - 1):
            assert result.select(rank) == flat[rank]

    def test_select_bounds(self, sorted_uniform):
        _, result = sorted_uniform
        with pytest.raises(IndexError):
            result.select(-1)
        with pytest.raises(IndexError):
            result.select(result.total_keys)


class TestQuantiles:
    def test_quantiles_match_numpy_nearest_rank(self, sorted_uniform):
        data, result = sorted_uniform
        flat = np.sort(data)
        qs = np.array([0.0, 0.25, 0.5, 0.75, 0.99, 1.0])
        got = result.quantiles(qs)
        ranks = np.minimum((qs * len(data)).astype(int), len(data) - 1)
        np.testing.assert_array_equal(got, flat[ranks])

    def test_scalar_quantile(self, sorted_uniform):
        data, result = sorted_uniform
        median = result.quantiles(0.5)
        assert median.shape == (1,)
        assert abs(median[0] - np.median(data)) <= 10  # nearest-rank vs interp

    def test_invalid_fractions(self, sorted_uniform):
        _, result = sorted_uniform
        with pytest.raises(ValueError):
            result.quantiles([1.5])
        with pytest.raises(ValueError):
            result.quantiles([-0.1])

    def test_empty_data(self):
        result = distributed_sort(np.array([]), num_processors=3)
        with pytest.raises(ValueError):
            result.quantiles(0.5)


class TestRangeCountAndCount:
    def test_range_count_matches_mask(self, sorted_uniform):
        data, result = sorted_uniform
        for lo, hi in ((0, 100), (500, 501), (9000, 20_000), (-5, 0)):
            assert result.range_count(lo, hi) == int(np.sum((data >= lo) & (data < hi)))

    def test_count_matches_bincount(self, sorted_uniform):
        data, result = sorted_uniform
        for value in (0, 17, 5000, 9999, 12_345):
            assert result.count(value) == int(np.sum(data == value))

    def test_count_spanning_processors(self):
        # One value dominates: the investigator spreads it across procs, so
        # counting must cross processor boundaries.
        data = np.concatenate([np.full(9000, 5), np.arange(1000)])
        result = distributed_sort(data, num_processors=6)
        assert result.count(5) == 9000 + 1  # 9000 fives + value 5 in arange

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=500), st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_count_property(self, xs, value):
        data = np.array(xs, dtype=np.int64)
        result = distributed_sort(data, num_processors=4)
        assert result.count(value) == xs.count(value)


class TestSortRecords:
    def make_records(self, n=5000, seed=21):
        rng = np.random.default_rng(seed)
        records = np.empty(
            n, dtype=[("key", np.int64), ("weight", np.float64), ("tag", "U4")]
        )
        records["key"] = rng.integers(0, 500, n)
        records["weight"] = rng.random(n)
        records["tag"] = [f"t{i % 97}" for i in range(n)]
        return records

    def test_records_sorted_by_field(self, oracle_order):
        records = self.make_records()
        sorter = DistributedSorter(num_processors=5)
        result, ordered = sorter.sort_records(records, order="key")
        # Ties the investigator cuts are not in input order, but the
        # output order is fixed: exactly the oracle's.
        expected = oracle_order(records["key"], 5)
        np.testing.assert_array_equal(ordered, records[expected])
        np.testing.assert_array_equal(ordered["key"], np.sort(records["key"]))
        assert result.is_globally_sorted()

    def test_records_sort_by_float_field(self):
        records = self.make_records()
        _, ordered = DistributedSorter(num_processors=4).sort_records(
            records, order="weight"
        )
        assert np.all(np.diff(ordered["weight"]) >= 0)

    def test_unknown_field_rejected(self):
        records = self.make_records(100)
        with pytest.raises(KeyError):
            DistributedSorter().sort_records(records, order="missing")

    def test_plain_array_rejected(self):
        with pytest.raises(TypeError):
            DistributedSorter().sort_records(np.arange(10), order="key")


class TestLexicographicKeys:
    """Multi-field keys: numpy structured dtypes compare lexicographically
    and flow through the whole pipeline (sort, merge, investigator)."""

    def make(self, n=5000, seed=31):
        rng = np.random.default_rng(seed)
        rec = np.empty(n, dtype=[("a", np.int32), ("b", np.int32), ("w", np.float64)])
        rec["a"] = rng.integers(0, 20, n)
        rec["b"] = rng.integers(0, 1000, n)
        rec["w"] = rng.random(n)
        return rec

    def test_structured_keys_sort_directly(self, assert_balanced):
        rec = self.make()
        keys = np.ascontiguousarray(rec[["a", "b"]])
        result = distributed_sort(keys, num_processors=4)
        np.testing.assert_array_equal(result.to_array(), np.sort(keys, kind="stable"))
        assert_balanced(result.per_processor, list(partition_input(keys, 4)[0]))

    def test_sort_records_multi_field(self, oracle_order):
        rec = self.make()
        sorter = DistributedSorter(num_processors=5)
        result, ordered = sorter.sort_records(rec, order=["a", "b"])
        expected = oracle_order(np.ascontiguousarray(rec[["a", "b"]]), 5)
        np.testing.assert_array_equal(ordered, rec[expected])
        np.testing.assert_array_equal(ordered[["a", "b"]], np.sort(rec[["a", "b"]]))
        assert result.is_globally_sorted()

    def test_field_order_matters(self):
        rec = self.make()
        sorter = DistributedSorter(num_processors=3)
        _, by_ab = sorter.sort_records(rec, order=["a", "b"])
        _, by_ba = sorter.sort_records(rec, order=["b", "a"])
        assert np.all(np.diff(by_ab["a"]) >= 0)
        assert np.all(np.diff(by_ba["b"]) >= 0)
        assert not np.array_equal(by_ab, by_ba)

    def test_empty_field_list_rejected(self):
        with pytest.raises(ValueError):
            DistributedSorter().sort_records(self.make(10), order=[])

    def test_missing_field_in_list(self):
        with pytest.raises(KeyError):
            DistributedSorter().sort_records(self.make(10), order=["a", "zz"])

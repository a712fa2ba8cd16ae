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


# ---------------------------------------------------- numpy differential

_RECORD = np.dtype([("a", np.int8), ("b", np.float64)])


def _keys_and_probes(kind, draw):
    """Keys of one ``kind`` with many ties, and probe values both in and
    out of them: NaN, ±0.0 and ±inf among float64 and float16 keys, NaT
    among datetime64 keys, the extremes among int64 keys, the empty string
    and prefixes among fixed-width unicode keys."""
    if kind == "int64":
        pool = st.sampled_from([-(2**63), -3, -1, 0, 1, 2, 5, 2**63 - 1])
        keys, probes = draw(st.lists(pool, max_size=64)), draw(st.lists(pool, min_size=1, max_size=4))
        return np.array(keys, dtype=np.int64), [np.int64(v) for v in probes]
    if kind == "float64":
        pool = st.sampled_from([np.nan, -np.inf, -1.5, -0.0, 0.0, 5e-324, 2.0, np.inf])
        keys, probes = draw(st.lists(pool, max_size=64)), draw(st.lists(pool, min_size=1, max_size=4))
        return np.array(keys, dtype=np.float64), [np.float64(v) for v in probes]
    if kind == "float16":
        pool = st.sampled_from([np.nan, -np.inf, -1.5, -0.0, 0.0, 2.0**-24, 2.0, 65504.0, np.inf])
        keys, probes = draw(st.lists(pool, max_size=64)), draw(st.lists(pool, min_size=1, max_size=4))
        return np.array(keys, dtype=np.float16), [np.float16(v) for v in probes]
    if kind == "unicode":
        pool = st.sampled_from(["", "a", "ab", "abcde", "b", "zz", "é"])
        keys, probes = draw(st.lists(pool, max_size=64)), draw(st.lists(pool, min_size=1, max_size=4))
        return np.array(keys, dtype="U5"), [np.str_(v) for v in probes]
    if kind == "datetime64":
        pool = st.sampled_from(["NaT", "1969-12-31", "1970-01-01", "1970-01-02", "2262-04-11"])
        keys, probes = draw(st.lists(pool, max_size=64)), draw(st.lists(pool, min_size=1, max_size=4))
        return np.array(keys, dtype="datetime64[D]"), [np.datetime64(v, "D") for v in probes]
    pool = st.tuples(st.integers(-2, 2), st.sampled_from([-np.inf, -0.0, 0.0, 1.5, np.inf]))
    keys, probes = draw(st.lists(pool, max_size=64)), draw(st.lists(pool, min_size=1, max_size=4))
    return np.array(keys, dtype=_RECORD), [np.array(v, dtype=_RECORD)[()] for v in probes]


def _same_keys(got, want):
    """Key for key equal in numpy's order: NaN to NaN, NaT to NaT, −0.0 to 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    if len(got) != len(want):
        return False
    if not len(want):
        return got.dtype == want.dtype
    equal = got == want
    if want.dtype.kind in "fmM":
        missing = np.isnan if want.dtype.kind == "f" else np.isnat
        equal |= missing(got) & missing(want)
    return bool(np.all(equal))


class TestAnswersKeepTheKeyDtype:
    """Table III's ranges and an empty top-k are keys, not floats."""

    DATES = np.array(["1970-01-03", "NaT", "1969-12-31"], dtype="datetime64[D]")
    RECORDS = np.array([(2, 1.5), (-1, 0.0), (2, -np.inf), (0, 3.0), (-1, -0.0)], dtype=_RECORD)

    @pytest.mark.parametrize("keys", [DATES, RECORDS], ids=["datetime64", "structured"])
    def test_ranges_are_scalars_of_the_key_dtype(self, keys):
        result = distributed_sort(keys, num_processors=2)
        spans = [span for span in result.ranges() if span is not None]
        assert all(key.dtype == keys.dtype for span in spans for key in span)
        ordered = np.sort(keys, kind="stable")
        assert _same_keys(np.array([spans[0][0], spans[-1][1]], keys.dtype), ordered[[0, -1]])

    @pytest.mark.parametrize("keys", [DATES, RECORDS], ids=["datetime64", "structured"])
    def test_an_empty_top_k_has_the_key_dtype(self, keys):
        result = distributed_sort(keys, num_processors=2)
        empty = distributed_sort(keys[:0], num_processors=2)
        for answer in (result.top_k(0), result.top_k(0, largest=False), empty.top_k(3)):
            assert answer.dtype == keys.dtype and not len(answer)


class TestNumpyDifferential:
    """Every query of the result API answers as the same query on
    ``np.sort(keys, kind="stable")`` does, in numpy's sort order: NaN and
    NaT last, −0.0 equal to 0.0, structured keys field by field — and so
    does the result :meth:`SortResult.load` reads back from
    :meth:`SortResult.save`."""

    @pytest.mark.parametrize(
        "kind", ["int64", "float64", "float16", "datetime64", "unicode", "structured"]
    )
    @settings(max_examples=60)
    @given(data=st.data())
    def test_queries_match_numpy(self, kind, data):
        import io

        from repro.core.result import SortResult

        keys, probes = _keys_and_probes(kind, data.draw)
        p = data.draw(st.sampled_from([1, 2, 3, 16]))
        ordered = np.sort(keys, kind="stable")
        n = len(ordered)
        result = distributed_sort(keys, num_processors=p)
        buffer = io.BytesIO()
        result.save(buffer)
        buffer.seek(0)
        for r in (result, SortResult.load(buffer)):
            assert r.is_globally_sorted()
            assert _same_keys(r.to_array(), ordered)
            for v in probes:
                left = int(np.searchsorted(ordered, v, side="left"))
                right = int(np.searchsorted(ordered, v, side="right"))
                assert r.global_index(*r.searchsorted(v)) == left, v
                assert r.count(v) == right - left, v
                for hi in probes:
                    want = int(np.searchsorted(ordered, hi)) - left
                    assert r.range_count(v, hi) == want, (v, hi)
            for k in sorted({0, 1, n // 2, n}):
                assert _same_keys(r.top_k(k), ordered[n - k:])
                assert _same_keys(r.top_k(k, largest=False), ordered[:k])
            spans = [span for span in r.ranges() if span is not None]
            bounds = np.array([key for span in spans for key in span], ordered.dtype)
            assert _same_keys(bounds[[0, -1]], ordered[[0, -1]]) if n else not spans
            if n:
                qs = np.array([0.0, 0.3, 0.5, 1.0])
                ranks = np.minimum((qs * n).astype(np.int64), n - 1)
                assert _same_keys(r.quantiles(qs), ordered[ranks])

"""Tests for the public API (DistributedSorter) and SortResult queries."""

import numpy as np
import pytest

from repro import DistributedSorter, SortConfig, distributed_sort
from repro.core import SortOptions, partition_input


@pytest.fixture(scope="module")
def uniform_result():
    data = np.random.default_rng(10).integers(0, 10_000, 50_000)
    return data, distributed_sort(data, num_processors=6)


class TestPartitionInput:
    def test_blocks_cover_input(self):
        data = np.arange(103)
        blocks, offsets = partition_input(data, 4)
        np.testing.assert_array_equal(np.concatenate(blocks), data)
        assert offsets.tolist() == [0, 25, 51, 77]

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            partition_input(np.zeros((2, 2)), 2)


class TestSortCorrectness:
    def test_matches_numpy_sort(self, uniform_result):
        data, result = uniform_result
        np.testing.assert_array_equal(result.to_array(), np.sort(data))

    def test_globally_sorted(self, uniform_result):
        _, result = uniform_result
        assert result.is_globally_sorted()

    def test_total_keys_preserved(self, uniform_result):
        data, result = uniform_result
        assert result.total_keys == len(data)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13])
    def test_processor_counts(self, p):
        data = np.random.default_rng(p).random(4000)
        result = distributed_sort(data, num_processors=p)
        np.testing.assert_array_equal(result.to_array(), np.sort(data))
        assert result.num_processors == p

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float32, np.float64, np.uint64])
    def test_generic_over_dtypes(self, dtype):
        rng = np.random.default_rng(3)
        if np.issubdtype(dtype, np.integer):
            data = rng.integers(0, 1000, 5000).astype(dtype)
        else:
            data = rng.random(5000).astype(dtype)
        result = distributed_sort(data, num_processors=4)
        np.testing.assert_array_equal(result.to_array(), np.sort(data))
        assert result.per_processor[0].dtype == dtype

    @pytest.mark.parametrize("backend", ["simnet", "process"])
    def test_mixed_dtype_blocks_promote_at_the_api(self, backend):
        # One dtype policy for both substrates: promote to the common
        # result_type before dispatch, so the output dtype never depends on
        # which received runs happened to be empty (or on the substrate).
        from repro.core.local_backend import local_sample_sort

        rng = np.random.default_rng(17)
        blocks = [
            rng.integers(-50, 50, 300).astype(np.int32),
            rng.integers(-(1 << 40), 1 << 40, 300).astype(np.int64),
            np.empty(0, dtype=np.int32),
            rng.integers(0, 9, 300).astype(np.int32),  # ties across dtypes
        ]
        result = DistributedSorter(
            num_processors=4, backend=backend
        ).sort_partitioned(blocks)
        reference = local_sample_sort([b.astype(np.int64) for b in blocks])
        for keys, prov, ref_keys, ref_prov in zip(
            result.per_processor,
            result.provenance,
            reference.per_processor,
            reference.provenance,
        ):
            assert keys.dtype == np.int64
            assert keys.tobytes() == ref_keys.tobytes()
            assert prov.origin_index.dtype == np.int32
            assert prov.origin_proc.tobytes() == ref_prov.origin_proc.tobytes()
            assert prov.origin_index.tobytes() == ref_prov.origin_index.tobytes()

    def test_empty_input(self):
        result = distributed_sort(np.array([]), num_processors=4)
        assert result.total_keys == 0
        assert result.is_globally_sorted()

    def test_tiny_input_fewer_keys_than_processors(self):
        data = np.array([5, 3, 9])
        result = distributed_sort(data, num_processors=8)
        np.testing.assert_array_equal(result.to_array(), [3, 5, 9])

    def test_all_equal_keys(self):
        data = np.full(10_000, 7)
        result = distributed_sort(data, num_processors=8)
        assert result.is_globally_sorted()
        # The investigator spreads the single tied value across processors.
        assert result.imbalance() < 1.2

    def test_already_sorted_input(self):
        data = np.arange(10_000)
        result = distributed_sort(data, num_processors=4)
        np.testing.assert_array_equal(result.to_array(), data)

    def test_reverse_sorted_input(self):
        data = np.arange(10_000)[::-1].copy()
        result = distributed_sort(data, num_processors=4)
        np.testing.assert_array_equal(result.to_array(), np.arange(10_000))

    def test_negative_values(self):
        data = np.random.default_rng(0).integers(-500, 500, 10_000)
        result = distributed_sort(data, num_processors=4)
        np.testing.assert_array_equal(result.to_array(), np.sort(data))


class TestProvenanceQueries:
    def test_origin_roundtrip(self, uniform_result):
        data, result = uniform_result
        blocks, offsets = partition_input(data, result.num_processors)
        for proc in range(result.num_processors):
            keys = result.per_processor[proc]
            for local_idx in (0, len(keys) // 2, len(keys) - 1):
                op, oi = result.origin_of(proc, local_idx)
                assert blocks[op][oi] == keys[local_idx]

    def test_gather_values_reorders_payload(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 1000, 20_000)
        payload = rng.random(20_000)
        result = distributed_sort(keys, num_processors=5)
        gathered = result.gather_values(payload)
        order = np.argsort(keys, kind="stable")
        np.testing.assert_array_equal(gathered, payload[order])

    def test_gather_values_wrong_length(self, uniform_result):
        _, result = uniform_result
        with pytest.raises(ValueError):
            result.gather_values(np.zeros(3))


class TestResultQueries:
    def test_searchsorted_matches_global(self, uniform_result):
        data, result = uniform_result
        flat = result.to_array()
        for value in (-1, 0, 777, 5000, 9999, 10_001):
            proc, local = result.searchsorted(value)
            gidx = result.global_index(proc, local)
            assert gidx == np.searchsorted(flat, value, side="left")

    def test_top_k(self, uniform_result):
        data, result = uniform_result
        np.testing.assert_array_equal(result.top_k(10), np.sort(data)[-10:])
        np.testing.assert_array_equal(result.top_k(10, largest=False), np.sort(data)[:10])

    def test_top_k_spanning_processors(self, uniform_result):
        data, result = uniform_result
        k = len(result.per_processor[-1]) + 5  # forces crossing a boundary
        np.testing.assert_array_equal(result.top_k(k), np.sort(data)[-k:])

    def test_top_k_edge_cases(self, uniform_result):
        data, result = uniform_result
        assert len(result.top_k(0)) == 0
        np.testing.assert_array_equal(result.top_k(10**9), np.sort(data))
        with pytest.raises(ValueError):
            result.top_k(-1)

    def test_ranges_ordered(self, uniform_result):
        _, result = uniform_result
        ranges = [r for r in result.ranges() if r is not None]
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert lo1 <= hi1 <= lo2 <= hi2

    def test_ratios_sum_to_one(self, uniform_result):
        _, result = uniform_result
        assert result.ratios().sum() == pytest.approx(1.0)

    def test_step_breakdown_has_all_steps(self, uniform_result):
        _, result = uniform_result
        from repro.core import STEP_LABELS

        breakdown = result.step_breakdown()
        assert set(breakdown) == set(STEP_LABELS)
        assert breakdown["1-local-sort"] > 0

    def test_global_index_bounds(self, uniform_result):
        _, result = uniform_result
        with pytest.raises(IndexError):
            result.global_index(99, 0)


class TestSorterConfiguration:
    def test_overrides_route_to_subconfigs(self):
        sorter = DistributedSorter(
            num_processors=4,
            sample_factor=0.5,
            threads_per_machine=16,
            investigator=False,
            async_messaging=False,
        )
        assert sorter.config.num_processors == 4
        assert sorter.config.options.sample_factor == 0.5
        assert not sorter.config.options.investigator
        assert sorter.config.pgxd.threads_per_machine == 16
        assert not sorter.config.pgxd.async_messaging

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            DistributedSorter(bogus=1)

    def test_invalid_processor_count(self):
        with pytest.raises(ValueError):
            SortConfig(num_processors=0)

    def test_invalid_sample_factor(self):
        with pytest.raises(ValueError):
            SortOptions(sample_factor=-1)

    def test_sorter_reusable_and_deterministic(self):
        sorter = DistributedSorter(num_processors=4)
        data = np.random.default_rng(2).random(10_000)
        r1, r2 = sorter.sort(data), sorter.sort(data)
        assert r1.elapsed_seconds == r2.elapsed_seconds
        np.testing.assert_array_equal(r1.to_array(), r2.to_array())

    def test_sort_partitioned_block_count_checked(self):
        sorter = DistributedSorter(num_processors=4)
        with pytest.raises(ValueError):
            sorter.sort_partitioned([np.zeros(3)])


class TestMultiSort:
    def test_sort_multi_results_independent(self):
        rng = np.random.default_rng(12)
        a = rng.integers(0, 100, 5000)
        b = rng.random(3000)
        results = DistributedSorter(num_processors=4).sort_multi([a, b])
        assert len(results) == 2
        np.testing.assert_array_equal(results[0].to_array(), np.sort(a))
        np.testing.assert_array_equal(results[1].to_array(), np.sort(b))

    def test_sort_multi_empty_list(self):
        assert DistributedSorter().sort_multi([]) == []

    def test_sort_with_values(self):
        rng = np.random.default_rng(13)
        keys = rng.integers(0, 50, 2000)
        vals = {"a": rng.random(2000), "b": np.arange(2000)}
        result, cols = DistributedSorter(num_processors=3).sort_with_values(keys, vals)
        order = np.argsort(keys, kind="stable")
        np.testing.assert_array_equal(cols["a"], vals["a"][order])
        np.testing.assert_array_equal(cols["b"], vals["b"][order])

    def test_sort_with_values_misaligned(self):
        with pytest.raises(ValueError):
            DistributedSorter().sort_with_values(np.arange(5), {"x": np.arange(4)})


class TestPersistence:
    def test_save_load_roundtrip(self, uniform_result, tmp_path):
        data, result = uniform_result
        path = tmp_path / "sorted.npz"
        result.save(path)
        from repro import SortResult

        loaded = SortResult.load(path)
        assert loaded.num_processors == result.num_processors
        np.testing.assert_array_equal(loaded.to_array(), result.to_array())
        for a, b in zip(loaded.provenance, result.provenance):
            np.testing.assert_array_equal(a.origin_proc, b.origin_proc)
            np.testing.assert_array_equal(a.origin_index, b.origin_index)
        assert loaded.elapsed_seconds == result.elapsed_seconds
        assert loaded.step_breakdown() == result.step_breakdown()

    def test_loaded_result_supports_queries(self, uniform_result, tmp_path):
        data, result = uniform_result
        path = tmp_path / "sorted.npz"
        result.save(path)
        from repro import SortResult

        loaded = SortResult.load(path)
        np.testing.assert_array_equal(loaded.top_k(5), result.top_k(5))
        assert loaded.searchsorted(777) == result.searchsorted(777)
        payload = np.random.default_rng(0).random(result.total_keys)
        np.testing.assert_array_equal(
            loaded.gather_values(payload), result.gather_values(payload)
        )

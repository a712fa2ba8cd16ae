"""Merge data-plane contracts: dtype handling, pointer moves, flat kernel.

These tests pin the fast-path/fallback split introduced with the flat
k-way kernel: ``merge_two``'s widening and empty-side behaviour must stay
exactly what the cascade fallback relies on, and the flat kernel must be
bit-identical to the cascade wherever both are legal.
"""

import numpy as np
import pytest

from repro.core.balanced_merge import (
    balanced_merge,
    flat_kway_merge,
    merge_two,
    sequential_fold_merge,
)
from repro.core.packsort import packed_stable_sort


class TestMergeTwoDtypes:
    def test_real_merge_widens_to_result_type(self):
        a = np.array([1, 3], dtype=np.int32)
        b = np.array([2, 4], dtype=np.int64)
        out, _ = merge_two(a, b)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [1, 2, 3, 4])

    def test_aux_arrays_widen_independently_of_keys(self):
        a = np.array([1, 3], dtype=np.int64)
        b = np.array([2, 4], dtype=np.int64)
        aux_a = [np.array([10, 30], dtype=np.int16)]
        aux_b = [np.array([20, 40], dtype=np.int64)]
        out, aux = merge_two(a, b, aux_a, aux_b)
        assert out.dtype == np.int64
        assert aux[0].dtype == np.int64
        np.testing.assert_array_equal(aux[0], [10, 20, 30, 40])

    def test_empty_side_is_pointer_move_keeping_dtype(self):
        empty = np.empty(0, dtype=np.int64)
        run = np.array([5, 6], dtype=np.int32)
        aux_run = [np.array([1, 2], dtype=np.int16)]
        out, aux = merge_two(empty, run, [np.empty(0, dtype=np.int64)], aux_run)
        # A pointer move performs no key work: same array object, no
        # widening to result_type(int64, int32).
        assert out is run
        assert out.dtype == np.int32
        assert aux[0] is aux_run[0]
        out, aux = merge_two(run, empty, aux_run, [np.empty(0, dtype=np.int64)])
        assert out is run
        assert aux[0] is aux_run[0]

    def test_empty_path_still_validates_aux_alignment(self):
        empty = np.empty(0, dtype=np.int64)
        run = np.array([1, 2], dtype=np.int64)
        # Misaligned aux on the *non-empty* side must raise even though the
        # merge itself would be a pointer move.
        with pytest.raises(ValueError, match="align"):
            merge_two(empty, run, [empty], [np.array([7])])
        with pytest.raises(ValueError, match="align"):
            merge_two(run, empty, [np.array([7])], [empty])
        # ...and so must an aux-count mismatch between the two sides.
        with pytest.raises(ValueError, match="same number"):
            merge_two(empty, run, [empty], [])

    def test_aux_misalignment_rejected_on_real_merge(self):
        a = np.array([1, 3], dtype=np.int64)
        b = np.array([2, 4], dtype=np.int64)
        with pytest.raises(ValueError, match="align"):
            merge_two(a, b, [np.array([1])], [np.array([2, 4])])

    def test_mixed_dtype_cascade_widens_like_merge_two(self):
        runs = [
            np.array([1, 4], dtype=np.int32),
            np.array([2, 5], dtype=np.int64),
            np.array([3, 6], dtype=np.int32),
        ]
        for merge_fn in (balanced_merge, sequential_fold_merge):
            outcome = merge_fn(runs)
            assert outcome.keys.dtype == np.int64
            np.testing.assert_array_equal(outcome.keys, [1, 2, 3, 4, 5, 6])


class TestFlatKwayMerge:
    def _random_runs(self, k=7, n=500, lo=0, hi=40, seed=3):
        rng = np.random.default_rng(seed)
        bounds = [n * i // k for i in range(k + 1)]
        data = rng.integers(lo, hi, n).astype(np.int64)
        return [np.sort(data[a:b]) for a, b in zip(bounds, bounds[1:])]

    def test_bit_identical_to_cascade_with_provenance(self):
        runs = self._random_runs()
        aux_runs = [
            [np.arange(len(r), dtype=np.int64), np.full(len(r), i, dtype=np.int16)]
            for i, r in enumerate(runs)
        ]
        expected = balanced_merge(runs, aux_runs)
        buffer = np.concatenate(runs)
        cols = [np.concatenate([ax[s] for ax in aux_runs]) for s in range(2)]
        got = flat_kway_merge(buffer, [len(r) for r in runs], cols)
        np.testing.assert_array_equal(got.keys, expected.keys)
        for g, e in zip(got.aux, expected.aux):
            np.testing.assert_array_equal(g, e)
        assert got.levels == expected.levels

    def test_stability_earlier_runs_win_ties(self):
        # All-equal keys: the merged aux column must preserve run order.
        runs = [np.full(3, 9, dtype=np.int64) for _ in range(4)]
        origin = np.repeat(np.arange(4, dtype=np.int16), 3)
        got = flat_kway_merge(np.concatenate(runs), [3, 3, 3, 3], [origin])
        np.testing.assert_array_equal(got.aux[0], origin)

    def test_fold_shape_matches_sequential_cascade(self):
        runs = self._random_runs(k=5, seed=11)
        expected = sequential_fold_merge(runs)
        got = flat_kway_merge(
            np.concatenate(runs), [len(r) for r in runs], balanced=False
        )
        np.testing.assert_array_equal(got.keys, expected.keys)
        assert got.levels == expected.levels

    def test_run_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="sum"):
            flat_kway_merge(np.arange(5), [2, 2])

    def test_aux_column_misalignment_raises(self):
        with pytest.raises(ValueError, match="align"):
            flat_kway_merge(np.arange(4), [2, 2], [np.arange(3)])

    def test_output_never_aliases_the_input_buffer(self):
        # Buffers may be scratch leases: the outcome must be fresh storage
        # even on the degenerate single-run path.
        buffer = np.arange(6, dtype=np.int64)
        col = np.arange(6, dtype=np.int64)
        for lengths in ([6], [4, 2]):
            got = flat_kway_merge(buffer, lengths, [col])
            assert not np.shares_memory(got.keys, buffer)
            assert not np.shares_memory(got.aux[0], col)


class TestPackedStableSort:
    def _assert_matches_stable(self, keys):
        result = packed_stable_sort(keys)
        assert result is not None
        sorted_keys, order = result
        expected_order = keys.argsort(kind="stable")
        np.testing.assert_array_equal(order, expected_order)
        # Bytes, not values: -0.0 and NaN payloads must survive.
        assert sorted_keys.tobytes() == keys[expected_order].tobytes()
        assert sorted_keys.dtype == keys.dtype

    def test_matches_stable_argsort_on_duplicates(self):
        rng = np.random.default_rng(7)
        self._assert_matches_stable(rng.integers(0, 50, 4000).astype(np.int64))

    def test_matches_stable_argsort_on_negative_keys(self):
        rng = np.random.default_rng(8)
        self._assert_matches_stable(
            rng.integers(-1_000_000, 1_000_000, 3000).astype(np.int64)
        )

    def test_matches_stable_argsort_on_int32(self):
        rng = np.random.default_rng(9)
        self._assert_matches_stable(rng.integers(-100, 100, 2500).astype(np.int32))

    def test_fallback_on_non_integer_dtype(self):
        # The key codec covers floats and unsigned ints whose coded range
        # leaves room for the index bits ...
        self._assert_matches_stable(np.array([2.0, 1.0]))
        self._assert_matches_stable(np.array([2, 1], dtype=np.uint64))
        self._assert_matches_stable(np.array([2.5, -0.0, np.nan, 0.0], dtype=np.float32))
        # ... and still declines what has no codec or cannot fit.
        rng = np.random.default_rng(10)
        declined = [
            rng.normal(size=64),  # full-mantissa float64
            np.array([2**63, 1], dtype=np.uint64),
            np.array([2.0, 1.0], dtype=np.float16),
            np.array([2 + 1j, 1 + 0j]),
            np.array(["2001-01-02", "2001-01-01"], dtype="datetime64[D]"),
            np.array([True, False]),
            np.array([2, 1], dtype=object),
        ]
        for keys in declined:
            assert packed_stable_sort(keys) is None, keys.dtype

    def test_strided_and_read_only_blocks(self):
        # The codec reinterprets the key bytes, so views must stay safe:
        # rank blocks are slices of a shared input and may be read-only.
        rng = np.random.default_rng(11)
        for dtype in (np.float64, np.float32, np.uint64, np.int64, np.int32):
            values = np.floor(rng.normal(0, 50, 4001))
            if np.dtype(dtype).kind == "u":
                values = np.abs(values)
            base = values.astype(dtype)
            base[::97] = 0
            strided = base[1::3]
            assert not strided.flags.c_contiguous
            self._assert_matches_stable(strided)
            frozen = base.copy()
            frozen.setflags(write=False)
            self._assert_matches_stable(frozen)
            np.testing.assert_array_equal(frozen, base)  # input untouched

    def test_fallback_on_key_magnitude_overflow(self):
        # Keys near int64 extremes leave no room for the index bits.
        keys = np.array([2**62, -(2**62), 0], dtype=np.int64)
        assert packed_stable_sort(keys) is None

    def test_fallback_on_tiny_input(self):
        assert packed_stable_sort(np.array([3], dtype=np.int64)) is None
        assert packed_stable_sort(np.empty(0, dtype=np.int64)) is None

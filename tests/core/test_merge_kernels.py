"""Merge data-plane contracts: one flat kernel, one provenance column.

``flat_kway_merge`` and ``merge_received`` are the only code that merges
key runs (the packed-word path sorts unique words instead), so they are
pinned here against an in-test literal — concatenate + stable argsort, the
earlier run wins ties — never against another implementation in ``src/``.
Dtypes are uniform by construction (one buffer per column); promotion of
mixed-dtype blocks happens once, at the API (``tests/core/test_api_result.py``).
"""

import numpy as np
import pytest

from repro.core.balanced_merge import flat_kway_merge, merge_levels
from repro.core.packsort import packed_stable_sort
from repro.core.scratch import ScratchArena
from repro.core.steps import merge_received


def literal_merge(runs, columns=()):
    """The specification: stable sort of the concatenation."""
    keys = np.concatenate(runs)
    order = np.argsort(keys, kind="stable")
    return keys[order], [np.asarray(col)[order] for col in columns]


class TestMergeTwoDtypes:
    """Two-run merges: every column keeps the dtype it came in with."""

    def test_aux_arrays_widen_independently_of_keys(self):
        # Columns ride the key permutation without touching the key dtype
        # or each other's: int32 indices and int16 ranks under int64 keys.
        keys = np.array([1, 3, 2, 4], dtype=np.int64)
        index = np.array([10, 30, 20, 40], dtype=np.int32)
        proc = np.array([0, 0, 1, 1], dtype=np.int16)
        out = flat_kway_merge(keys, [2, 2], [index, proc])
        assert out.keys.dtype == np.int64
        assert [a.dtype for a in out.aux] == [np.int32, np.int16]
        np.testing.assert_array_equal(out.aux[0], [10, 20, 30, 40])
        np.testing.assert_array_equal(out.aux[1], [0, 1, 0, 1])

    def test_empty_side_is_pointer_move_keeping_dtype(self):
        run = np.array([5, 6], dtype=np.int32)
        col = np.array([1, 2], dtype=np.int16)
        for lengths in ([0, 2], [2, 0]):
            out = flat_kway_merge(run, lengths, [col])
            # No key work is charged, and nothing is widened on the way.
            assert out.levels == [[]]
            assert out.keys.dtype == np.int32 and out.aux[0].dtype == np.int16
            np.testing.assert_array_equal(out.keys, run)
            np.testing.assert_array_equal(out.aux[0], col)

    def test_empty_path_still_validates_aux_alignment(self):
        run = np.array([1, 2], dtype=np.int64)
        # A misaligned column must raise even though an empty side makes
        # the merge itself a pointer move.
        for lengths in ([0, 2], [2, 0]):
            with pytest.raises(ValueError, match="align"):
                flat_kway_merge(run, lengths, [np.array([7])])

    def test_aux_misalignment_rejected_on_real_merge(self):
        keys = np.array([1, 3, 2, 4], dtype=np.int64)
        with pytest.raises(ValueError, match="align"):
            flat_kway_merge(keys, [2, 2], [np.array([1, 2, 4])])


class TestFlatKwayMerge:
    def _random_runs(self, k=7, n=500, lo=0, hi=40, seed=3):
        rng = np.random.default_rng(seed)
        bounds = [n * i // k for i in range(k + 1)]
        data = rng.integers(lo, hi, n).astype(np.int64)
        return [np.sort(data[a:b]) for a, b in zip(bounds, bounds[1:])]

    def test_bit_identical_to_cascade_with_provenance(self):
        # The pairwise cascade composes to "stable sort of the
        # concatenation": keys and both provenance columns must equal the
        # literal, and the charged shape must be the handler's.
        runs = self._random_runs()
        index = np.concatenate([np.arange(len(r), dtype=np.int32) for r in runs])
        proc = np.repeat(np.arange(len(runs), dtype=np.int16), [len(r) for r in runs])
        expected_keys, expected_aux = literal_merge(runs, [index, proc])
        got = flat_kway_merge(np.concatenate(runs), [len(r) for r in runs], [index, proc])
        assert got.keys.tobytes() == expected_keys.tobytes()
        for g, e in zip(got.aux, expected_aux):
            assert g.dtype == e.dtype and g.tobytes() == e.tobytes()
        assert got.levels == merge_levels([len(r) for r in runs])

    def test_stability_earlier_runs_win_ties(self):
        # All-equal keys: the merged aux column must preserve run order.
        runs = [np.full(3, 9, dtype=np.int64) for _ in range(4)]
        origin = np.repeat(np.arange(4, dtype=np.int16), 3)
        got = flat_kway_merge(np.concatenate(runs), [3, 3, 3, 3], [origin])
        np.testing.assert_array_equal(got.aux[0], origin)

    def test_fold_shape_matches_sequential_cascade(self):
        runs = self._random_runs(k=5, seed=11)
        lengths = [len(r) for r in runs]
        got = flat_kway_merge(np.concatenate(runs), lengths, balanced=False)
        assert got.keys.tobytes() == literal_merge(runs)[0].tobytes()
        # Run 0 absorbs one run per fold: k-1 single-merge levels whose
        # sizes are the running totals.
        assert got.levels == [[int(t)] for t in np.cumsum(lengths)[1:]]
        assert got.levels == merge_levels(lengths, balanced=False)

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


class TestMergeReceived:
    """Step 6 of the keys + perm path: the kernel plus the origin column."""

    def _received(self, seed=5, k=6):
        rng = np.random.default_rng(seed)
        runs = [np.sort(rng.integers(0, 30, int(n))) for n in rng.integers(0, 80, k)]
        runs[2] = runs[2][:0]  # a source that sent nothing
        index = np.concatenate([rng.permutation(len(r)).astype(np.int32) for r in runs])
        return runs, index

    @pytest.mark.parametrize("sources", [None, [0, 1, 3, 4, 6, 7]])
    def test_matches_the_literal_and_builds_the_origin_column(self, sources):
        runs, index = self._received()
        lengths = [len(r) for r in runs]
        proc = np.repeat(
            np.asarray(sources if sources else range(len(runs)), dtype=np.int16), lengths
        )
        expected_keys, (expected_index, expected_proc) = literal_merge(runs, [index, proc])
        arena = ScratchArena()
        for scratch in (None, arena):
            got = merge_received(
                np.concatenate(runs), index, lengths, True, sources=sources, scratch=scratch
            )
            assert got.keys.tobytes() == expected_keys.tobytes()
            assert got.aux[0].dtype == np.int32 and got.aux[1].dtype == np.int16
            assert got.aux[0].tobytes() == expected_index.tobytes()
            assert got.aux[1].tobytes() == expected_proc.tobytes()
            assert got.levels == merge_levels(lengths)
        # The column was staged in the arena, the outcome is not a lease.
        assert arena.live_leases == 1
        arena.release_all()
        assert got.aux[1].tobytes() == expected_proc.tobytes()

    def test_unbalanced_charges_the_fold_shape(self):
        runs, index = self._received(seed=6)
        lengths = [len(r) for r in runs]
        got = merge_received(np.concatenate(runs), index, lengths, False)
        assert got.keys.tobytes() == literal_merge(runs)[0].tobytes()
        assert got.levels == merge_levels(lengths, balanced=False)


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

"""Tests for the merge kernel and the balanced-merge handler's shape (Figure 2).

Data goes through the one kernel, ``flat_kway_merge``, checked against an
in-test literal (concatenate + stable argsort: the earlier run wins ties);
the handler's level structure and cost are checked on ``merge_levels`` /
``merge_levels_cost_seconds``, which need run lengths only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flat_kway_merge, merge_levels, merge_levels_cost_seconds
from repro.pgxd import TaskManager
from repro.simnet import CostModel


def literal_merge(runs, aux_runs):
    """The specification: stable sort of the concatenation."""
    keys = np.concatenate(runs)
    order = np.argsort(keys, kind="stable")
    n_aux = len(aux_runs[0]) if aux_runs else 0
    aux = [np.concatenate([ax[i] for ax in aux_runs])[order] for i in range(n_aux)]
    return keys[order], aux


def merge_runs(runs, aux_runs=None, *, balanced=True):
    """Lay the runs (and their aux columns) back to back for the kernel."""
    aux_runs = aux_runs if aux_runs is not None else [[] for _ in runs]
    n_aux = len(aux_runs[0]) if aux_runs else 0
    columns = [np.concatenate([ax[i] for ax in aux_runs]) for i in range(n_aux)]
    keys = np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)
    outcome = flat_kway_merge(keys, [len(r) for r in runs], columns, balanced=balanced)
    if runs:
        expected_keys, expected_aux = literal_merge(runs, aux_runs)
        assert outcome.keys.tobytes() == expected_keys.tobytes()
        for got, expected in zip(outcome.aux, expected_aux):
            np.testing.assert_array_equal(got, expected)
    return outcome


def lengths_of(runs):
    return [len(r) for r in runs]


class TestMergeTwo:
    """Two runs through the kernel: the pairwise merge every level performs."""

    def test_basic_merge(self):
        out = merge_runs([np.array([1, 3, 5]), np.array([2, 4, 6])])
        np.testing.assert_array_equal(out.keys, [1, 2, 3, 4, 5, 6])
        assert out.aux == []

    def test_empty_sides(self):
        a = np.array([1, 2])
        empty = np.empty(0, dtype=np.int64)
        for runs in ([a, empty], [empty, a]):
            out = merge_runs(runs)
            np.testing.assert_array_equal(out.keys, a)
            assert out.levels == [[]]  # a pointer move is charged nothing

    def test_stability_a_before_b(self):
        # Equal keys: a's elements must precede b's.
        a, b = np.array([5, 5]), np.array([5, 5])
        out = merge_runs([a, b], [[np.array([0, 1])], [np.array([2, 3])]])
        np.testing.assert_array_equal(out.aux[0], [0, 1, 2, 3])

    def test_aux_arrays_follow_keys(self):
        a, b = np.array([1, 4]), np.array([2, 3])
        out = merge_runs([a, b], [[np.array([10, 40])], [np.array([20, 30])]])
        np.testing.assert_array_equal(out.keys, [1, 2, 3, 4])
        np.testing.assert_array_equal(out.aux[0], [10, 20, 30, 40])

    def test_multiple_aux_arrays(self):
        out = merge_runs(
            [np.array([1]), np.array([0])],
            [[np.array([7]), np.array([8])], [np.array([5]), np.array([6])]],
        )
        np.testing.assert_array_equal(out.aux[0], [5, 7])
        np.testing.assert_array_equal(out.aux[1], [6, 8])

    def test_mismatched_aux_rejected(self):
        keys = np.array([1, 2])
        with pytest.raises(ValueError, match="align"):
            flat_kway_merge(keys, [1, 1], [np.array([1])])
        with pytest.raises(ValueError, match="align"):
            flat_kway_merge(keys, [1, 1], [np.array([1, 2, 3])])

    def test_float_keys(self):
        out = merge_runs([np.array([0.5, 1.5]), np.array([1.0])])
        np.testing.assert_array_equal(out.keys, [0.5, 1.0, 1.5])

    @given(
        st.lists(st.integers(-1000, 1000), max_size=100),
        st.lists(st.integers(-1000, 1000), max_size=100),
    )
    @settings(max_examples=80, deadline=None)
    def test_merge_equals_sorted_concat(self, xs, ys):
        a = np.sort(np.array(xs, dtype=np.int64))
        b = np.sort(np.array(ys, dtype=np.int64))
        out = merge_runs([a, b])
        np.testing.assert_array_equal(out.keys, np.sort(np.concatenate([a, b])))


def make_runs(rng, num_runs, max_len=50):
    runs = []
    aux = []
    for i in range(num_runs):
        n = int(rng.integers(0, max_len))
        r = np.sort(rng.integers(0, 100, n))
        runs.append(r)
        aux.append([np.full(n, i, dtype=np.int64)])
    return runs, aux


class TestBalancedMerge:
    @pytest.mark.parametrize("num_runs", [1, 2, 3, 4, 7, 8, 16])
    def test_result_is_sorted_permutation(self, num_runs):
        rng = np.random.default_rng(num_runs)
        runs, aux = make_runs(rng, num_runs)
        outcome = merge_runs(runs, aux)
        np.testing.assert_array_equal(outcome.keys, np.sort(np.concatenate(runs)))
        # Aux multiset preserved.
        assert sorted(outcome.aux[0].tolist()) == sorted(
            np.concatenate([a[0] for a in aux]).tolist()
        )

    def test_figure2_level_structure_8_runs(self):
        # 8 equal runs of 10 keys: levels must be 4, 2, 1 merges of sizes
        # 20, 40, 80 — the paper's Figure 2 exactly.
        assert [sorted(level) for level in merge_levels([10] * 8)] == [
            [20, 20, 20, 20],
            [40, 40],
            [80],
        ]

    def test_odd_run_count_carries_last(self):
        runs = [np.array([i]) for i in range(5)]
        outcome = merge_runs(runs)
        # Level 1: two merges of 2; run 4 carried. Level 2: 4; carried.
        # Level 3: 5.
        assert outcome.levels == [[2, 2], [4], [5]]
        np.testing.assert_array_equal(outcome.keys, np.arange(5))

    def test_empty_input(self):
        outcome = merge_runs([])
        assert len(outcome.keys) == 0
        assert outcome.levels == []

    def test_single_run_passthrough(self):
        r = np.array([1, 2, 3])
        outcome = merge_runs([r])
        np.testing.assert_array_equal(outcome.keys, r)
        assert outcome.levels == []

    def test_level_count_is_log2(self):
        for t in (2, 4, 8, 16, 32):
            assert len(merge_levels([1] * t)) == int(np.log2(t))

    def test_inconsistent_aux_rejected(self):
        keys = np.array([1, 2])
        with pytest.raises(ValueError, match="align"):
            flat_kway_merge(keys, [1, 1], [np.array([0])])
        with pytest.raises(ValueError, match="sum"):
            flat_kway_merge(keys, [1, 2], [np.array([0, 0])])


class TestSequentialFold:
    def test_same_result_different_shape(self):
        rng = np.random.default_rng(9)
        runs, aux = make_runs(rng, 6)
        bal = merge_runs(runs, aux)
        seq = merge_runs(runs, aux, balanced=False)
        np.testing.assert_array_equal(bal.keys, seq.keys)
        np.testing.assert_array_equal(bal.aux[0], seq.aux[0])
        assert len(seq.levels) == 5  # t-1 folds
        assert all(len(level) == 1 for level in seq.levels)

    def test_fold_moves_more_keys(self):
        # The fold re-merges the accumulated prefix repeatedly, so its total
        # key movement exceeds the balanced handler's.
        runs = [np.arange(10) for _ in range(8)]
        bal = merge_runs(runs)
        seq = merge_runs(runs, balanced=False)
        assert seq.total_merged_keys() > bal.total_merged_keys()


class TestMergeCost:
    def setup_method(self):
        self.cost = CostModel(thread_degradation=0.0, task_region_overhead=0.0)
        self.tasks = TaskManager(8, self.cost)

    def charged(self, lengths, *, balanced=True):
        return merge_levels_cost_seconds(
            merge_levels(lengths, balanced=balanced), self.tasks, self.cost
        )

    def test_parallel_cheaper_than_serial_for_level(self):
        serial = sum(
            size / self.cost.merge_rate
            for level in merge_levels([1000] * 8)
            for size in level
        )
        assert self.charged([1000] * 8) < serial

    def test_balanced_cheaper_than_fold(self):
        assert self.charged([1000] * 16) < self.charged([1000] * 16, balanced=False)

    def test_cost_zero_for_no_merges(self):
        assert self.charged([1]) == 0.0

    @given(st.integers(2, 12), st.integers(0, 40))
    @settings(max_examples=30, deadline=None)
    def test_cost_positive_when_merging(self, num_runs, seed):
        rng = np.random.default_rng(seed)
        runs, _aux = make_runs(rng, num_runs, max_len=20)
        assert self.charged(lengths_of(runs)) >= 0.0


class TestKwayMerge:
    """The ablation's single-stream k-way strategy: same data, other cost."""

    def test_same_output_as_balanced(self):
        # One pass over all runs is what the kernel executes, whichever
        # handler shape is charged: the shape never reaches the data.
        rng = np.random.default_rng(17)
        runs, aux = make_runs(rng, 6)
        bal = merge_runs(runs, aux)
        fold = merge_runs(runs, aux, balanced=False)
        assert bal.keys.tobytes() == fold.keys.tobytes()
        assert bal.aux[0].tobytes() == fold.aux[0].tobytes()
        assert bal.levels != fold.levels

    def test_stability_earlier_runs_win_ties(self):
        runs = [np.array([5, 5]), np.array([5])]
        aux = [[np.array([0, 1])], [np.array([2])]]
        out = merge_runs(runs, aux)
        np.testing.assert_array_equal(out.aux[0], [0, 1, 2])

    def test_single_and_empty(self):
        assert len(merge_runs([]).keys) == 0
        single = merge_runs([np.array([1, 2])])
        np.testing.assert_array_equal(single.keys, [1, 2])
        assert single.levels == []

    def test_cost_grows_with_run_count(self):
        from repro.core import kway_merge_cost_seconds

        cm = CostModel()
        assert kway_merge_cost_seconds(1 << 20, 16, cm) > kway_merge_cost_seconds(
            1 << 20, 2, cm
        )
        assert kway_merge_cost_seconds(0, 4, cm) == 0.0
        assert kway_merge_cost_seconds(100, 1, cm) == 0.0

    def test_handler_cheaper_than_kway_on_many_threads(self):
        """The paper's handler point: pairwise levels parallelize, a k-way
        stream does not."""
        from repro.core import kway_merge_cost_seconds

        cm = CostModel()
        tasks = TaskManager(32, cm)
        handler = merge_levels_cost_seconds(merge_levels([10_000] * 32), tasks, cm)
        kway = kway_merge_cost_seconds(32 * 10_000, 32, cm)
        assert handler < kway

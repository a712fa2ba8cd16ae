"""Tests for step 4: splitter cuts with and without the investigator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    compute_cuts,
    compute_cuts_naive,
    cuts_to_counts,
    merge_samples,
    select_splitters,
    slices_from_cuts,
)
from repro.core.splitters import splitter_array


def tied(keys, at=1, of=1):
    """Splitters at ``keys``, each the ``at``-th of ``of`` tied samples."""
    return splitter_array(np.asarray(keys, dtype=np.int64), at, of)


def rule(lo, hi, at, of, p, rank):
    """The investigator's cut, in Python integers."""
    return lo + ((hi - lo) * at * p + rank * of) // (of * p)


class TestDistinctSplitters:
    def test_matches_naive_when_no_duplicates(self):
        keys = np.arange(100)
        splitters = tied([24, 49, 74])
        inv = compute_cuts(keys, splitters)
        naive = compute_cuts_naive(keys, splitters)
        np.testing.assert_array_equal(inv.cuts, naive.cuts)
        np.testing.assert_array_equal(cuts_to_counts(inv.cuts, 100), [25, 25, 25, 25])

    def test_plain_keys_are_not_splitters(self):
        for cut in (compute_cuts, compute_cuts_naive):
            with pytest.raises(TypeError, match="splitter array"):
                cut(np.arange(100), np.array([24, 49, 74]))

    def test_figure_3a_ranges(self):
        # Data between splitter[j-1] and splitter[j] goes to processor j.
        keys = np.array([1, 2, 3, 10, 11, 20, 30])
        cut = compute_cuts(keys, tied([5, 15]))
        counts = cuts_to_counts(cut.cuts, len(keys))
        np.testing.assert_array_equal(counts, [3, 2, 2])

    def test_empty_splitters_single_destination(self):
        cut = compute_cuts(np.arange(10), tied([]))
        np.testing.assert_array_equal(cuts_to_counts(cut.cuts, 10), [10])
        assert cut.searches == 0

    def test_empty_keys(self):
        cut = compute_cuts(np.array([]), tied([1, 2, 3]))
        np.testing.assert_array_equal(cut.cuts, [0, 0, 0])

    def test_splitters_outside_key_range(self):
        keys = np.full(10, 50)
        cut = compute_cuts(keys, tied([10, 90]))
        np.testing.assert_array_equal(cuts_to_counts(cut.cuts, 10), [0, 10, 0])

    @pytest.mark.parametrize("rank", [0, 1, 4])
    def test_one_sample_cuts_at_hi(self, rank):
        # A key sampled once (at == of == 1) sends its whole local tie to
        # the splitter's own destination, on every rank: Figure 3a.
        keys = np.sort(np.concatenate([np.arange(20), np.full(50, 7)]))
        cut = compute_cuts(keys, tied([7, 15, 18, 19]), rank)
        hi = np.searchsorted(keys, [7, 15, 18, 19], side="right")
        np.testing.assert_array_equal(cut.cuts, hi)


class TestDuplicatedSplitters:
    def test_figure_3b_naive_piles_on_one_processor(self):
        keys = np.full(100, 7)
        splitters = tied(np.full(4, 7), at=[1, 2, 3, 4], of=5)  # 5 processors
        cut = compute_cuts_naive(keys, splitters, side="right")
        counts = cuts_to_counts(cut.cuts, 100)
        assert counts.max() == 100  # everything to one destination

    def test_figure_3c_equal_division(self):
        # The paper's equal division is the all-tie case of the rule: 4
        # splitters at 1/5 .. 4/5 of the tie carve it into 5 equal pieces.
        keys = np.full(100, 7)
        cut = compute_cuts(keys, tied(np.full(4, 7), at=[1, 2, 3, 4], of=5))
        np.testing.assert_array_equal(cuts_to_counts(cut.cuts, 100), [20, 20, 20, 20, 20])

    def test_uneven_division_differs_by_at_most_one(self):
        # 10 tied keys, splitters at 1/4, 2/4, 3/4 of the tie: rank r cuts
        # at ⌊10·at/4 + r/4⌋, so rank 0 keeps 2, 3, 2, 3 and rank 3 3, 2, 3, 2.
        keys = np.full(10, 3)
        splitters = tied(np.full(3, 3), at=[1, 2, 3], of=4)
        counts = [cuts_to_counts(compute_cuts(keys, splitters, r).cuts, 10) for r in range(4)]
        assert all(c.max() - c.min() <= 1 for c in counts)
        np.testing.assert_array_equal(counts[0], [2, 3, 2, 3])
        np.testing.assert_array_equal(counts[1], [2, 3, 2, 3])
        np.testing.assert_array_equal(counts[2], [3, 2, 3, 2])
        np.testing.assert_array_equal(counts[3], [3, 2, 3, 2])

    def test_p_equal_ties_split_exactly(self):
        # Every rank holds the same tie; by Hermite's identity the ranks'
        # rounding adds up to the exact quantile: 4 x 10 keys in 4 x 10.
        p, keys = 4, np.full(10, 7)
        splitters = tied(np.full(3, 7), at=[1, 2, 3], of=4)
        total = sum(cuts_to_counts(compute_cuts(keys, splitters, r).cuts, 10) for r in range(p))
        np.testing.assert_array_equal(total, [10, 10, 10, 10])

    def test_mixed_duplicate_groups(self):
        # keys: 60 copies of 1, then 40 larger values; splitters duplicated
        # at 1 (1/3 and 2/3 of its samples): the 60 tied keys split into
        # 3 pieces over procs 0-2.
        keys = np.sort(np.concatenate([np.full(60, 1), np.arange(10, 50)]))
        splitters = tied([1, 1, 30], at=[1, 2, 1], of=[3, 3, 1])
        cut = compute_cuts(keys, splitters)
        counts = cuts_to_counts(cut.cuts, len(keys))
        # Proc 2 takes keys in (1, 30] = values 10..30 inclusive (21 keys).
        np.testing.assert_array_equal(counts, [20, 20, 41, 19])

    def test_tie_cut_where_its_splitter_sits(self):
        # One splitter at 2/3 of the tie: the first destination keeps two
        # thirds of it, not the half an equal division would give.
        keys = np.sort(np.concatenate([np.full(60, 1), np.arange(10, 50)]))
        cut = compute_cuts(keys, tied([1, 30], at=[2, 1], of=[3, 1]))
        np.testing.assert_array_equal(cuts_to_counts(cut.cuts, len(keys)), [40, 41, 19])

    def test_searches_only_for_distinct_values(self):
        keys = np.arange(100)
        splitters = tied([10, 10, 10, 50], at=[1, 2, 3, 1], of=[3, 3, 3, 1])
        dup = compute_cuts(keys, splitters)
        # 2 distinct values -> 2 left + 2 right bisections.
        assert dup.searches == 4
        naive = compute_cuts_naive(keys, splitters)
        assert naive.searches == 4  # one per splitter

    def test_duplicates_not_present_locally(self):
        # Duplicated splitter value absent from this processor's data: the
        # tied range is empty, cuts collapse to the same point.
        keys = np.array([1, 2, 8, 9])
        cut = compute_cuts(keys, tied([5, 5, 5], at=[1, 2, 3], of=3), rank=2)
        np.testing.assert_array_equal(cut.cuts, [2, 2, 2])
        np.testing.assert_array_equal(cuts_to_counts(cut.cuts, 4), [2, 0, 0, 2])


class TestCutHelpers:
    def test_counts_roundtrip_slices(self):
        cuts = np.array([3, 3, 7])
        slices = slices_from_cuts(cuts, 10)
        assert slices == [slice(0, 3), slice(3, 3), slice(3, 7), slice(7, 10)]
        np.testing.assert_array_equal(cuts_to_counts(cuts, 10), [3, 0, 4, 3])

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            cuts_to_counts(np.array([5, 3]), 10)  # decreasing
        with pytest.raises(ValueError):
            cuts_to_counts(np.array([3, 12]), 10)  # beyond n


@st.composite
def keys_and_splitters(draw):
    """A rank's sorted keys and step 3's splitters from drawn samples."""
    keys = draw(
        st.lists(st.integers(0, 20), min_size=0, max_size=200).map(
            lambda xs: np.sort(np.array(xs, dtype=np.int64))
        )
    )
    p = draw(st.integers(2, 12))
    samples = draw(st.lists(st.integers(0, 20), min_size=1, max_size=60))
    splitters = select_splitters(merge_samples([np.array(samples, dtype=np.int64)]), p)
    return keys, splitters, draw(st.integers(0, p - 1))


class TestCutProperties:
    @given(keys_and_splitters())
    @settings(max_examples=100, deadline=None)
    def test_cuts_monotone_and_complete(self, data):
        keys, splitters, rank = data
        for cut in (compute_cuts(keys, splitters, rank), compute_cuts_naive(keys, splitters)):
            assert len(cut.cuts) == len(splitters)
            assert np.all(np.diff(cut.cuts) >= 0)
            counts = cuts_to_counts(cut.cuts, len(keys))
            assert counts.sum() == len(keys)
            assert np.all(counts >= 0)

    @given(keys_and_splitters())
    @settings(max_examples=100, deadline=None)
    def test_routing_respects_splitter_order(self, data):
        """Keys routed to processor j must be <= any key routed to j+1
        (weak ordering across destinations)."""
        keys, splitters, rank = data
        cut = compute_cuts(keys, splitters, rank)
        slices = slices_from_cuts(cut.cuts, len(keys))
        prev_max = None
        for sl in slices:
            part = keys[sl]
            if len(part) == 0:
                continue
            if prev_max is not None:
                assert part[0] >= prev_max
            prev_max = part[-1]

    @given(keys_and_splitters())
    @settings(max_examples=100, deadline=None)
    def test_tied_ranges_cut_by_the_rule(self, data):
        """Every splitter cuts its key's local range [lo, hi) at
        lo + ⌊(hi − lo)·at/of + r/p⌋, in exact integers."""
        keys, splitters, rank = data
        p = len(splitters) + 1
        cuts = compute_cuts(keys, splitters, rank).cuts
        for cut, (key, at, of) in zip(cuts.tolist(), splitters.tolist()):
            lo = int(np.searchsorted(keys, key, side="left"))
            hi = int(np.searchsorted(keys, key, side="right"))
            assert cut == rule(lo, hi, at, of, p, rank)

    @given(st.integers(0, 500), st.integers(1, 40), st.integers(2, 16), st.data())
    @settings(max_examples=100, deadline=None)
    def test_equal_ties_add_up_to_the_quantile(self, t, of, p, data):
        """p ranks each holding the same t-key tie send ⌊p·t·at/of⌋ of its
        keys at or below the splitter, together (Hermite's identity)."""
        at = data.draw(st.integers(1, of))
        keys = np.full(t, 5)
        total = sum(int(compute_cuts(keys, tied([5] * (p - 1), at, of), r).cuts[0]) for r in range(p))
        assert total == (p * t * at) // of

"""Tests for the distributed verification program and the balance bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import distributed_sort
from repro.core.local_backend import local_sample_sort
from repro.core.sorter import SortOptions
from repro.core.verify import max_partition_bound, summarize_input, verify_distributed


class TestVerifyDistributed:
    def test_valid_sorted_blocks(self):
        blocks = [np.array([1, 2, 3]), np.array([3, 4]), np.array([5, 9])]
        report = verify_distributed(blocks)
        assert report.ok
        assert report.total_keys == 7
        assert report.min_key == 1 and report.max_key == 9

    def test_detects_local_disorder(self):
        blocks = [np.array([2, 1]), np.array([3, 4])]
        report = verify_distributed(blocks)
        assert not report.locally_sorted
        assert not report.ok

    def test_detects_boundary_violation(self):
        blocks = [np.array([1, 9]), np.array([5, 6])]
        report = verify_distributed(blocks)
        assert report.locally_sorted
        assert not report.boundaries_ordered
        assert not report.ok

    def test_empty_middle_processor_does_not_mask_violation(self):
        blocks = [np.array([1, 9]), np.array([]), np.array([5, 6])]
        report = verify_distributed(blocks)
        assert not report.boundaries_ordered

    def test_empty_middle_processor_valid_case(self):
        blocks = [np.array([1, 2]), np.array([]), np.array([3, 4])]
        report = verify_distributed(blocks)
        assert report.ok

    def test_all_empty(self):
        report = verify_distributed([np.array([]), np.array([])])
        assert report.ok
        assert report.total_keys == 0

    def test_single_processor(self):
        report = verify_distributed([np.array([1, 1, 2])])
        assert report.ok

    def test_block_count_mismatch(self):
        from repro.pgxd import PgxdRuntime

        with pytest.raises(ValueError):
            verify_distributed([np.array([1])], runtime=PgxdRuntime(3))


class TestMultisetInvariants:
    def test_sort_output_matches_input_summary(self):
        data = np.random.default_rng(0).integers(0, 1000, 20_000)
        result = distributed_sort(data, num_processors=6)
        report = verify_distributed(result.per_processor)
        assert report.ok
        assert report.matches_input(summarize_input(data))

    def test_lost_key_detected(self):
        data = np.random.default_rng(1).integers(0, 1000, 1000)
        reference = summarize_input(data)
        tampered = np.sort(data)[:-1]  # drop one key
        report = verify_distributed([tampered[:500], tampered[500:]])
        assert report.ok  # still sorted...
        assert not report.matches_input(reference)  # ...but not the input

    def test_substituted_key_detected(self):
        data = np.random.default_rng(2).integers(0, 1000, 1000)
        reference = summarize_input(data)
        tampered = np.sort(data).copy()
        tampered[500] = tampered[499]  # duplicate one, lose another
        report = verify_distributed([tampered[:500], tampered[500:]])
        assert not report.matches_input(reference)

    def test_checksum_order_independent(self):
        data = np.random.default_rng(3).integers(0, 10**6, 5000)
        shuffled = np.random.default_rng(4).permutation(data)
        assert summarize_input(data).checksum == summarize_input(shuffled).checksum

    @given(st.lists(st.integers(-10**6, 10**6), max_size=800), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_sorted_output_always_verifies(self, xs, p):
        data = np.array(xs, dtype=np.int64)
        result = distributed_sort(data, num_processors=p)
        report = verify_distributed(result.per_processor)
        assert report.ok
        assert report.matches_input(summarize_input(data))


class TestMaxPartitionBound:
    def test_one_processor_holds_everything(self):
        assert max_partition_bound([100, 50], [9, 4], 1) == 150

    def test_equal_blocks_leave_a_few_sample_gaps(self):
        # Gaps of w = 100/10 = 10: (18//2 + 1)·10 + 2·10 + 2·2 - 1 = 123,
        # a strict bound, so 122 keys at most against a fair share of 100.
        assert max_partition_bound([100, 100], [9, 9], 2) == 122

    def test_every_key_sampled_is_nearly_exact(self):
        # w = 1000/1001 < 1: the slack is about 3p keys over n/p.
        bound = max_partition_bound([1000] * 4, [1000] * 4, 4)
        assert 1000 < bound <= 1000 + 3 * 4

    def test_never_above_all_keys(self):
        assert max_partition_bound([5, 0, 0], [1, 0, 0], 3) == 5
        assert max_partition_bound([0, 0], [0, 0], 2) == 0

    def test_one_sample_count_per_block(self):
        with pytest.raises(ValueError):
            max_partition_bound([10, 10], [3], 2)

    @given(
        st.lists(
            st.lists(st.integers(0, 6), min_size=0, max_size=300), min_size=1, max_size=9
        ),
        st.sampled_from([0.0005, 0.002, 0.01, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_uneven_blocks_and_sparse_samples_stay_within(self, assert_balanced, lists, factor):
        """Blocks of any lengths over a seven-value domain, sampled sparsely
        or fully: no partition exceeds the bound."""
        blocks = [np.array(xs, dtype=np.int64) for xs in lists]
        out = local_sample_sort(blocks, SortOptions(sample_factor=factor))
        assert_balanced(out.per_processor, blocks, factor)

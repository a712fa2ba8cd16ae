"""Tests for steps 2-3: regular sampling and splitter selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import merge_samples, sample_count, select_regular_samples, select_splitters
from repro.pgxd import READ_BUFFER_BYTES, PgxdConfig


class TestSampleCount:
    def test_paper_budget(self):
        cfg = PgxdConfig()
        # 256KB / 8 procs / 8-byte keys = 4096 samples.
        assert sample_count(cfg, 8, 8) == READ_BUFFER_BYTES // 8 // 8

    def test_scales_inversely_with_processors(self):
        cfg = PgxdConfig()
        assert sample_count(cfg, 16, 8) < sample_count(cfg, 8, 8)

    def test_sample_factor_scales_budget(self):
        cfg = PgxdConfig()
        base = sample_count(cfg, 8, 8)
        assert sample_count(cfg, 8, 8, sample_factor=0.5) == base // 2
        assert sample_count(cfg, 8, 8, sample_factor=1.4) == int(base * 1.4)

    def test_minimum_one_sample(self):
        cfg = PgxdConfig()
        assert sample_count(cfg, 8, 8, sample_factor=1e-9) == 1

    def test_invalid_arguments(self):
        cfg = PgxdConfig()
        with pytest.raises(ValueError):
            sample_count(cfg, 8, 0)
        with pytest.raises(ValueError):
            sample_count(cfg, 8, 8, sample_factor=0)


class TestRegularSamples:
    def test_evenly_spaced(self):
        keys = np.arange(100)
        s = select_regular_samples(keys, 4)
        np.testing.assert_array_equal(s, [20, 40, 60, 80])

    def test_count_respected(self):
        keys = np.arange(1000)
        assert len(select_regular_samples(keys, 37)) == 37

    def test_small_arrays_return_everything(self):
        keys = np.array([1, 2, 3])
        np.testing.assert_array_equal(select_regular_samples(keys, 10), keys)

    def test_empty_and_zero(self):
        assert len(select_regular_samples(np.array([]), 5)) == 0
        assert len(select_regular_samples(np.arange(10), 0)) == 0

    def test_returns_copy(self):
        keys = np.arange(10)
        s = select_regular_samples(keys, 3)
        s[:] = -1
        assert keys[2] == 2

    @given(st.integers(1, 500), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_samples_are_sorted_subset(self, n, count):
        keys = np.sort(np.random.default_rng(n).integers(0, 100, n))
        s = select_regular_samples(keys, count)
        assert np.all(np.diff(s) >= 0)
        assert np.all(np.isin(s, keys))
        assert len(s) == min(count, n)


class TestSplitters:
    def test_merge_samples_sorts(self):
        merged = merge_samples([np.array([3, 1]), np.array([2]), np.array([])])
        np.testing.assert_array_equal(merged, [1, 2, 3])

    def test_merge_empty(self):
        assert len(merge_samples([])) == 0
        assert len(merge_samples([np.array([]), np.array([])])) == 0

    def test_quantile_positions(self):
        samples = np.arange(100)
        s = select_splitters(samples, 4)
        np.testing.assert_array_equal(s["key"], [25, 50, 75])
        # Distinct samples: every splitter is the only one of its key.
        np.testing.assert_array_equal(s["at"], [1, 1, 1])
        np.testing.assert_array_equal(s["of"], [1, 1, 1])

    def test_single_processor_no_splitters(self):
        assert len(select_splitters(np.arange(10), 1)) == 0

    def test_empty_samples_no_splitters(self):
        assert len(select_splitters(np.array([]), 8)) == 0

    def test_fewer_samples_than_processors(self):
        s = select_splitters(np.array([5, 10]), 8)
        assert len(s) == 7
        assert np.all(np.diff(s["key"]) >= 0)

    def test_duplicate_heavy_samples_produce_duplicate_splitters(self):
        # 90% of the sample mass at one value -> most splitters equal it.
        samples = np.sort(np.concatenate([np.full(90, 42), np.arange(10)]))
        s = select_splitters(samples, 10)
        assert np.sum(s["key"] == 42) >= 7

    def test_tied_splitters_carry_their_place_in_the_tie(self):
        # Samples 0..9 then ninety 42s at positions 10..99: the splitter at
        # position m = 10j is the (m + 1 - 10)-th of the 90 tied samples.
        samples = np.sort(np.concatenate([np.full(90, 42), np.arange(10)]))
        s = select_splitters(samples, 10)
        np.testing.assert_array_equal(s["key"], [42] * 9)
        np.testing.assert_array_equal(s["at"], np.arange(1, 10) * 10 + 1 - 10)
        np.testing.assert_array_equal(s["of"], [90] * 9)

    def test_invalid_processor_count(self):
        with pytest.raises(ValueError):
            select_splitters(np.arange(5), 0)

    @given(st.integers(2, 30), st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_splitters_sorted_and_sized(self, p, n):
        samples = np.sort(np.random.default_rng(p * 1000 + n).integers(0, 50, n))
        s = select_splitters(samples, p)
        if n == 0:
            assert len(s) == 0
        else:
            assert len(s) == p - 1
            assert np.all(np.diff(s["key"]) >= 0)
            assert np.all(np.isin(s["key"], samples))
            positions = np.minimum(np.arange(1, p) * n // p, n - 1)
            first = np.searchsorted(samples, s["key"], side="left")
            end = np.searchsorted(samples, s["key"], side="right")
            np.testing.assert_array_equal(s["at"], positions + 1 - first)
            np.testing.assert_array_equal(s["of"], end - first)

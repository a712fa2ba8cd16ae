"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import DistributedSorter, distributed_sort
from repro.core.api import partition_input
from repro.baselines import bitonic_sort, radix_sort, spark_sort_by_key
from repro.pgxd import PgxdRuntime
from repro.workloads import (
    DISTRIBUTIONS,
    block_duplicates,
    generate,
    synthetic_twitter,
    zipf_keys,
)


class TestAllDistributionsAllEngines:
    """Every engine must produce the identical sorted permutation."""

    @pytest.mark.parametrize("kind", sorted(DISTRIBUTIONS))
    def test_engines_agree(self, kind):
        data = generate(kind, 20_000, seed=3)
        expected = np.sort(data)
        pgxd = distributed_sort(data, num_processors=8)
        spark = spark_sort_by_key(data, num_executors=8)
        bitonic = bitonic_sort(data, 8)
        radix = radix_sort(data, 8)
        for result in (pgxd, spark, bitonic, radix):
            np.testing.assert_array_equal(result.to_array(), expected)

    @pytest.mark.parametrize("kind", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("p", [3, 10])
    def test_pgxd_full_pipeline(self, kind, p):
        data = generate(kind, 30_000, seed=p)
        result = distributed_sort(data, num_processors=p)
        assert result.is_globally_sorted()
        assert result.total_keys == len(data)
        np.testing.assert_array_equal(result.to_array(), np.sort(data))
        # Provenance must be a bijection onto the input positions.
        offsets = result.input_offsets
        all_indices = np.concatenate(
            [prov.global_indices(offsets) for prov in result.provenance]
        )
        np.testing.assert_array_equal(np.sort(all_indices), np.arange(len(data)))


class TestDuplicateStress:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: zipf_keys(25_000, 40, exponent=2.0, seed=1),
            lambda: block_duplicates(25_000, 3, seed=2),
            lambda: np.full(25_000, 9),
            lambda: np.concatenate([np.zeros(24_999, dtype=np.int64), np.array([1])]),
        ],
    )
    def test_extreme_duplicates_stay_balanced(self, assert_balanced, maker):
        data = maker()
        result = distributed_sort(data, num_processors=8)
        assert result.is_globally_sorted()
        np.testing.assert_array_equal(result.to_array(), np.sort(data))
        # The investigator keeps regular sampling's balance bound even in
        # degenerate cases: a tie is cut wherever its samples put it.
        assert_balanced(result.per_processor, list(partition_input(data, 8)[0]))

    def test_investigator_vs_naive_across_duplication_levels(self):
        for distinct in (2, 5, 20, 1000):
            data = zipf_keys(30_000, distinct, exponent=1.5, seed=distinct)
            inv = distributed_sort(data, num_processors=8).imbalance()
            naive = distributed_sort(
                data, num_processors=8, investigator=False
            ).imbalance()
            assert inv <= naive * 1.01, f"distinct={distinct}"


class TestTimingConsistency:
    def test_virtual_time_scale_invariant(self):
        """The same modeled configuration must time the same regardless of
        how many real keys carry it."""
        times = []
        for bits in (14, 16):
            n = 1 << bits
            data = generate("uniform", n, seed=0, value_range=1 << 20)
            r = DistributedSorter(
                num_processors=8, data_scale=1_000_000_000 / n
            ).sort(data)
            times.append(r.elapsed_seconds)
        assert times[0] == pytest.approx(times[1], rel=0.15)

    def test_more_processors_faster(self):
        data = generate("uniform", 1 << 16, seed=1, value_range=1 << 20)
        scale = 1e9 / len(data)
        t8 = DistributedSorter(num_processors=8, data_scale=scale).sort(data)
        t32 = DistributedSorter(num_processors=32, data_scale=scale).sort(data)
        assert t32.elapsed_seconds < t8.elapsed_seconds / 2

    def test_more_threads_faster(self):
        data = generate("uniform", 1 << 16, seed=2, value_range=1 << 20)
        scale = 1e9 / len(data)
        t1 = DistributedSorter(
            num_processors=8, threads_per_machine=1, data_scale=scale
        ).sort(data)
        t32 = DistributedSorter(
            num_processors=8, threads_per_machine=32, data_scale=scale
        ).sort(data)
        assert t32.elapsed_seconds < t1.elapsed_seconds / 4

    def test_deterministic_to_the_bit(self):
        data = generate("right-skewed", 1 << 15, seed=3)
        r1 = distributed_sort(data, num_processors=12)
        r2 = distributed_sort(data, num_processors=12)
        assert r1.elapsed_seconds == r2.elapsed_seconds
        assert r1.metrics.remote_bytes == r2.metrics.remote_bytes
        for a, b in zip(r1.per_processor, r2.per_processor):
            np.testing.assert_array_equal(a, b)


class TestGraphPipeline:
    """The paper's end-to-end story: load a graph, sort its data, query."""

    def test_load_then_sort_then_query(self):
        ds = synthetic_twitter(scale=10, edge_factor=8, seed=5)
        runtime = PgxdRuntime(4)
        graphs, ghosts, _ = runtime.load_graph(ds.src, ds.dst, ds.num_vertices)
        # Degrees computed from the distributed CSRs match the generator.
        degrees = np.zeros(ds.num_vertices, dtype=np.int64)
        for g in graphs:
            degrees[g.global_ids] = g.degrees()
        np.testing.assert_array_equal(
            degrees, np.bincount(ds.src, minlength=ds.num_vertices)
        )
        # Sort the per-edge keys and run the paper's analytics.
        keys = ds.edge_keys()
        result = distributed_sort(keys, num_processors=4)
        assert result.is_globally_sorted()
        top = result.top_k(100)
        np.testing.assert_array_equal(top, np.sort(keys)[-100:])
        median_proc, median_idx = result.searchsorted(47.5)
        rank = result.global_index(median_proc, median_idx)
        assert abs(rank - len(keys) / 2) < len(keys) * 0.1

    def test_ghosting_reduces_graph_load_traffic_shape(self):
        ds = synthetic_twitter(scale=9, edge_factor=8, seed=6)
        from repro.pgxd import BlockPartition, count_crossing_edges, select_ghosts

        part = BlockPartition(ds.num_vertices, 4)
        before = count_crossing_edges(ds.src, ds.dst, part)
        sel = select_ghosts(ds.src, ds.dst, part, budget=32)
        # Hub-heavy graphs: a few dozen ghosts kill a large crossing share.
        assert sel.crossing_edges_after < before
        assert sel.reduction > 0.1


class TestHypothesisEndToEnd:
    @given(
        st.lists(st.integers(-1_000_000, 1_000_000), min_size=0, max_size=3000),
        st.integers(1, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_sort_is_identity_on_multiset(self, xs, p):
        data = np.array(xs, dtype=np.int64)
        result = distributed_sort(data, num_processors=p)
        np.testing.assert_array_equal(result.to_array(), np.sort(data))
        assert result.is_globally_sorted()

    @given(
        n=st.integers(1, 1500),
        seed=st.integers(0, 100),
        p=st.integers(1, 8),
        investigator=st.booleans(),
    )
    # Key 32 straddles the splitter between ranks 4 and 5, so the
    # investigator splits its tie out of input order (TestStabilitySemantics).
    @example(n=11, seed=23, p=6, investigator=True)
    @settings(max_examples=15, deadline=None)
    def test_gather_values_matches_argsort(self, oracle_order, n, seed, p, investigator):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 50, n)
        payload = rng.random(n)
        result = distributed_sort(keys, num_processors=p, investigator=investigator)
        order = np.concatenate(
            [prov.global_indices(result.input_offsets) for prov in result.provenance]
        )
        np.testing.assert_array_equal(np.sort(order), np.arange(n))
        np.testing.assert_array_equal(keys[order], np.sort(keys))
        # Stable only without the investigator; with it, the gather follows
        # provenance, in exactly the oracle's order.
        expected = oracle_order(keys, p) if investigator else np.argsort(keys, kind="stable")
        np.testing.assert_array_equal(order, expected)
        np.testing.assert_array_equal(result.gather_values(payload), payload[expected])


class TestStabilitySemantics:
    """Stability of the distributed sort, documented precisely:

    * with ``investigator=False`` the sort is *stable* (equal keys keep
      their original global order: runs arrive source-major and every
      merge prefers earlier runs);
    * with the investigator ON, every tie a splitter falls in (any key
      sampled more than once, where a splitter lands inside its samples)
      is deliberately cut across processors for balance, which sacrifices
      global stability (any tie-splitting scheme must): each destination
      holds its piece of the tie source-major, so the output order is
      deterministic — the oracle's — but not the input order.
    """

    def test_stable_without_investigator(self):
        rng = np.random.default_rng(40)
        keys = rng.integers(0, 30, 8000)  # heavy ties
        result = distributed_sort(keys, num_processors=6, investigator=False)
        order = np.concatenate(
            [
                prov.global_indices(result.input_offsets)
                for prov in result.provenance
            ]
        )
        expected = np.argsort(keys, kind="stable")
        np.testing.assert_array_equal(order, expected)

    def test_investigator_trades_stability_for_balance(self, assert_balanced):
        keys = np.full(8000, 7)
        stable = distributed_sort(keys, num_processors=6, investigator=False)
        balanced = distributed_sort(keys, num_processors=6)
        assert stable.imbalance() > 3.0  # everything on one processor
        assert_balanced(balanced.per_processor, list(partition_input(keys, 6)[0]))

"""Faulted simnet sorts: wire faults cost time, a kill retries the job,
a rank that keeps dying (``poison=``) is dropped, and every key comes back."""

import numpy as np
import pytest

from repro.core.api import DistributedSorter, distributed_sort, partition_input
from repro.core.local_backend import local_sample_sort
from repro.faults import FaultPlan
from repro.simnet import DeadlockError


def _assert_every_key_back(res, data, survivors):
    assert res.survivors == survivors
    assert res.is_globally_sorted()
    assert np.array_equal(res.to_array(), np.sort(data))
    assert np.array_equal(res.gather_values(data), res.to_array())


class TestResilientSort:
    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(31).integers(0, 5000, 24_000)

    def test_empty_plan_full_result(self, data):
        res = DistributedSorter(num_processors=6, faults=FaultPlan(seed=30)).sort(data)
        _assert_every_key_back(res, data, None)
        assert res.recovery_rounds == 0

    def test_crash_at_t0_excluded_in_first_round(self, data):
        sorter = DistributedSorter(num_processors=6, faults=FaultPlan.from_spec("poison=4", seed=33))
        res = sorter.sort(data)
        _assert_every_key_back(res, data, (0, 1, 2, 3, 5))
        assert res.recovery_rounds == 1  # crashed twice, then re-planned once
        assert len(res.per_processor[4]) == 0

    def test_mid_run_kill_recovers_at_full_width(self, data):
        plan = FaultPlan.from_spec("kill=2@5-exchange", seed=34)
        res = DistributedSorter(num_processors=6, faults=plan).sort(data)
        _assert_every_key_back(res, data, None)
        assert res.recovery_rounds == 0
        assert [m.retries for m in res.metrics.processes] == [0, 0, 1, 0, 0, 0]
        clean = DistributedSorter(num_processors=6).sort(data)
        for got, want in zip(res.per_processor, clean.per_processor):
            assert got.tobytes() == want.tobytes()

    def test_coordinator_crash_fails_over(self, data):
        sorter = DistributedSorter(num_processors=6, faults=FaultPlan.from_spec("poison=0", seed=35))
        res = sorter.sort(data)
        _assert_every_key_back(res, data, (1, 2, 3, 4, 5))
        assert res.metrics.processes[0].crashed

    def test_provenance_under_drops(self, data):
        res = DistributedSorter(num_processors=6, faults=FaultPlan(seed=36, drop_prob=0.05)).sort(data)
        _assert_every_key_back(res, data, None)
        clean = DistributedSorter(num_processors=6).sort(data)
        for got, want in zip(res.provenance, clean.provenance):
            assert got.origin_proc.tobytes() == want.origin_proc.tobytes()
            assert got.origin_index.tobytes() == want.origin_index.tobytes()

    def test_retry_cap_exhaustion_is_typed(self, data):
        # 100% drop: every retransmission is lost too, so each attempt
        # deadlocks; the job ends in that typed error, never a hang.
        sorter = DistributedSorter(num_processors=4, faults=FaultPlan(seed=37, drop_prob=1.0))
        with pytest.raises(DeadlockError):
            sorter.sort(np.arange(4000))

    def test_empty_run_from_a_survivor_keeps_int32(self):
        # Rank 3 holds only keys above everything else and rank 1 never
        # starts: the survivors re-plan the whole input, and their merges
        # see empty runs next to real ones.
        rng = np.random.default_rng(39)
        blocks = [rng.integers(0, 1000, 4000) for _ in range(3)]
        blocks.append(np.full(5, 10**9) + np.arange(5))
        sorter = DistributedSorter(num_processors=4, faults=FaultPlan.from_spec("poison=1", seed=39))
        res = sorter.sort_partitioned(blocks)
        data = np.concatenate(blocks)
        _assert_every_key_back(res, data, (0, 2, 3))
        assert res.counts_matrix[1].sum() == res.counts_matrix[:, 1].sum() == 0
        reference = local_sample_sort(list(partition_input(data, 3)[0]))
        ranks = np.asarray(res.survivors, dtype=np.int16)
        for slot, rank in enumerate(res.survivors):
            prov, ref_prov = res.provenance[rank], reference.provenance[slot]
            assert res.per_processor[rank].tobytes() == reference.per_processor[slot].tobytes()
            assert prov.origin_index.dtype == np.int32
            assert prov.origin_index.tobytes() == ref_prov.origin_index.tobytes()
            assert prov.origin_proc.tobytes() == ranks[ref_prov.origin_proc].tobytes()

    def test_single_rank_ignores_faults(self):
        data = np.random.default_rng(38).integers(0, 100, 1000)
        res = distributed_sort(data, num_processors=1, faults=FaultPlan(seed=38))
        assert np.array_equal(res.to_array(), np.sort(data))

"""Reliable transport + resilient sort: retries, dedup, crashes, typed errors."""

import numpy as np
import pytest

from repro.core.api import DistributedSorter, distributed_sort, partition_input
from repro.simnet import (
    ExchangeTimeoutError,
    FaultPlan,
    NetworkModel,
    ReliableComm,
    ResilienceConfig,
    Simulator,
)


def make_sim(n=2, plan=None):
    net = NetworkModel(latency=1e-5, per_message_overhead=0.0, bandwidth=1e9)
    return Simulator(n, net, faults=plan)


def _run_pair(plan, config, n_messages=20, receiver_extra=None):
    """Rank 0 reliably sends n messages to rank 1, which collects them."""
    sim = make_sim(plan=plan)

    def sender(proc):
        rc = ReliableComm(proc, config)
        for i in range(n_messages):
            yield from rc.send(1, "data", i, round_no=0)
        yield from rc.flush()
        return rc

    def receiver(proc):
        # Keeps servicing past full collection: the sender may still be
        # retrying messages whose *acks* were dropped.
        rc = ReliableComm(proc, config)
        got = []
        for _ in range(800):
            if (yield from rc.step()):
                got.extend(env.payload for env in rc.take())
        return got

    sim.add_process(sender, rank=0)
    sim.add_process(receiver, rank=1)
    metrics = sim.run()
    return sim.result(0), sim.result(1), metrics


class TestReliableComm:
    CONFIG = ResilienceConfig(ack_timeout=1e-4, poll_interval=2e-5)

    def test_clean_channel_delivers_in_order(self):
        _, got, metrics = _run_pair(None, self.CONFIG)
        assert got == list(range(20))
        assert metrics.processes[0].retries == 0

    def test_drops_recovered_by_retransmission(self):
        plan = FaultPlan(seed=21, drop_prob=0.3)
        _, got, metrics = _run_pair(plan, self.CONFIG)
        assert sorted(got) == list(range(20))
        assert metrics.processes[0].retries > 0

    def test_duplicates_are_deduplicated(self):
        plan = FaultPlan(seed=22, dup_prob=1.0)
        _, got, _ = _run_pair(plan, self.CONFIG)
        assert sorted(got) == list(range(20))  # exactly once each

    def test_reorder_tolerated(self):
        plan = FaultPlan(seed=23, reorder_prob=0.5, reorder_delay=3e-5)
        _, got, _ = _run_pair(plan, self.CONFIG)
        assert sorted(got) == list(range(20))

    def test_total_loss_raises_typed_timeout(self):
        plan = FaultPlan(seed=24, drop_prob=1.0)
        config = ResilienceConfig(
            ack_timeout=1e-4, poll_interval=2e-5, max_retries=3
        )
        sim = make_sim(plan=plan)

        def sender(proc):
            rc = ReliableComm(proc, config)
            yield from rc.send(1, "data", "doomed", round_no=0)
            yield from rc.flush()

        def receiver(proc):
            rc = ReliableComm(proc, config)
            for _ in range(200):
                yield from rc.step()
            return rc.take()

        sim.add_process(sender, rank=0)
        sim.add_process(receiver, rank=1)
        from repro.simnet import ProcessFailure

        with pytest.raises(ProcessFailure) as info:
            sim.run()
        original = info.value.original
        assert isinstance(original, ExchangeTimeoutError)
        assert original.failures and original.failures[0]["dst"] == 1
        assert "attempt" in str(original)

    def test_zero_ack_timeout_lossless_still_delivers(self):
        # ack_timeout=0 makes every pending due immediately; the drain-first
        # step ordering still cancels retries once acks arrive, and
        # poll_interval keeps virtual time advancing.
        config = ResilienceConfig(ack_timeout=0.0, poll_interval=1e-5, max_retries=8)
        _, got, _ = _run_pair(None, config, n_messages=10)
        assert sorted(got) == list(range(10))

    def test_zero_timeout_raises_not_hangs(self):
        plan = FaultPlan(seed=25, drop_prob=1.0)
        config = ResilienceConfig(ack_timeout=0.0, poll_interval=1e-5, max_retries=4)
        sim = make_sim(plan=plan)

        def sender(proc):
            rc = ReliableComm(proc, config)
            yield from rc.send(1, "data", 0, round_no=0)
            yield from rc.flush()

        def receiver(proc):
            rc = ReliableComm(proc, config)
            for _ in range(50):
                yield from rc.step()

        sim.add_process(sender, rank=0)
        sim.add_process(receiver, rank=1)
        from repro.simnet import ProcessFailure

        with pytest.raises(ProcessFailure) as info:
            sim.run()
        assert isinstance(info.value.original, ExchangeTimeoutError)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ResilienceConfig(poll_interval=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(backoff=0.5)
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)

    def test_backoff_spaces_retransmits(self):
        plan = FaultPlan(seed=26, drop_prob=1.0)
        config = ResilienceConfig(
            ack_timeout=1e-4, backoff=2.0, poll_interval=1e-5, max_retries=5
        )
        sim = make_sim(plan=plan)

        def sender(proc):
            rc = ReliableComm(proc, config)
            yield from rc.send(1, "data", 0, round_no=0)
            while 1 not in rc.dead:
                yield from rc.step()
            return proc.metrics.retries

        def receiver(proc):
            rc = ReliableComm(proc, config)
            for _ in range(300):
                yield from rc.step()

        sim.add_process(sender, rank=0)
        sim.add_process(receiver, rank=1)
        sim.run()
        assert sim.result(0) == 5  # exactly max_retries attempts, then dead


RESILIENCE = ResilienceConfig(
    ack_timeout=5e-4, poll_interval=5e-5, phase_timeout=1e-2
)


def _sorted_or_typed(data, p, plan, **kw):
    from repro.simnet.errors import SimError

    sorter = DistributedSorter(
        num_processors=p, faults=plan, resilience=RESILIENCE, **kw
    )
    try:
        return sorter.sort(data)
    except SimError:
        return None


class TestResilientSort:
    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(31).integers(0, 5000, 24_000)

    def test_empty_plan_full_result(self, data):
        res = _sorted_or_typed(data, 6, FaultPlan(seed=30))
        assert res is not None
        assert res.is_globally_sorted()
        assert res.total_keys == len(data)
        assert res.survivors == tuple(range(6))
        assert np.array_equal(res.to_array(), np.sort(data))

    def test_duplicate_only_plan_exact_multiset(self, data):
        res = _sorted_or_typed(data, 6, FaultPlan(seed=32, dup_prob=1.0))
        assert res is not None
        assert np.array_equal(res.to_array(), np.sort(data))

    def test_crash_at_t0_excluded_in_first_round(self, data):
        res = _sorted_or_typed(data, 6, FaultPlan(seed=33, crashes=((4, 0.0),)))
        assert res is not None
        assert res.survivors == (0, 1, 2, 3, 5)
        assert res.recovery_rounds == 0  # never joined, no abort needed
        assert res.is_globally_sorted()
        blocks, _ = partition_input(data, 6)
        expected = np.sort(np.concatenate([blocks[r] for r in res.survivors]))
        assert np.array_equal(res.to_array(), expected)

    def test_mid_run_crash_recovers_with_rounds(self, data):
        res = _sorted_or_typed(data, 6, FaultPlan(seed=34, crashes=((2, 4e-4),)))
        if res is None:
            pytest.skip("crash landed post-commit: typed error path")
        assert res.is_globally_sorted()
        assert 2 not in res.survivors
        assert res.recovery_rounds >= 1

    def test_coordinator_crash_fails_over(self, data):
        res = _sorted_or_typed(data, 6, FaultPlan(seed=35, crashes=((0, 4e-4),)))
        if res is None:
            pytest.skip("crash landed post-commit: typed error path")
        assert res.is_globally_sorted()
        assert 0 not in res.survivors
        assert res.recovery_rounds >= 1

    def test_provenance_under_drops(self, data):
        res = _sorted_or_typed(data, 6, FaultPlan(seed=36, drop_prob=0.05))
        assert res is not None
        assert np.array_equal(
            res.gather_values(data.astype(np.int64)), np.sort(data)
        )

    def test_retry_cap_exhaustion_is_typed(self, data):
        # 100% drop: no protocol message ever arrives; the sort must end in
        # a typed error (ExchangeTimeoutError / MembershipError wrapped in
        # ProcessFailure), never a hang or silent corruption.
        from repro.simnet.errors import SimError

        sorter = DistributedSorter(
            num_processors=4,
            faults=FaultPlan(seed=37, drop_prob=1.0),
            resilience=ResilienceConfig(
                ack_timeout=5e-4,
                poll_interval=5e-5,
                phase_timeout=5e-3,
                max_retries=3,
                max_rounds=2,
            ),
        )
        with pytest.raises(SimError):
            sorter.sort(np.arange(4000))

    def test_empty_run_from_a_survivor_keeps_int32(self):
        # Rank 3's block lies entirely above the last splitter, so it sends
        # empty runs to every other survivor, and rank 1 never joins: the
        # merge sees empty committed streams next to real ones (the route
        # that used to fall into the literal, dtype-widening cascade).
        from repro.core.local_backend import local_sample_sort

        rng = np.random.default_rng(39)
        blocks = [rng.integers(0, 1000, 4000) for _ in range(3)]
        blocks.append(np.full(5, 10**9) + np.arange(5))
        sorter = DistributedSorter(
            num_processors=4,
            faults=FaultPlan(seed=39, crashes=((1, 0.0),)),
            resilience=RESILIENCE,
        )
        res = sorter.sort_partitioned(blocks)
        assert res.survivors == (0, 2, 3)
        assert res.counts_matrix[3, 0] == 0 and res.counts_matrix[3, 2] == 0
        reference = local_sample_sort([blocks[r] for r in res.survivors])
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

"""Fault-injection substrate: plan parsing, engine semantics, determinism."""

import numpy as np
import pytest

from repro.simnet import (
    Compute,
    FaultPlan,
    Isend,
    NetworkModel,
    Now,
    Recv,
    Simulator,
    Sleep,
    active_fault_plan,
    inject_faults,
)


def make_sim(n=2, plan=None, **net_kwargs):
    defaults = dict(latency=1e-3, per_message_overhead=0.0, bandwidth=1e6)
    defaults.update(net_kwargs)
    return Simulator(n, NetworkModel(**defaults), faults=plan)


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(dup_delay=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(crashes=((-1, 0.0),))
        with pytest.raises(ValueError):
            FaultPlan(slow=((0, 0.0),))
        with pytest.raises(ValueError):
            FaultPlan(links=((0, 1, 0.5, 0.0),))

    def test_begin_run_checks_rank_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(crashes=((7, 1.0),)).begin_run(4)
        with pytest.raises(ValueError):
            FaultPlan(slow=((4, 2.0),)).begin_run(4)

    def test_from_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "drop=0.05,dup=0.01:1e-4,reorder=0.1,delay=0.02:5e-4,"
            "crash=3@0.01,slow=2x1.5,link=0-1:2.0:1e-5",
            seed=9,
        )
        assert plan.seed == 9
        assert plan.drop_prob == 0.05
        assert plan.dup_prob == 0.01 and plan.dup_delay == 1e-4
        assert plan.reorder_prob == 0.1
        assert plan.delay_prob == 0.02 and plan.delay_spike == 5e-4
        assert plan.crashes == ((3, 0.01),)
        assert plan.slow == ((2, 1.5),)
        assert plan.links == ((0, 1, 2.0, 1e-5),)

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec("drop")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("bogus=1")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("crash=3")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("drop=0.1:2")

    @pytest.mark.parametrize(
        "spec",
        [
            "drop=0.05",
            "dup=0.01:0.0001",
            "reorder=0.1",
            "delay=0.02:0.0005",
            "crash=3@0.01",
            "slow=2x1.5",
            "link=0-1:4.0:1e-05",
        ],
    )
    def test_describe_prints_a_spec_that_parses_back(self, spec):
        plan = FaultPlan.from_spec(spec, seed=9)
        head, _, body = plan.describe()[:-1].partition(", ")
        assert head == "FaultPlan(seed=9"
        assert FaultPlan.from_spec(body, seed=9) == plan

    @pytest.mark.parametrize(
        "token,complaint",
        [
            ("frob=1", "unknown fault spec key 'frob'"),
            ("slow", "fault spec token 'slow' is not key=value"),
            ("slow=3", "fault spec slow wants RANKxMULT, got '3'"),
        ],
        ids=["unknown-key", "no-equals", "wrong-shape"],
    )
    def test_both_plans_reject_a_bad_token_alike(self, token, complaint):
        from repro.parallel import RealFaultPlan

        for plan in (FaultPlan, RealFaultPlan):
            with pytest.raises(ValueError) as excinfo:
                plan.from_spec(f"slow=1x2,{token}")
            assert complaint in str(excinfo.value)

    def test_describe_mentions_active_classes(self):
        text = FaultPlan(seed=4, drop_prob=0.1, crashes=((1, 0.5),)).describe()
        assert "drop=0.1" in text and "crash=1@0.5" in text and "seed=4" in text

    def test_plans_are_hashable(self):
        assert hash(FaultPlan(drop_prob=0.1)) == hash(FaultPlan(drop_prob=0.1))


def _pingpong(plan, n_messages=50):
    """Rank 0 sends n messages to rank 1; returns (received, sim)."""
    sim = make_sim(plan=plan)

    def sender(proc):
        for i in range(n_messages):
            yield Isend(1, nbytes=64, payload=i)
        yield Sleep(1.0)

    def receiver(proc):
        got = []
        deadline = 2.0
        while True:
            now = yield Now()
            if now >= deadline:
                return got
            msg = yield from _try_recv(proc)
            if msg is None:
                yield Sleep(1e-3)
            else:
                got.append(msg.payload)

    def _try_recv(proc):
        from repro.simnet import Probe

        head = yield Probe(blocking=False)
        if head is None:
            return None
        msg = yield Recv(src=head.src)
        return msg

    sim.add_process(sender, rank=0)
    sim.add_process(receiver, rank=1)
    metrics = sim.run()
    return sim.result(1), metrics


class TestEngineFaults:
    def test_drops_lose_messages_and_count(self):
        got, metrics = _pingpong(FaultPlan(seed=1, drop_prob=0.5))
        assert 0 < len(got) < 50
        assert metrics.processes[0].messages_dropped == 50 - len(got)

    def test_duplicates_deliver_twice_at_engine_level(self):
        got, metrics = _pingpong(FaultPlan(seed=2, dup_prob=1.0))
        # every payload arrives at least twice (duplicate copies are real
        # deliveries; dedup is the reliable layer's job, not the engine's)
        assert len(got) == 100
        assert sorted(set(got)) == list(range(50))
        assert metrics.processes[0].messages_duplicated == 50

    def test_no_faults_on_self_sends(self):
        plan = FaultPlan(seed=3, drop_prob=1.0)
        sim = make_sim(n=1, plan=plan)

        def program(proc):
            yield Isend(0, nbytes=64, payload="x")
            msg = yield Recv()
            return msg.payload

        sim.add_process(program)
        sim.run()
        assert sim.result(0) == "x"

    def test_delay_spike_postpones_delivery(self):
        def run(plan):
            sim = make_sim(plan=plan)

            def sender(proc):
                yield Isend(1, nbytes=64, payload="x")

            def receiver(proc):
                yield Recv()
                return (yield Now())

            sim.add_process(sender, rank=0)
            sim.add_process(receiver, rank=1)
            sim.run()
            return sim.result(1)

        base = run(None)
        spiked = run(FaultPlan(seed=4, delay_prob=1.0, delay_spike=0.5))
        assert spiked >= base + 0.5

    def test_slow_node_multiplies_compute(self):
        plan = FaultPlan(seed=5, slow=((0, 3.0),))
        sim = make_sim(n=1, plan=plan)

        def program(proc):
            yield Compute(1.0)
            return (yield Now())

        sim.add_process(program)
        sim.run()
        assert sim.result(0) == pytest.approx(3.0)

    def test_link_degradation_slows_one_direction(self):
        def one_way(src, dst, plan):
            sim = make_sim(plan=plan)

            def sender(proc):
                yield Isend(dst, nbytes=1000, payload="x")

            def receiver(proc):
                yield Recv()
                return (yield Now())

            sim.add_process(sender if True else None, rank=src)
            sim.add_process(receiver, rank=dst)
            sim.run()
            return sim.result(dst)

        plan = FaultPlan(seed=6, links=((0, 1, 4.0, 0.0),))
        degraded = one_way(0, 1, plan)
        clean = one_way(0, 1, None)
        assert degraded > clean

    def test_crash_stops_rank_and_drops_deliveries(self):
        plan = FaultPlan(seed=7, crashes=((1, 0.5),))
        sim = make_sim(plan=plan)

        def sender(proc):
            yield Sleep(1.0)
            yield Isend(1, nbytes=64, payload="late")
            yield Sleep(1.0)

        def victim(proc):
            yield Sleep(10.0)  # would finish at t=10 if it survived
            return "survived"

        sim.add_process(sender, rank=0)
        sim.add_process(victim, rank=1)
        metrics = sim.run()
        assert sim.result(1) is None
        assert metrics.processes[1].crashed is True
        assert metrics.processes[1].finished_at == pytest.approx(0.5)

    def test_crash_at_t0_preempts_first_step(self):
        plan = FaultPlan(seed=8, crashes=((0, 0.0),))
        sim = make_sim(n=1, plan=plan)

        def program(proc):
            yield Compute(1.0)
            return "ran"

        sim.add_process(program)
        metrics = sim.run()
        assert sim.result(0) is None
        assert metrics.processes[0].crashed is True
        assert metrics.makespan == 0.0


class TestDeterminism:
    def _trace(self, seed):
        got, metrics = _pingpong(FaultPlan(seed=seed, drop_prob=0.3, dup_prob=0.2))
        m = metrics.processes[0]
        return (tuple(got), m.messages_dropped, m.messages_duplicated)

    def test_same_seed_same_fault_sequence(self):
        assert self._trace(11) == self._trace(11)

    def test_different_seed_different_sequence(self):
        assert self._trace(11) != self._trace(12)


class TestAmbientScope:
    def test_inject_faults_attaches_to_new_simulators(self):
        plan = FaultPlan(seed=13, drop_prob=1.0)
        assert active_fault_plan() is None
        with inject_faults(plan):
            assert active_fault_plan() is plan
            sim = make_sim()
            assert sim.fault_plan is plan
        assert active_fault_plan() is None
        assert make_sim().fault_plan is None

    def test_explicit_plan_wins_over_ambient(self):
        explicit = FaultPlan(seed=1)
        with inject_faults(FaultPlan(seed=2)):
            sim = make_sim(plan=explicit)
        assert sim.fault_plan is explicit

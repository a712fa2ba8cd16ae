"""The one fault plan: its grammar, its checks, and simnet's engine
semantics and determinism under it."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.faults import (
    MAX_RETRANSMITS,
    RETRANSMIT_DELAY,
    FaultPlan,
    active_fault_plan,
    inject_faults,
)
from repro.simnet import (
    Compute,
    Crash,
    DeadlockError,
    Isend,
    Mark,
    NetworkModel,
    Now,
    RankCrashedError,
    Recv,
    Send,
    Simulator,
    Sleep,
)


def open_step(proc, label):
    """A raw program's step edge, as the sort's: mark the step, and
    fail-stop where the rank's handle says the plan kills it."""
    yield Mark(label)
    if label == proc.kill_step:
        yield Crash()


def make_sim(n=2, plan=None, **net_kwargs):
    defaults = dict(latency=1e-3, per_message_overhead=0.0, bandwidth=1e6)
    defaults.update(net_kwargs)
    with inject_faults(plan) if plan is not None else nullcontext():
        return Simulator(n, NetworkModel(**defaults))


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(delay_spike=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(kills=((None, -1, "5-exchange"),))
        with pytest.raises(ValueError):
            FaultPlan(slow=((0, 0.0),))
        with pytest.raises(ValueError):
            FaultPlan(links=((0, 1, 0.5, 0.0),))

    def test_begin_run_checks_rank_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(kills=((None, 7, "1-local-sort"),)).begin_run(4)
        with pytest.raises(ValueError):
            FaultPlan(slow=((4, 2.0),)).begin_run(4)

    @pytest.mark.parametrize(
        "spec",
        [
            "kill=2@5-exchange",
            "poison=2",
            "hang=2@gather",
            "mute=2",
            "slow=2x1.5",
            "link=0-2:2.0",
            "link=2-0:2.0",
        ],
    )
    def test_check_ranks_covers_every_rank_entry(self, spec):
        plan = FaultPlan.from_spec(spec)
        plan.check_ranks(3)
        with pytest.raises(ValueError, match=f"fault spec {spec.split('=')[0]} names rank 2"):
            plan.check_ranks(2)

    @pytest.mark.parametrize(
        "spec,substrate",
        [("hang=0@gather", "simnet"), ("mute=0", "simnet"), ("drop=0.1", "process"), ("link=0-1:2.0", "process")],
    )
    def test_a_key_a_substrate_cannot_realise_is_rejected(self, spec, substrate):
        plan = FaultPlan.from_spec(spec)
        key = spec.split("=")[0]
        with pytest.raises(ValueError, match=f"'{key}' cannot be realised on the {substrate} substrate"):
            plan.check_substrate(substrate)
        other = {"simnet": "process", "process": "simnet"}[substrate]
        plan.check_substrate(other)

    def test_a_link_to_a_missing_rank_is_rejected_on_simnet(self):
        # for_attempt drops an entry whose rank has no slot, so the check
        # must come before attempt 0 — here, the sorter's.
        from repro.core.api import DistributedSorter

        sorter = DistributedSorter(num_processors=2, faults=FaultPlan(links=((0, 9, 4.0, 0.0),)))
        with pytest.raises(ValueError, match="fault spec link names rank 9"):
            sorter.sort(np.arange(100))
        with pytest.raises(ValueError, match="'hang' cannot be realised on the simnet substrate"):
            DistributedSorter(num_processors=2, faults=FaultPlan.from_spec("hang=0@gather")).sort(np.arange(100))

    def test_from_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "drop=0.05,delay=0.02:5e-4,kill=3@5:1,poison=1,hang=0@bcast,mute=2,"
            "slow=2x1.5,link=0-1:2.0:1e-5",
            seed=9,
        )
        assert plan.seed == 9
        assert plan.drop_prob == 0.05
        assert plan.delay_prob == 0.02 and plan.delay_spike == 5e-4
        assert plan.kills == ((1, 3, "5-exchange"),)
        assert plan.poisoned == (1,)
        assert plan.hangs == ((None, 0, "bcast"),)
        assert plan.muted == (2,)
        assert plan.slow == ((2, 1.5),)
        assert plan.links == ((0, 1, 2.0, 1e-5),)

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec("drop")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("bogus=1")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("kill=3")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("drop=0.1:2")
        for gone in ("dup=0.1", "reorder=0.1", "crash=3@0.01"):
            with pytest.raises(ValueError, match="unknown fault spec key"):
                FaultPlan.from_spec(gone)

    @pytest.mark.parametrize(
        "spec",
        [
            "drop=0.05",
            "delay=0.02:0.0005",
            "kill=3@5-exchange",
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
    def test_a_bad_token_is_rejected_with_its_complaint(self, token, complaint):
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.from_spec(f"slow=1x2,{token}")
        assert complaint in str(excinfo.value)

    def test_describe_mentions_active_classes(self):
        text = FaultPlan(seed=4, drop_prob=0.1, kills=((None, 1, "2"),)).describe()
        assert "drop=0.1" in text and "kill=1@2-sampling" in text and "seed=4" in text

    def test_plans_are_hashable(self):
        assert hash(FaultPlan(drop_prob=0.1)) == hash(FaultPlan(drop_prob=0.1))

    def test_an_attempt_addresses_ranks_by_original_id(self):
        plan = FaultPlan.from_spec("drop=0.1,poison=3,slow=1x2.0,link=3-4:2.0,link=4-1:3.0", seed=9)
        first = plan.for_attempt(range(5), 0)
        assert (first.poisoned, first.slow, first.links) == (plan.poisoned, plan.slow, plan.links)
        degraded = plan.for_attempt((0, 1, 2, 4), 1)
        assert degraded.poisoned == ()
        assert degraded.links == ((3, 1, 3.0, 0.0),)
        assert degraded.slow == ((1, 2.0),)
        seeds = {plan.for_attempt(range(5), n).seed for n in range(3)}
        assert len(seeds) == 3 and seeds == {plan.for_attempt(range(5), n).seed for n in range(3)}
        assert plan.for_attempt(range(5), 0, job=1).seed not in seeds


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


def _train_sim(plan, n):
    """Rank 0 sends ``n`` messages to rank 1, which receives them in turn
    and returns ``[(payload, arrival time)]``."""
    sim = make_sim(plan=plan)

    def sender(proc):
        for i in range(n):
            yield Isend(1, nbytes=64, payload=i)

    def receiver(proc):
        seen = []
        for _ in range(n):
            msg = yield Recv(src=0)
            seen.append((msg.payload, (yield Now())))
        return seen

    sim.add_process(sender, rank=0)
    sim.add_process(receiver, rank=1)
    return sim


def _train(plan, n):
    sim = _train_sim(plan, n)
    metrics = sim.run()
    return sim.result(1), metrics


class TestEngineFaults:
    def test_drops_lose_messages_and_count(self):
        # A dropped wire copy is resent: every message arrives, in order.
        got, metrics = _pingpong(FaultPlan(seed=1, drop_prob=0.5))
        assert got == list(range(50))
        sender = metrics.processes[0]
        assert sender.messages_dropped > 0 and sender.retries == sender.messages_dropped
        # Once every retransmission drops too, the message is lost for good
        # and a receiver waiting on it deadlocks into a typed error.
        sim = _train_sim(FaultPlan(seed=1, drop_prob=1.0), 1)
        with pytest.raises(DeadlockError):
            sim.run()
        sender = sim.metrics().processes[0]
        assert sender.messages_dropped == MAX_RETRANSMITS + 1
        assert sender.retries == MAX_RETRANSMITS

    def test_a_retransmitted_message_never_overtakes_its_link(self):
        clean, _ = _train(None, 20)
        faulted, _ = _train(FaultPlan(seed=3, drop_prob=0.3, delay_prob=0.3), 20)
        assert [i for i, _ in faulted] == list(range(20))
        assert all(t >= c for (_, t), (_, c) in zip(faulted, clean))
        assert faulted[-1][1] >= clean[-1][1] + RETRANSMIT_DELAY

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
        # A kill fires as the rank opens the step, and ends the run, naming
        # the rank; exchange sub-phase marks and other steps do not fire.
        plan = FaultPlan.from_spec("kill=1@5-exchange", seed=7)
        sim = make_sim(plan=plan)

        def sender(proc):
            yield Sleep(1.0)
            yield Isend(1, nbytes=64, payload="late")
            yield Sleep(1.0)

        def victim(proc):
            yield open_step(proc, "4-partition")
            yield Mark("exchange:send")
            yield Sleep(0.5)
            yield open_step(proc, "5-exchange")
            yield Sleep(10.0)  # would finish at t=10.5 if it survived
            return "survived"

        sim.add_process(sender, rank=0)
        sim.add_process(victim, rank=1)
        with pytest.raises(RankCrashedError) as info:
            sim.run()
        assert (info.value.rank, info.value.at) == (1, 0.5)
        assert sim.result(1) is None
        metrics = sim.metrics()
        assert metrics.processes[1].crashed is True
        assert metrics.processes[1].finished_at == pytest.approx(0.5)
        assert metrics.processes[1].messages_received == 0

    def test_crash_at_t0_preempts_first_step(self):
        # A poisoned rank dies opening step 1, before any compute.
        plan = FaultPlan.from_spec("poison=0", seed=8)
        sim = make_sim(n=1, plan=plan)

        def program(proc):
            yield open_step(proc, "1-local-sort")
            yield Compute(1.0)
            return "ran"

        sim.add_process(program)
        with pytest.raises(RankCrashedError, match="rank 0 crashed"):
            sim.run()
        metrics = sim.metrics()
        assert sim.result(0) is None
        assert metrics.processes[0].crashed is True
        assert metrics.makespan == 0.0


    def test_a_kill_without_step_marks_never_fires(self):
        # Kills are addressed by step label: a program that opens no step
        # runs to completion under them.
        sim = make_sim(n=1, plan=FaultPlan.from_spec("poison=0,kill=0@3"))

        def program(proc):
            yield Mark("phase")
            yield Compute(1.0)
            return "ran"

        sim.add_process(program)
        sim.run()
        assert sim.result(0) == "ran"


class TestDeterminism:
    def _trace(self, seed):
        seen, metrics = _train(FaultPlan(seed=seed, drop_prob=0.3, delay_prob=0.2), 50)
        return tuple(seen), metrics.processes[0].messages_dropped

    def test_same_seed_same_fault_sequence(self):
        assert self._trace(11) == self._trace(11)

    def test_different_seed_different_sequence(self):
        assert self._trace(11) != self._trace(12)


def _two_rank_send():
    """Rank 0 sends rank 1 one message; built in the caller's scopes."""
    sim = make_sim()

    def program(proc):
        if proc.rank == 0:
            yield Send(dst=1, nbytes=8)
        else:
            yield Recv(src=0)

    sim.add_program(program)
    return sim


class TestAmbientScope:
    def test_inject_faults_attaches_to_new_simulators(self):
        """A simulator built in the scope runs under its plan, even after
        the scope closed: every copy of the message drops, so the receiver
        deadlocks.  Built outside it, the same send completes."""
        plan = FaultPlan(seed=13, drop_prob=1.0)
        assert active_fault_plan() is None
        with inject_faults(plan):
            assert active_fault_plan() is plan
            sim = _two_rank_send()
        assert active_fault_plan() is None
        with pytest.raises(DeadlockError):
            sim.run()
        plain = _two_rank_send()
        plain.run()
        assert [m.messages_received for m in plain.metrics().processes] == [0, 1]

    def test_explicit_plan_wins_over_ambient(self):
        """The one precedence rule is nesting: the innermost scope's plan
        attaches, whichever of the two drops every message."""
        lossy, clean = FaultPlan(seed=2, drop_prob=1.0), FaultPlan(seed=1)
        with inject_faults(lossy), inject_faults(clean):
            _two_rank_send().run()
        with inject_faults(clean), inject_faults(lossy):
            sim = _two_rank_send()
        with pytest.raises(DeadlockError):
            sim.run()

"""Unit tests for the discrete-event engine: clock, scheduling, messaging."""

import numpy as np
import pytest

from repro.simnet import (
    Alloc,
    Barrier,
    Compute,
    DeadlockError,
    Free,
    InvalidCallError,
    Isend,
    NetworkModel,
    Now,
    ProcessFailure,
    Recv,
    Send,
    Simulator,
    Sleep,
    UnknownRankError,
)


def make_sim(n=2, **net_kwargs):
    defaults = dict(latency=1e-3, per_message_overhead=0.0, bandwidth=1e6)
    defaults.update(net_kwargs)
    return Simulator(n, NetworkModel(**defaults))


class TestClock:
    def test_compute_advances_virtual_time(self):
        sim = Simulator(1)

        def program(proc):
            yield Compute(2.5, label="work")
            t = yield Now()
            return t

        sim.add_process(program)
        metrics = sim.run()
        assert sim.result(0) == pytest.approx(2.5)
        assert metrics.makespan == pytest.approx(2.5)

    def test_sleep_is_unattributed(self):
        sim = Simulator(1)

        def program(proc):
            yield Sleep(1.0)

        sim.add_process(program)
        metrics = sim.run()
        assert metrics.makespan == pytest.approx(1.0)
        assert metrics.processes[0].busy_seconds() == 0.0

    def test_compute_labels_accumulate(self):
        sim = Simulator(1)

        def program(proc):
            yield Compute(1.0, label="sort")
            yield Compute(2.0, label="sort")
            yield Compute(0.5, label="merge")
            yield Compute(0.25)

        sim.add_process(program)
        metrics = sim.run()
        proc = metrics.processes[0]
        assert proc.phase_seconds["sort"] == pytest.approx(3.0)
        assert proc.phase_seconds["merge"] == pytest.approx(0.5)
        assert proc.other_seconds == pytest.approx(0.25)

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1.0)


class TestMessaging:
    def test_send_recv_payload_roundtrip(self):
        sim = make_sim(2)
        data = np.arange(10)

        def sender(proc):
            yield Send(dst=1, nbytes=data.nbytes, payload=data, tag=7)

        def receiver(proc):
            msg = yield Recv(src=0, tag=7)
            return msg.payload

        sim.add_process(sender)
        sim.add_process(receiver)
        sim.run()
        np.testing.assert_array_equal(sim.result(1), data)

    def test_message_timing_includes_latency_and_bandwidth(self):
        sim = make_sim(2, latency=1e-3, bandwidth=1e6)

        def sender(proc):
            yield Send(dst=1, nbytes=1000, payload=None)

        def receiver(proc):
            yield Recv(src=0)
            t = yield Now()
            return t

        sim.add_process(sender)
        sim.add_process(receiver)
        sim.run()
        # 1000 B at 1 MB/s = 1 ms serialization, + 1 ms latency.
        assert sim.result(1) == pytest.approx(2e-3)

    def test_recv_wildcards(self):
        sim = make_sim(3)

        def sender(proc, tag):
            yield Send(dst=2, nbytes=8, payload=proc.rank, tag=tag)

        def receiver(proc):
            a = yield Recv()
            b = yield Recv()
            return {a.src, b.src}

        sim.add_process(sender, 5)
        sim.add_process(sender, 6)
        sim.add_process(receiver)
        sim.run()
        assert sim.result(2) == {0, 1}

    def test_recv_by_tag_skips_other_messages(self):
        sim = make_sim(2)

        def sender(proc):
            yield Send(dst=1, nbytes=8, payload="first", tag=1)
            yield Send(dst=1, nbytes=8, payload="second", tag=2)

        def receiver(proc):
            m2 = yield Recv(tag=2)
            m1 = yield Recv(tag=1)
            return (m1.payload, m2.payload)

        sim.add_process(sender)
        sim.add_process(receiver)
        sim.run()
        assert sim.result(1) == ("first", "second")

    def test_fifo_order_same_src_same_tag(self):
        sim = make_sim(2)

        def sender(proc):
            for i in range(5):
                yield Send(dst=1, nbytes=8, payload=i, tag=0)

        def receiver(proc):
            out = []
            for _ in range(5):
                msg = yield Recv(src=0, tag=0)
                out.append(msg.payload)
            return out

        sim.add_process(sender)
        sim.add_process(receiver)
        sim.run()
        assert sim.result(1) == [0, 1, 2, 3, 4]

    def test_isend_returns_immediately(self):
        sim = make_sim(2, bandwidth=1.0)  # 1 B/s: blocking send would be slow

        def sender(proc):
            yield Isend(dst=1, nbytes=100, payload="x")
            t = yield Now()
            return t

        def receiver(proc):
            yield Recv(src=0)

        sim.add_process(sender)
        sim.add_process(receiver)
        sim.run()
        assert sim.result(0) < 1.0  # did not wait the 100 s serialization

    def test_self_send(self):
        sim = make_sim(1)

        def program(proc):
            yield Isend(dst=0, nbytes=8, payload="loop")
            msg = yield Recv(src=0)
            return msg.payload

        sim.add_process(program)
        sim.run()
        assert sim.result(0) == "loop"

    def test_send_to_unknown_rank_raises(self):
        sim = make_sim(1)

        def program(proc):
            yield Send(dst=5, nbytes=8, payload=None)

        sim.add_process(program)
        with pytest.raises((ProcessFailure, UnknownRankError)):
            sim.run()

    def test_recv_wait_time_recorded(self):
        sim = make_sim(2, latency=0.0, bandwidth=1e12)

        def sender(proc):
            yield Compute(3.0)
            yield Send(dst=1, nbytes=8, payload=None)

        def receiver(proc):
            yield Recv(src=0)

        sim.add_process(sender)
        sim.add_process(receiver)
        metrics = sim.run()
        assert metrics.processes[1].recv_wait_seconds == pytest.approx(3.0, rel=1e-6)


class TestBarrier:
    def test_barrier_synchronizes(self):
        sim = make_sim(3)

        def program(proc):
            yield Compute(float(proc.rank))
            yield Barrier()
            t = yield Now()
            return t

        sim.add_program(program)
        sim.run()
        assert sim.results() == [pytest.approx(2.0)] * 3

    def test_barrier_wait_attributed_to_early_arrivers(self):
        sim = make_sim(2)

        def fast(proc):
            yield Barrier()

        def slow(proc):
            yield Compute(5.0)
            yield Barrier()

        sim.add_process(fast)
        sim.add_process(slow)
        metrics = sim.run()
        assert metrics.processes[0].barrier_wait_seconds == pytest.approx(5.0)
        assert metrics.processes[1].barrier_wait_seconds == pytest.approx(0.0)

    def test_sequential_barriers(self):
        sim = make_sim(2)

        def program(proc):
            for _ in range(3):
                yield Compute(1.0)
                yield Barrier()
            t = yield Now()
            return t

        sim.add_program(program)
        sim.run()
        assert sim.results() == [pytest.approx(3.0)] * 2


class TestErrors:
    def test_deadlock_detection(self):
        sim = make_sim(1)

        def program(proc):
            yield Recv(src=0)  # nothing will ever arrive

        sim.add_process(program)
        with pytest.raises(DeadlockError) as exc:
            sim.run()
        assert 0 in exc.value.blocked

    def test_partial_barrier_deadlocks(self):
        sim = make_sim(2)

        def joins(proc):
            yield Barrier()

        def never(proc):
            yield Compute(1.0)

        sim.add_process(joins)
        sim.add_process(never)
        with pytest.raises(DeadlockError):
            sim.run()

    def test_program_exception_wrapped(self):
        sim = make_sim(1)

        def program(proc):
            yield Compute(1.0)
            raise RuntimeError("boom")

        sim.add_process(program)
        with pytest.raises(ProcessFailure) as exc:
            sim.run()
        assert exc.value.rank == 0
        assert isinstance(exc.value.original, RuntimeError)

    def test_invalid_yield_rejected(self):
        sim = make_sim(1)

        def program(proc):
            yield "not a call"

        sim.add_process(program)
        with pytest.raises((ProcessFailure, InvalidCallError)):
            sim.run()

    @pytest.mark.parametrize(
        "base,args", [(Isend, (0, 8)), (Recv, ()), (Compute, (1.0,))]
    )
    def test_subclass_of_an_inline_interpreted_call_rejected(self, base, args):
        # Isend/Recv/Compute are matched by exact class in the run loop; a
        # subclass used to fall through to the handler table, where an Isend
        # subclass silently resolved to the *blocking* Send handler.
        class Custom(base):
            pass

        sim = make_sim(1)

        def program(proc):
            yield Custom(*args)

        sim.add_process(program)
        with pytest.raises(ProcessFailure) as excinfo:
            sim.run()
        assert isinstance(excinfo.value.__cause__, InvalidCallError)
        assert base.__name__ in str(excinfo.value.__cause__)

    def test_run_requires_all_ranks(self):
        sim = make_sim(2)

        def program(proc):
            yield Compute(1.0)

        sim.add_process(program)
        with pytest.raises(RuntimeError):
            sim.run()

    def test_run_only_once(self):
        sim = make_sim(1)

        def program(proc):
            yield Compute(0.0)

        sim.add_process(program)
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()

    def test_duplicate_rank_rejected(self):
        sim = make_sim(2)

        def program(proc):
            yield Compute(0.0)

        sim.add_process(program, rank=0)
        with pytest.raises(ValueError):
            sim.add_process(program, rank=0)


class TestMemoryCalls:
    def test_alloc_free_tracked(self):
        sim = make_sim(1)

        def program(proc):
            yield Alloc(1000)
            yield Alloc(500, temporary=True)
            yield Free(500, temporary=True)
            yield Alloc(200)

        sim.add_process(program)
        metrics = sim.run()
        mem = metrics.processes[0].memory
        assert mem.peak_resident == 1200
        assert mem.peak_temporary == 500
        assert mem.temporary == 0

    def test_over_free_raises(self):
        sim = make_sim(1)

        def program(proc):
            yield Free(10)

        sim.add_process(program)
        with pytest.raises(ProcessFailure):
            sim.run()


class TestDeterminism:
    def test_identical_runs_identical_metrics(self):
        def build():
            sim = make_sim(4)

            def program(proc):
                dsts = np.random.default_rng(proc.rank).integers(0, proc.size, 10)
                for i, dst in enumerate(dsts):
                    yield Isend(dst=int(dst), nbytes=64, payload=i, tag=proc.rank)
                got = 0
                for r in range(proc.size):
                    sent_to_me = np.random.default_rng(r).integers(0, proc.size, 10)
                    for _ in range(int(np.sum(sent_to_me == proc.rank))):
                        yield Recv(tag=r)
                        got += 1
                return got

            sim.add_program(program)
            return sim.run()

        m1, m2 = build(), build()
        assert m1.makespan == m2.makespan
        assert m1.remote_bytes == m2.remote_bytes
        assert [p.bytes_sent for p in m1.processes] == [p.bytes_sent for p in m2.processes]


class TestGeneratorTrampoline:
    """Yielding a sub-program generator instead of ``yield from``-ing it.

    The engine drives the child directly and resumes the parent with the
    child's return value — same semantics as delegation, without paying a
    parent stack frame on every child resume.
    """

    def test_child_return_value_resumes_parent(self):
        sim = Simulator(1)

        def child(proc):
            yield Compute(1.0)
            return "from-child"

        def program(proc):
            got = yield child(proc)
            t = yield Now()
            return got, t

        sim.add_process(program)
        sim.run()
        assert sim.result(0) == ("from-child", 1.0)

    def test_nested_children_unwind_in_order(self):
        sim = Simulator(1)

        def grandchild(proc):
            yield Compute(0.5)
            return 1

        def child(proc):
            inner = yield grandchild(proc)
            yield Compute(0.25)
            return inner + 1

        def program(proc):
            value = yield child(proc)
            return value + 1

        sim.add_process(program)
        metrics = sim.run()
        assert sim.result(0) == 3
        assert metrics.makespan == 0.75

    def test_child_exception_lands_at_parent_yield_site(self):
        sim = Simulator(1)

        def child(proc):
            yield Compute(1.0)
            raise RuntimeError("child failed")

        def program(proc):
            try:
                yield child(proc)
            except RuntimeError as exc:
                return f"caught: {exc}"

        sim.add_process(program)
        sim.run()
        assert sim.result(0) == "caught: child failed"

    def test_uncaught_child_exception_fails_the_process(self):
        sim = Simulator(1)

        def child(proc):
            yield Compute(1.0)
            raise RuntimeError("boom")

        def program(proc):
            yield child(proc)

        sim.add_process(program)
        with pytest.raises(ProcessFailure):
            sim.run()

    def test_trampoline_matches_yield_from_times_and_metrics(self):
        def sub(proc, peer):
            yield Isend(dst=peer, nbytes=256, payload=proc.rank, tag=7)
            msg = yield Recv(tag=7)
            yield Compute(0.125)
            return msg.payload

        def run(delegate):
            sim = make_sim(2)

            def program(proc):
                peer = 1 - proc.rank
                if delegate:
                    got = yield from sub(proc, peer)
                else:
                    got = yield sub(proc, peer)
                return got

            sim.add_program(program)
            metrics = sim.run()
            return metrics, [sim.result(r) for r in range(2)]

        m_yield_from, r_yield_from = run(delegate=True)
        m_trampoline, r_trampoline = run(delegate=False)
        assert r_yield_from == r_trampoline == [1, 0]
        assert m_yield_from.makespan == m_trampoline.makespan
        assert [p.send_seconds for p in m_yield_from.processes] == [
            p.send_seconds for p in m_trampoline.processes
        ]

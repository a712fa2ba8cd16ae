"""Tracer recording semantics and engine instrumentation."""

import numpy as np
import pytest

from repro.obs import capture
from repro.obs.events import FlowEvent, SpanEvent
from repro.simnet import (
    Barrier,
    Compute,
    Isend,
    Mark,
    NetworkModel,
    Recv,
    Send,
    Simulator,
)


def run_with_tracer(builder, n=2, **net_kwargs):
    with capture() as cap:
        sim = Simulator(n, NetworkModel(**net_kwargs))
    builder(sim)
    metrics = sim.run()
    return cap.sessions[-1].tracer, metrics


class TestSpanRecording:
    def test_compute_spans(self):
        def build(sim):
            def program(proc):
                yield Compute(1.0, label="sort")
                yield Compute(0.5)

            def other(proc):
                yield Compute(0.25, label="merge")

            sim.add_process(program)
            sim.add_process(other)

        tracer, _ = run_with_tracer(build)
        spans0 = tracer.spans_for(0, "compute")
        assert [(s.start, s.duration, s.label) for s in spans0] == [
            (0.0, 1.0, "sort"),
            (1.0, 0.5, ""),
        ]
        assert tracer.spans_for(1, "compute")[0].label == "merge"

    def test_recv_wait_span_matches_metrics(self):
        def build(sim):
            def sender(proc):
                yield Compute(2.0)
                yield Send(dst=1, nbytes=8, payload=None)

            def receiver(proc):
                yield Recv(src=0)

            sim.add_process(sender)
            sim.add_process(receiver)

        tracer, metrics = run_with_tracer(build, latency=1e-3, per_message_overhead=0.0)
        waits = tracer.spans_for(1, "recv-wait")
        assert len(waits) == 1
        assert waits[0].duration == pytest.approx(
            metrics.processes[1].recv_wait_seconds
        )

    def test_barrier_wait_span(self):
        def build(sim):
            def fast(proc):
                yield Barrier(name="sync")

            def slow(proc):
                yield Compute(3.0)
                yield Barrier(name="sync")

            sim.add_process(fast)
            sim.add_process(slow)

        tracer, _ = run_with_tracer(build)
        waits = tracer.spans_for(0, "barrier-wait")
        assert len(waits) == 1
        assert waits[0].duration == pytest.approx(3.0)
        assert waits[0].label == "sync"

    def test_send_spans_cover_occupancy(self):
        def build(sim):
            def sender(proc):
                yield Send(dst=1, nbytes=1000, payload=None)

            def receiver(proc):
                yield Recv(src=0)

            sim.add_process(sender)
            sim.add_process(receiver)

        tracer, metrics = run_with_tracer(build)
        sends = tracer.spans_for(0, "send")
        assert sum(s.duration for s in sends) == pytest.approx(
            metrics.processes[0].send_seconds
        )


class TestMark:
    def test_begin_end_produces_phase_span(self):
        def build(sim):
            def program(proc):
                yield Mark("step-a")
                yield Compute(1.0)
                yield Mark("step-a", event="end")

            sim.add_program(program)

        tracer, _ = run_with_tracer(build, n=1)
        phases = tracer.phase_spans(0)
        assert len(phases) == 1
        assert phases[0].label == "step-a"
        assert phases[0].duration == pytest.approx(1.0)

    def test_nested_phases_close_innermost(self):
        def build(sim):
            def program(proc):
                yield Mark("outer")
                yield Compute(0.5)
                yield Mark("inner")
                yield Compute(0.25)
                yield Mark("inner", event="end")
                yield Mark("outer", event="end")

            sim.add_program(program)

        tracer, _ = run_with_tracer(build, n=1)
        by_label = {s.label: s for s in tracer.phase_spans(0)}
        assert by_label["inner"].duration == pytest.approx(0.25)
        assert by_label["outer"].duration == pytest.approx(0.75)

    def test_unclosed_phase_closes_at_makespan(self):
        def build(sim):
            def program(proc):
                yield Mark("open-ended")
                yield Compute(2.0)

            sim.add_program(program)

        tracer, metrics = run_with_tracer(build, n=1)
        (phase,) = tracer.phase_spans(0)
        assert phase.end == pytest.approx(metrics.makespan)

    def test_instant_records_zero_duration(self):
        def build(sim):
            def program(proc):
                yield Compute(1.0)
                yield Mark("hit", event="instant")

            sim.add_program(program)

        tracer, _ = run_with_tracer(build, n=1)
        (instant,) = tracer.spans_for(0, "instant")
        assert instant.duration == 0.0
        assert instant.start == pytest.approx(1.0)

    def test_bad_event_rejected(self):
        with pytest.raises(ValueError, match="unknown mark event"):
            Mark("x", event="stop")

    def test_mark_without_tracer_is_noop(self):
        sim = Simulator(1, NetworkModel())

        def program(proc):
            yield Mark("step")
            yield Compute(1.0)
            yield Mark("step", event="end")

        sim.add_program(program)
        metrics = sim.run()
        assert metrics.makespan == pytest.approx(1.0)


class TestFlows:
    def test_flows_have_sequential_ids_and_pairing_data(self):
        def build(sim):
            def sender(proc):
                yield Isend(dst=1, nbytes=100, payload=None, tag=7)
                yield Isend(dst=1, nbytes=200, payload=None, tag=7)

            def receiver(proc):
                yield Recv(tag=7)
                yield Recv(tag=7)

            sim.add_process(sender)
            sim.add_process(receiver)

        tracer, metrics = run_with_tracer(build)
        assert [f.id for f in tracer.flows] == [0, 1]
        assert all(f.src == 0 and f.dst == 1 and f.remote for f in tracer.flows)
        assert [f.nbytes for f in tracer.flows] == [100, 200]
        assert all(f.deliver_t >= f.inject_t for f in tracer.flows)
        assert tracer.flow_bytes() == metrics.remote_bytes

    def test_blocking_send_records_flow(self):
        def build(sim):
            def sender(proc):
                yield Send(dst=1, nbytes=64, payload=None)

            def receiver(proc):
                yield Recv(src=0)

            sim.add_process(sender)
            sim.add_process(receiver)

        tracer, _ = run_with_tracer(build)
        assert len(tracer.flows) == 1

    def test_self_send_is_local(self):
        def build(sim):
            def program(proc):
                yield Isend(dst=0, nbytes=32, payload=None)
                yield Recv(src=0)

            sim.add_program(program)

        tracer, metrics = run_with_tracer(build, n=1)
        (flow,) = tracer.flows
        assert not flow.remote
        assert tracer.remote_flows() == []
        assert tracer.flow_bytes(remote_only=True) == 0
        assert metrics.local_bytes == 32

    def test_bytes_in_flight_counter_returns_to_zero(self):
        def build(sim):
            def sender(proc):
                for _ in range(3):
                    yield Isend(dst=1, nbytes=50, payload=None)

            def receiver(proc):
                for _ in range(3):
                    yield Recv(src=0)

            sim.add_process(sender)
            sim.add_process(receiver)

        tracer, _ = run_with_tracer(build)
        series = [c for c in tracer.counters if c.name == "net.bytes_in_flight"]
        assert series[-1].value == 0.0
        assert max(c.value for c in series) > 0.0


class TestCaptureContext:
    def test_capture_attaches_one_tracer_per_simulator(self):
        def program(proc):
            yield Compute(1.0)

        with capture(name="t") as cap:
            for _ in range(2):
                sim = Simulator(2, NetworkModel())
                sim.add_program(program)
                sim.run()
        assert len(cap.sessions) == 2
        assert [t.name for t in cap.tracers] == ["t#0", "t#1"]
        assert all(t.makespan == pytest.approx(1.0) for t in cap.tracers)

    def test_no_capture_no_tracer(self):
        sim = Simulator(1, NetworkModel())
        assert sim._tracer is None

    def test_captures_nest_innermost_wins(self):
        with capture(name="outer") as outer:
            with capture(name="inner") as inner:
                Simulator(1, NetworkModel())
        assert len(inner.sessions) == 1
        assert outer.sessions == []


class TestGoldenInvariance:
    def test_traced_run_is_bit_identical(self):
        """A traced sort must equal the untraced one, time for time."""
        from repro.core.api import distributed_sort

        data = np.random.default_rng(3).integers(0, 10_000, 8_000).astype(np.int64)
        plain = distributed_sort(data, num_processors=4)
        with capture():
            traced = distributed_sort(data, num_processors=4)
        assert traced.metrics.makespan == plain.metrics.makespan
        assert traced.step_seconds == plain.step_seconds
        assert all(
            np.array_equal(a, b)
            for a, b in zip(traced.per_processor, plain.per_processor)
        )


class TestEventTypes:
    def test_span_end_property(self):
        s = SpanEvent(0, 1.0, 2.5, "compute")
        assert s.end == 3.5

    def test_flow_transit(self):
        f = FlowEvent(0, 1, 2, 0, 100, 1.0, 1.5)
        assert f.transit == pytest.approx(0.5)
        assert f.remote

"""SimSan runtime sanitizer: detection, strict mode, behavior invariance."""

import numpy as np
import pytest

from repro.simnet import (
    Compute,
    Isend,
    Probe,
    Recv,
    SimSan,
    SimSanError,
    Simulator,
    sanitize,
)
from repro.simnet.mpi import mpi_run
from repro.simnet.sanitizer import active_sanitizer, fingerprint


class TestFingerprint:
    def test_ndarray_mutation_changes_digest(self):
        arr = np.arange(16)
        before = fingerprint(arr)
        arr[3] = -1
        assert fingerprint(arr) != before

    def test_nested_container_mutation_changes_digest(self):
        payload = {"runs": [np.arange(4), np.arange(3)], "tag": 7}
        before = fingerprint(payload)
        payload["runs"][0][0] = 99
        assert fingerprint(payload) != before

    def test_equal_content_equal_digest(self):
        assert fingerprint([1, "a", np.zeros(3)]) == fingerprint(
            [1, "a", np.zeros(3)]
        )


class TestUseAfterIsend:
    def test_seeded_use_after_isend_is_caught(self):
        """The acceptance-criteria regression: mutate a posted buffer."""

        def buggy(comm):
            if comm.rank == 0:
                buf = np.arange(64, dtype=np.int64)
                req = yield from comm.isend(buf, dest=1, tag=3)
                buf[0] = 12345  # NIC still owns this buffer
                req.wait()
                return None
            return (yield from comm.recv(source=0, tag=3))

        with pytest.raises(SimSanError) as exc:
            mpi_run(2, buggy, strict=True)
        kinds = [v.kind for v in exc.value.report.violations]
        assert "use-after-isend" in kinds
        violation = exc.value.report.violations[0]
        assert violation.rank == 0
        assert violation.details["dst"] == 1
        assert violation.details["tag"] == 3

    def test_mutation_after_delivery_is_legal(self):
        """Once delivered, the receiver owns the payload; sender-side reuse
        of the (already delivered) buffer is not flagged."""

        def fine(comm):
            if comm.rank == 0:
                buf = np.arange(8)
                req = yield from comm.isend(buf, dest=1, tag=1)
                yield Compute(100.0)  # delivery certainly happened
                buf[0] = 7
                req.wait()
                return None
            data = yield from comm.recv(source=0, tag=1)
            owned = data.copy()  # delivery is zero-copy in the simulator
            yield Compute(200.0)
            return owned

        results, _ = mpi_run(2, fine, strict=True)
        np.testing.assert_array_equal(results[1], np.arange(8))

    def test_blocking_send_mutation_flagged_as_send_mutation(self):
        san = SimSan()
        sim = Simulator(2, sanitizer=san)
        shared = np.arange(8)

        def sender(proc):
            from repro.simnet import Send

            yield Send(dst=1, nbytes=64, payload=shared, tag=0)
            shared[0] = -5  # sender resumed before delivery; still in flight

        def receiver(proc):
            yield Recv(src=0)

        sim.add_process(sender)
        sim.add_process(receiver)
        sim.run()
        kinds = [v.kind for v in san.report.violations]
        assert kinds == ["send-mutation"]


class TestLeakAndUnmatched:
    def test_leaked_request_reported(self):
        def leaky(comm):
            if comm.rank == 0:
                req = yield from comm.isend("x", dest=1, tag=2)  # repro: noqa[R005] — the leak under test
                return None
            return (yield from comm.recv(source=0, tag=2))

        with pytest.raises(SimSanError) as exc:
            mpi_run(2, leaky, strict=True)
        [violation] = exc.value.report.violations
        assert violation.kind == "leaked-request"
        assert violation.rank == 0
        assert violation.details == {"dest": 1, "tag": 2}

    def test_wait_clears_leak(self):
        def fine(comm):
            if comm.rank == 0:
                req = yield from comm.isend("x", dest=1, tag=2)
                req.wait()
                return None
            return (yield from comm.recv(source=0, tag=2))

        results, _ = mpi_run(2, fine, strict=True)
        assert results[1] == "x"

    def test_unmatched_message_reported_at_finalize(self):
        def orphan(comm):
            if comm.rank == 0:
                yield from comm.send("never read", dest=1, tag=9)
                return None
            yield Compute(10.0)  # outlive the delivery, never recv
            return None

        with pytest.raises(SimSanError) as exc:
            mpi_run(2, orphan, strict=True)
        [violation] = exc.value.report.violations
        assert violation.kind == "unmatched-message"
        assert violation.rank == 1
        assert violation.details["src"] == 0
        assert violation.details["tag"] == 9

    def test_probed_then_received_message_is_not_unmatched(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(42, dest=1, tag=7)
                return None
            yield from comm.probe(source=0, tag=7)
            return (yield from comm.recv(source=0, tag=7))

        results, _ = mpi_run(2, program, strict=True)
        assert results[1] == 42


class TestTagCollisions:
    def test_concurrent_same_channel_messages_noted(self):
        def train(comm):
            if comm.rank == 0:
                for i in range(3):
                    yield Isend(dst=1, nbytes=8, payload=i, tag=5)
                return None
            got = []
            for _ in range(3):
                msg = yield from comm.recv_message(source=0, tag=5)
                got.append(msg.payload)
            return got

        san = SimSan()
        with sanitize(san):
            results, _ = mpi_run(2, train)
        assert results[1] == [0, 1, 2]  # FIFO preserved
        assert san.report.ok  # collisions are notes, not violations
        [note] = san.report.notes
        assert note["kind"] == "tag-collision"
        assert (note["src"], note["dst"], note["tag"]) == (0, 1, 5)
        assert note["peak_in_flight"] >= 2

    def test_distinct_tags_do_not_collide(self):
        def program(comm):
            if comm.rank == 0:
                yield Isend(dst=1, nbytes=8, payload="a", tag=1)
                yield Isend(dst=1, nbytes=8, payload="b", tag=2)
                return None
            a = yield from comm.recv(source=0, tag=1)
            b = yield from comm.recv(source=0, tag=2)
            return (a, b)

        san = SimSan()
        with sanitize(san):
            mpi_run(2, program)
        assert san.report.notes == []


class TestAmbientScope:
    def test_simulator_picks_up_ambient_sanitizer(self):
        with sanitize() as san:
            assert active_sanitizer() is san
            sim = Simulator(1)
            assert sim._sanitizer is san
        assert active_sanitizer() is None

    def test_explicit_sanitizer_wins_over_ambient(self):
        explicit = SimSan()
        with sanitize():
            sim = Simulator(1, sanitizer=explicit)
        assert sim._sanitizer is explicit

    def test_report_aggregates_across_runs(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, dest=1)
                return None
            return (yield from comm.recv(source=0))

        with sanitize() as san:
            mpi_run(2, program)
            mpi_run(2, program)
        assert san.report.runs == 2
        assert san.report.counts["messages_checked"] == 2
        assert san.report.ok


class TestBehaviorInvariance:
    def test_sanitized_run_metrics_bit_identical(self):
        def program(comm):
            rng = np.random.default_rng(comm.rank)
            data = rng.integers(0, 1000, 500)
            yield Compute(1e-3 * comm.rank)
            peer = (comm.rank + 1) % comm.size
            got = yield from comm.sendrecv(data, dest=peer, tag=0)
            return float(np.sum(got))

        plain_results, plain_metrics = mpi_run(4, program)
        san_results, san_metrics = mpi_run(4, program, strict=True)
        assert plain_results == san_results
        assert plain_metrics.makespan == san_metrics.makespan
        assert plain_metrics.remote_bytes == san_metrics.remote_bytes
        for a, b in zip(plain_metrics.processes, san_metrics.processes):
            assert a.recv_wait_seconds == b.recv_wait_seconds
            assert a.send_seconds == b.send_seconds


class TestReportShape:
    def test_to_json_round_trip(self):
        import json

        def buggy(comm):
            if comm.rank == 0:
                buf = np.arange(4)
                yield Isend(dst=1, nbytes=32, payload=buf, tag=0)
                buf[0] = -1
                return None
            return (yield from comm.recv(source=0))

        san = SimSan()
        with sanitize(san):
            mpi_run(2, buggy)
        doc = json.loads(json.dumps(san.report.to_json()))
        assert doc["schema"] == "repro.simsan-report/1"
        assert doc["ok"] is False
        assert doc["violations"][0]["kind"] == "use-after-isend"
        assert "summary" not in doc  # summary is the text form, not JSON

    def test_summary_lists_violations(self):
        san = SimSan()
        with sanitize(san):
            def orphan(comm):
                if comm.rank == 0:
                    yield from comm.send("x", dest=1, tag=4)
                    return None
                yield Compute(5.0)

            mpi_run(2, orphan)
        text = san.report.summary()
        assert "unmatched-message" in text
        assert "1 violation(s)" in text


class TestProtocolResidue:
    """Finalize classification of reliable-layer leftovers.

    The regression under test: a retransmitted data envelope whose first
    copy *was* consumed (retried-then-acked) must be reported as benign
    ``retransmission-residue``, not as an unmatched-message leak — while a
    datagram that was never consumed in any copy stays a real leak.
    """

    def _finalize(self, sender, receiver, plan=None):
        san = SimSan()
        sim = Simulator(2, sanitizer=san, faults=plan)
        sim.add_process(sender)
        sim.add_process(receiver)
        sim.run()
        return san

    def test_retransmitted_then_consumed_copy_is_note_not_leak(self):
        from repro.simnet.comm import RELIABLE_TAG, Envelope

        def sender(proc):
            # Original + retransmission of the same (src, seq) datagram.
            for attempt in range(2):
                env = Envelope("data", 0, 0, 0, "keys", payload=7, attempt=attempt)
                yield Isend(1, nbytes=64, payload=env, tag=RELIABLE_TAG)

        def receiver(proc):
            yield Compute(10.0)  # both copies have landed
            msg = yield Recv(src=0)  # consume exactly one copy
            return msg.payload.seq

        san = self._finalize(sender, receiver)
        assert san.report.ok, san.report.summary()
        [note] = [
            n for n in san.report.notes if n["kind"] == "retransmission-residue"
        ]
        assert note["rank"] == 1
        assert note["src"] == 0
        assert note["seq"] == 0
        assert note["channel"] == "keys"

    def test_never_consumed_envelope_is_still_a_leak(self):
        from repro.simnet.comm import RELIABLE_TAG, Envelope

        def sender(proc):
            env = Envelope("data", 0, 0, 0, "keys", payload=7)
            yield Isend(1, nbytes=64, payload=env, tag=RELIABLE_TAG)

        def receiver(proc):
            yield Compute(10.0)  # outlive delivery; never recv

        san = self._finalize(sender, receiver)
        [violation] = san.report.violations
        assert violation.kind == "unmatched-message"
        assert violation.rank == 1
        assert violation.details["tag"] == RELIABLE_TAG

    def test_abandoned_protocol_data_is_note_under_fault_run(self):
        # Same never-consumed shape, but with a fault plan attached a
        # recovery phase may time out and abandon traffic by design.
        from repro.simnet import FaultPlan
        from repro.simnet.comm import RELIABLE_TAG, Envelope

        def sender(proc):
            env = Envelope("data", 0, 4, 1, "idx", payload=7)
            yield Isend(1, nbytes=64, payload=env, tag=RELIABLE_TAG)

        def receiver(proc):
            yield Compute(10.0)

        san = self._finalize(sender, receiver, plan=FaultPlan(seed=46))
        assert san.report.ok, san.report.summary()
        [note] = [
            n for n in san.report.notes if n["kind"] == "abandoned-protocol-data"
        ]
        assert (note["src"], note["seq"], note["channel"]) == (0, 4, "idx")

    def test_unconsumed_ack_is_never_a_leak(self):
        from repro.simnet.comm import RELIABLE_TAG, Envelope

        def sender(proc):
            yield Isend(1, nbytes=32, payload=Envelope("ack", 0, 3, 0, "keys"),
                        tag=RELIABLE_TAG)

        def receiver(proc):
            yield Compute(10.0)  # sender finished before draining its ack

        san = self._finalize(sender, receiver)
        assert san.report.ok, san.report.summary()
        [note] = [n for n in san.report.notes if n["kind"] == "unconsumed-ack"]
        assert note["seq"] == 3

    def test_engine_duplicate_leftover_is_note(self):
        from repro.simnet import FaultPlan

        def sender(proc):
            yield Isend(1, nbytes=64, payload="x")

        def receiver(proc):
            yield Compute(10.0)  # original + dup landed (dup arrives later)
            msg = yield Recv(src=0)  # consume the original copy only
            return msg.payload

        san = self._finalize(sender, receiver, plan=FaultPlan(seed=45, dup_prob=1.0))
        assert san.report.ok, san.report.summary()
        kinds = [n["kind"] for n in san.report.notes]
        assert "fault-duplicate-residue" in kinds


class TestFaultedMessageLifetimes:
    """A digest is keyed by ``id(msg)``: it must die with the message.

    The regression under test: a *dropped* message is never delivered, so
    nothing retired its digest, the ``Message`` was freed, and an injected
    duplicate allocated at the recycled address popped the stale digest — a
    false ``use-after-isend`` about one run in three.
    """

    class _Probe(SimSan):
        def finish_run(self, sim, leftovers):
            self.digests_at_finalize = len(self._digests)
            super().finish_run(sim, leftovers)

    def _storm(self, san, plan, messages=200):
        def sender(proc):
            for i in range(messages):
                yield Isend(1, nbytes=64, payload=np.full(4, i), tag=i % 3)

        def receiver(proc):
            yield Compute(10.0)  # every surviving copy has landed
            while (yield Probe(blocking=False)) is not None:
                yield Recv()

        sim = Simulator(2, sanitizer=san, faults=plan)
        sim.add_process(sender)
        sim.add_process(receiver)
        return sim.run()

    def test_dropped_messages_leave_no_digest_at_finalize(self):
        from repro.simnet import FaultPlan

        san = self._Probe()
        metrics = self._storm(san, FaultPlan(seed=47, drop_prob=0.5))
        assert metrics.processes[0].messages_dropped > 0
        assert san.digests_at_finalize == 0
        assert san.report.ok, san.report.summary()

    def test_drop_and_dup_plan_repeated_in_one_process_is_clean(self):
        from repro.simnet import FaultPlan

        san = SimSan()
        for seed in range(48, 53):
            metrics = self._storm(san, FaultPlan(seed=seed, drop_prob=0.3, dup_prob=0.3))
            sent = metrics.processes[0]
            assert sent.messages_dropped > 0 and sent.messages_duplicated > 0
        assert san.report.ok, san.report.summary()

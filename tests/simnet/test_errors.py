"""Deadlock diagnosis and simulator error-path coverage.

Exercises the failure modes the correctness tooling is built around:
unmatched receives (with per-rank source/tag diagnosis), partial barriers
(all-ranks-blocked detection), and the structured ``details`` payload that
SimSan folds into its report when a sanitized run deadlocks.
"""

import pytest

from repro.simnet import (
    Barrier,
    Compute,
    DeadlockError,
    Recv,
    Send,
    SimSan,
    Simulator,
    sanitize,
)
from repro.simnet.errors import SimSanError, _diagnose, _spec_word


def _run_two(prog0, prog1):
    sim = Simulator(2)
    sim.add_process(prog0)
    sim.add_process(prog1)
    sim.run()
    return sim


class TestUnmatchedRecvDiagnosis:
    def test_recv_with_no_sender_deadlocks_with_details(self):
        def idle(proc):
            yield Compute(1.0)

        def starved(proc):
            yield Recv(src=0, tag=5)

        with pytest.raises(DeadlockError) as exc:
            _run_two(idle, starved)
        err = exc.value
        assert err.blocked == {1: "BLOCKED_RECV"}
        entry = err.details[1]
        assert entry["status"] == "BLOCKED_RECV"
        assert entry["waiting_for"] == {"src": 0, "tag": 5, "probe": False}
        assert entry["mailbox_messages"] == 0
        assert "recv(src=0, tag=5)" in str(err)

    def test_wrong_tag_shows_pending_mailbox_message(self):
        def sender(proc):
            yield Send(dst=1, nbytes=8, payload="x", tag=1)

        def mismatched(proc):
            yield Compute(10.0)  # let the tag-1 message land first
            yield Recv(src=0, tag=2)

        with pytest.raises(DeadlockError) as exc:
            _run_two(sender, mismatched)
        entry = exc.value.details[1]
        assert entry["waiting_for"]["tag"] == 2
        assert entry["mailbox_messages"] == 1
        assert "1 unmatched message(s)" in str(exc.value)

    def test_any_source_rendered_as_any(self):
        assert _spec_word(-1) == "ANY"
        assert _spec_word(3) == "3"
        line = _diagnose(
            2,
            {
                "status": "BLOCKED_RECV",
                "blocked_since": 1.5,
                "mailbox_messages": 0,
                "waiting_for": {"src": -1, "tag": -1, "probe": False},
            },
        )
        assert "recv(src=ANY, tag=ANY)" in line
        assert "rank 2" in line


class TestPartialBarrier:
    def test_subset_barrier_deadlocks_all_ranks_blocked(self):
        def joins(proc):
            yield Barrier()

        def skips(proc):
            yield Compute(1.0)

        with pytest.raises(DeadlockError) as exc:
            _run_two(joins, skips)
        err = exc.value
        assert err.blocked == {0: "BLOCKED_BARRIER"}
        assert err.details[0]["status"] == "BLOCKED_BARRIER"
        assert "blocked in barrier" in str(err)

    def test_legacy_constructor_without_details_still_works(self):
        err = DeadlockError({0: "BLOCKED_RECV", 1: "BLOCKED_BARRIER"})
        assert err.details == {}
        assert "rank 0: BLOCKED_RECV" in str(err)
        assert "rank 1: BLOCKED_BARRIER" in str(err)


class TestSanitizedDeadlock:
    def test_deadlock_details_folded_into_simsan_report(self):
        san = SimSan()

        def idle(proc):
            yield Compute(1.0)

        def starved(proc):
            yield Recv(src=0, tag=7)

        with sanitize(san), pytest.raises(DeadlockError):
            _run_two(idle, starved)
        [note] = [n for n in san.report.notes if n["kind"] == "deadlock"]
        assert note["ranks"][1]["waiting_for"]["tag"] == 7

    def test_leak_report_contents_after_strict_run(self):
        """Satellite (d): the SimSanError carries structured leak details."""
        from repro.simnet.mpi import mpi_run

        def leaky(comm):
            if comm.rank == 0:
                for tag in (1, 2):
                    req = yield from comm.isend("x", dest=1, tag=tag)  # repro: noqa[R005] — the leaks under test
                return None
            a = yield from comm.recv(source=0, tag=1)
            b = yield from comm.recv(source=0, tag=2)
            return (a, b)

        with pytest.raises(SimSanError) as exc:
            mpi_run(2, leaky, strict=True)
        report = exc.value.report
        assert not report.ok
        leaks = [v for v in report.violations if v.kind == "leaked-request"]
        assert [v.details["tag"] for v in leaks] == [1, 2]
        assert all(v.rank == 0 for v in leaks)
        text = str(exc.value)
        assert "leaked-request" in text
        doc = report.to_json()
        assert doc["ok"] is False
        assert len(doc["violations"]) == 2


class TestErrorHierarchy:
    def test_all_errors_are_sim_errors(self):
        from repro.simnet.errors import (
            InvalidCallError,
            ProcessFailure,
            RankCrashedError,
            SimError,
            UnknownRankError,
        )

        assert issubclass(RankCrashedError, DeadlockError)
        for cls in (
            DeadlockError,
            RankCrashedError,
            ProcessFailure,
            InvalidCallError,
            UnknownRankError,
            SimSanError,
        ):
            assert issubclass(cls, SimError)

    def test_process_failure_keeps_rank_and_original(self):
        from repro.simnet.errors import ProcessFailure

        original = ValueError("boom")
        err = ProcessFailure(3, original)
        assert err.rank == 3
        assert err.original is original
        assert "rank 3" in str(err)

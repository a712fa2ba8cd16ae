"""The control region: collective semantics and failure typing.

Workers run the collectives through a shared-memory
:class:`~repro.parallel.collectives.ControlRegion` they inherit; the hub
only watches the pipes, the processes and the region.
"""

import multiprocessing
import os
import time

import pytest

from repro.core.sorter_labels import STEP_LABELS
from repro.parallel import ControlPlaneTimeout, WorkerCrashedError, WorkerFailedError
from repro.parallel.collectives import ControlRegion, WorkerLink, serve_control_plane
from repro.parallel.errors import ProtocolError


def _run_hub(target, size, timeout_seconds=30.0, extra=(), **hub_kwargs):
    """Start ``size`` workers running ``target(link, *extra)`` on one region."""
    ctx = multiprocessing.get_context()
    region = ControlRegion(ctx, size, 4096)
    conns, procs = [], []
    try:
        for rank in range(size):
            hub_end, worker_end = ctx.Pipe(duplex=True)
            conns.append(hub_end)
            procs.append(
                ctx.Process(
                    target=_worker_shell, args=(target, rank, size, worker_end, region, extra)
                )
            )
        for proc in procs:
            proc.start()
        return serve_control_plane(
            conns, procs, region=region, timeout_seconds=timeout_seconds, **hub_kwargs
        )
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
        for conn in conns:
            conn.close()


def _worker_shell(target, rank, size, conn, region, extra):
    link = WorkerLink(rank, size, conn, region)
    try:
        link.send_done(target(link, *extra))
    except Exception as exc:  # repro: noqa[R006] — process boundary: the exception is reported to the hub, which re-raises it typed
        link.send_error(type(exc).__name__, str(exc))
        os._exit(1)


def _exercise_collectives(link):
    gathered = link.gather(link.rank * 10, root=1)
    if link.rank == 1:
        assert gathered == [0, 10, 20]
    else:
        assert gathered is None
    word = link.bcast("go" if link.rank == 2 else None, root=2)
    assert word == "go"
    everyone = link.allgather(link.rank + 100)
    assert everyone == [100, 101, 102]
    link.barrier()
    # Many more rounds than banks: each collective must read its own.
    for round_ in range(50):
        assert link.allgather((round_, link.rank)) == [(round_, r) for r in range(3)]
    assert link.epoch == 54
    return {"rank": link.rank, "sum": sum(everyone)}


def _crash_at_barrier(link, crash_rank):
    if link.rank == crash_rank:
        os._exit(9)
    link.barrier()
    return link.rank


def _raise_on_one(link, failing_rank):
    link.barrier()
    if link.rank == failing_rank:
        raise ValueError("intentional worker failure")
    link.barrier()
    return link.rank


def _hang_at_gather(link, hung_rank):
    if link.rank == hung_rank:
        # Alive but silent: never enters the collective, never crashes.
        time.sleep(600.0)
        return None
    return link.gather(link.rank, root=0)


def _disagree_on_root(link):
    # Rank 0 names itself root; everyone else names rank 1.
    link.gather(link.rank, root=0 if link.rank == 0 else 1)
    return link.rank


def _crash_in_step(link, crash_rank, muted):
    link.muted = muted
    link.heartbeat(STEP_LABELS[0], 10)
    link.barrier()
    link.heartbeat(STEP_LABELS[1], 5)
    if link.rank == crash_rank:
        os._exit(9)
    link.barrier()
    return link.rank


class TestCollectiveSemantics:
    def test_gather_bcast_allgather_barrier(self):
        done = _run_hub(_exercise_collectives, size=3)
        assert sorted(done) == [0, 1, 2]
        for rank, payload in done.items():
            assert payload == {"rank": rank, "sum": 303}

    def test_single_rank_collectives(self):
        done = _run_hub(_exercise_single, size=1)
        assert done[0] == "ok"


def _exercise_single(link):
    assert link.gather("x", root=0) == ["x"]
    assert link.bcast("y", root=0) == "y"
    assert link.allgather("z") == ["z"]
    link.barrier()
    return "ok"


class TestFailureTyping:
    def test_crashed_worker_becomes_typed_error(self):
        with pytest.raises(WorkerCrashedError) as excinfo:
            _run_hub(_crash_at_barrier, size=3, extra=(1,))
        assert excinfo.value.rank == 1
        assert "barrier" in excinfo.value.phase

    def test_worker_exception_becomes_typed_error(self):
        with pytest.raises(WorkerFailedError) as excinfo:
            _run_hub(_raise_on_one, size=2, extra=(0,))
        assert excinfo.value.rank == 0
        assert excinfo.value.exc_type == "ValueError"

    def test_root_disagreement_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            _run_hub(_disagree_on_root, size=2)

    def test_phase_deadline_names_the_missing_rank(self):
        """A hung-but-alive rank trips the per-phase deadline, typed.

        No process dies, so the liveness watch never fires; only the
        per-collective deadline, read from the region's arrival flags, can
        convert the stall into an error — and with exactly one rank absent
        from the stalled collective it must name it, which is what lets
        the retry layer charge the right rank for a hang.
        """
        with pytest.raises(ControlPlaneTimeout) as excinfo:
            _run_hub(
                _hang_at_gather,
                size=3,
                extra=(2,),
                phase_timeout_seconds=0.5,
            )
        exc = excinfo.value
        assert exc.missing_ranks == (2,)
        assert "gather#1" in str(exc)
        assert "phase deadline" in str(exc)
        assert "missing ranks [2]" in str(exc)

    def test_crash_names_the_step_it_died_in(self):
        with pytest.raises(WorkerCrashedError) as excinfo:
            _run_hub(_crash_in_step, size=2, extra=(1, False))
        exc = excinfo.value
        assert exc.rank == 1
        assert exc.last_step == STEP_LABELS[1]
        assert exc.heartbeat_age is not None and exc.heartbeat_age >= 0.0
        assert f"last heartbeat at step {STEP_LABELS[1]!r}" in str(exc)

    def test_muted_rank_crash_reports_no_heartbeat(self):
        with pytest.raises(WorkerCrashedError) as excinfo:
            _run_hub(_crash_in_step, size=2, extra=(1, True))
        exc = excinfo.value
        assert exc.rank == 1
        assert exc.last_step is None
        assert "no heartbeat received" in str(exc)

"""What still crosses the pipes, and what must not.

The step path runs through the control region, so an untraced,
unsanitized, fault-free job moves one dispatch in and one report out of
each worker's pipe; the job plane's framing survives any debris ahead of
a dispatch; and no worker outlives a SIGKILLed driver, even one parked
in a region barrier.
"""

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.api import partition_input
from repro.core.local_backend import local_sample_sort
from repro.parallel import ProcessBackend
from repro.parallel.collectives import WorkerLink

REPO = pathlib.Path(__file__).resolve().parents[2]
SHM = pathlib.Path("/dev/shm")
#: Seconds within which every worker of a killed driver must be gone: a
#: waiter checks on its driver once per quarter-second slice.
DRIVER_DEATH_BOUND_S = 5.0


class _CountingConn:
    """A driver-side pipe end that records every message through it."""

    def __init__(self, conn):
        self._conn = conn
        self.sent: list = []
        self.received: list = []

    def fileno(self):
        return self._conn.fileno()

    def poll(self, timeout=0.0):
        return self._conn.poll(timeout)

    def send(self, obj):
        self.sent.append(obj)
        self._conn.send(obj)

    def send_bytes(self, buf):
        self.sent.append(ForkingPickler.loads(buf))
        self._conn.send_bytes(buf)

    def recv(self):
        msg = self._conn.recv()
        self.received.append(msg)
        return msg

    def close(self):
        self._conn.close()


def _shm_entries() -> set[str]:
    return {
        name for name in os.listdir(SHM) if name.startswith(("psm_", "sem."))
    } if SHM.is_dir() else set()


class TestStepPathLeavesThePipes:
    def test_a_plain_job_moves_one_dispatch_and_one_report_per_worker(self):
        data = np.random.default_rng(5).integers(0, 1 << 40, 40_000).astype(np.int64)
        blocks = list(partition_input(data, 2)[0])
        reference = local_sample_sort(blocks)
        before = _shm_entries()
        backend = ProcessBackend()
        try:
            backend.sort_blocks(blocks)  # spawns the generation
            counted = backend._conns = [_CountingConn(conn) for conn in backend._conns]
            run = backend.sort_blocks(blocks)
            for rank, out in enumerate(run.outputs):
                np.testing.assert_array_equal(out.keys, reference.per_processor[rank])
            for conn in counted:
                assert [msg[0] for msg in conn.sent] == ["job"]
                assert [msg[0] for msg in conn.received] == ["done"]
            del run, out
        finally:
            backend.close()
        assert _shm_entries() - before == set()


_DEBRIS = st.one_of(
    st.just(()),
    st.tuples(st.just("job")),
    st.tuples(st.just("job"), st.integers(), st.integers()),
    st.tuples(st.sampled_from(["coll", "hb", "done", "error", "probe", "san", "?"]), st.integers()),
    st.just(["job", 1]),
    st.integers(),
    st.none(),
    st.text(max_size=4),
    st.tuples(st.integers(), st.text(max_size=3)),
)


class TestJobPlaneFraming:
    @given(st.lists(_DEBRIS, max_size=12), st.one_of(st.none(), st.integers()))
    def test_recv_job_returns_the_job_or_none_after_any_debris(self, debris, spec):
        driver_end, worker_end = multiprocessing.Pipe()
        try:
            link = WorkerLink(0, 1, worker_end)
            for msg in debris:
                driver_end.send(msg)
            driver_end.send(("stop",) if spec is None else ("job", spec))
            assert link.recv_job() == spec
            assert not worker_end.poll()
        finally:
            driver_end.close()
            worker_end.close()


_DRIVER = """
import multiprocessing, time
from repro.parallel.collectives import ControlRegion, WorkerLink

def rank_main(rank, conn, region):
    WorkerLink(rank, 3, conn, region).barrier()  # rank 2 never comes

ctx = multiprocessing.get_context("fork")
region = ControlRegion(ctx, 3, 64)
procs, ends = [], []
for rank in range(2):
    hub_end, worker_end = ctx.Pipe()
    proc = ctx.Process(target=rank_main, args=(rank, worker_end, region))
    proc.start()
    procs.append(proc)
    ends.append(hub_end)
while region.arrivals[:2, 0].min() < 1:
    time.sleep(0.01)
print(*(proc.pid for proc in procs), flush=True)
time.sleep(600)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie awaiting its reap has exited)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(
    not pathlib.Path("/proc/self/stat").exists()
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork and /proc",
)
class TestDriverDeath:
    def test_workers_in_a_region_barrier_exit_when_the_driver_is_killed(self):
        driver = subprocess.Popen(
            [sys.executable, "-c", _DRIVER],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,  # the stranded workers' tracebacks
            text=True,
        )
        pids: list[int] = []
        try:
            pids = [int(pid) for pid in driver.stdout.readline().split()]
            assert len(pids) == 2 and all(map(_running, pids))
            driver.send_signal(signal.SIGKILL)
            driver.wait(timeout=10.0)
            deadline = time.monotonic() + DRIVER_DEATH_BOUND_S
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if _running(pid)] == []
        finally:
            driver.kill()
            driver.wait(timeout=10.0)
            driver.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)

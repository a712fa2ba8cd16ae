"""Chaos harness: the seeded fault-schedule matrix over the simulated sort.

Acceptance contract: every schedule yields either every input key back —
sorted, provenance round-tripping, ``survivors`` naming exactly the ranks
not dropped — or a typed :class:`~repro.simnet.errors.SimError`; never
fewer keys.  Only a poisoned rank is dropped: a transient kill recovers
at full width, and every schedule without a poison returns keys and
provenance bytes-equal to the fault-free run.  The same schedule + seed reproduces
the same fault-event sequence, and the run report's per-rank fault
counters are nonzero exactly when injection is active.
"""

import numpy as np
import pytest

from repro.core.api import DistributedSorter
from repro.obs.context import capture
from repro.obs.report import RunReport
from repro.faults import FaultPlan, chaos_schedules
from repro.simnet import sanitize
from repro.simnet.errors import SimError

P = 8
N_KEYS = 32_000

SCHEDULES = chaos_schedules()


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(20260805).integers(0, 50_000, N_KEYS)


@pytest.fixture(scope="module")
def clean(data):
    return DistributedSorter(num_processors=P).sort(data)


def _run(plan, data, sanitized=True):
    """Run the sort under one plan; returns (result, error)."""
    sorter = DistributedSorter(num_processors=P, faults=plan)
    try:
        if sanitized:
            with sanitize() as san:
                result = sorter.sort(data)
            assert san.report.ok, san.report.summary()
        else:
            result = sorter.sort(data)
        return result, None
    except SimError as exc:
        return None, exc


@pytest.mark.parametrize(
    "name,plan", SCHEDULES, ids=[name for name, _ in SCHEDULES]
)
def test_schedule_sorted_or_typed_error(name, plan, data, clean):
    result, error = _run(plan, data)
    if error is not None:
        # typed failure is acceptable; silent corruption is not
        assert isinstance(error, SimError)
        return
    assert np.array_equal(result.to_array(), np.sort(data)), "keys lost or corrupted"
    assert np.array_equal(result.gather_values(data), result.to_array())
    # Every schedule's kill fires once, and a poison on every attempt: its
    # rank is the one the retry layer drops.
    dropped = set(range(P)) - set(result.survivors or range(P))
    assert dropped == set(plan.poisoned)
    for rank in dropped:
        assert len(result.per_processor[rank]) == 0
    if plan.kills:
        killed = [rank for _, rank, _ in plan.kills]
        assert [m.retries for m in result.metrics.processes] == [int(r in killed) for r in range(P)]
    if not plan.poisoned:
        for got, want, got_prov, want_prov in zip(
            result.per_processor, clean.per_processor, result.provenance, clean.provenance
        ):
            assert got.tobytes() == want.tobytes()
            assert got_prov.origin_proc.tobytes() == want_prov.origin_proc.tobytes()
            assert got_prov.origin_index.tobytes() == want_prov.origin_index.tobytes()


@pytest.mark.parametrize("name,plan", SCHEDULES[:4], ids=[n for n, _ in SCHEDULES[:4]])
def test_same_schedule_same_event_sequence(name, plan, data):
    def fingerprint():
        with capture(name=name) as cap:
            result, error = _run(plan, data, sanitized=False)
        tracer = cap.sessions[-1].tracer
        events = [
            (e.rank, round(e.time, 12), e.kind, e.src, e.dst, e.detail)
            for e in tracer.faults
        ]
        tail = (
            None
            if result is None
            else (result.total_keys, tuple(result.to_array()[::997].tolist()))
        )
        return events, tail, type(error).__name__ if error else None

    assert fingerprint() == fingerprint()


class TestRunReportCounters:
    def test_counters_nonzero_under_injection(self, data):
        plan = FaultPlan(seed=201, drop_prob=0.05)
        with capture(name="chaos-report") as cap:
            result, error = _run(plan, data, sanitized=False)
        assert error is None
        report = RunReport.from_sort_result(result, tracer=cap.sessions[-1].tracer)
        fault_blocks = [rr.faults for rr in report.ranks if rr.faults]
        assert fault_blocks, "no rank recorded fault accounting"
        assert sum(fb["retries"] for fb in fault_blocks) > 0
        assert sum(fb["messages_dropped"] for fb in fault_blocks) > 0
        doc = report.to_json()
        assert any("faults" in entry for entry in doc["ranks"])
        # round-trips through JSON
        again = RunReport.from_json(doc)
        assert [rr.faults for rr in again.ranks] == [rr.faults for rr in report.ranks]

    def test_crash_flag_recorded(self, data):
        plan = FaultPlan.from_spec("poison=5", seed=202)
        result, error = _run(plan, data, sanitized=False)
        assert error is None
        report = RunReport.from_sort_result(result)
        assert report.ranks[5].faults is not None
        assert report.ranks[5].faults["crashed"] is True

    def test_counters_absent_without_injection(self, data):
        sorter = DistributedSorter(num_processors=P)
        result = sorter.sort(data)
        report = RunReport.from_sort_result(result)
        assert all(rr.faults is None for rr in report.ranks)
        assert all("faults" not in entry for entry in report.to_json()["ranks"])

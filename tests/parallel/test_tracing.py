"""Cross-process observability: clock alignment, trace merging, unified
reports, and live progress for the real-parallel backend.

The headline guarantees under test: per-worker events recorded on
per-process clocks land on one common hub timeline with no negative
times, flows pair across worker tracks in the Perfetto export, and a
process-backend RunReport is schema-identical to the simnet golden —
same keys, same step names, measured (nonzero) values.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.core.api import distributed_sort, partition_input
from repro.core.sorter import STEP_LABELS
from repro.obs.context import capture
from repro.obs.perfetto import export_chrome_trace
from repro.obs.report import RunReport
from repro.parallel import (
    ProcessBackend,
    WorkerTrace,
    estimate_clock_offset,
    merge_worker_traces,
    peak_rss_bytes,
    use_progress,
)

GOLDEN_REPORT_PATH = (
    pathlib.Path(__file__).parents[1] / "golden" / "run_report_p16.json"
)

P = 4
N_KEYS = 40_000


def _traced_run(n=N_KEYS, p=P, seed=11):
    """One traced process-backend sort; returns (result, tracer, session)."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 1 << 40, n).astype(np.int64)
    with capture(name="test-real") as cap:
        result = distributed_sort(data, num_processors=p, backend="process")
    assert len(cap.sessions) == 1
    return result, cap.sessions[-1].tracer, cap.sessions[-1]


@pytest.fixture(scope="module")
def traced():
    return _traced_run()


class TestClockOffset:
    def test_known_skew_is_recovered(self):
        # A fake hub whose clock runs exactly 5 s ahead of ours: the
        # NTP-style midpoint estimate must recover the skew (the probe is
        # instantaneous here, so the estimate is exact).
        import time

        def probe():
            return time.perf_counter() + 5.0

        offset, rtt = estimate_clock_offset(probe)
        assert offset == pytest.approx(5.0, abs=1e-3)
        assert rtt >= 0.0

    def test_merge_aligns_skewed_worker_clocks(self):
        # Two workers, clocks offset by +10 and -10 from the hub; their
        # local step windows differ wildly but describe the same hub-time
        # interval [1.0, 2.0] — after merging, both phase spans coincide.
        a = WorkerTrace(rank=0, clock_offset=10.0)
        a.steps.append((-9.0, -8.0, STEP_LABELS[0]))
        b = WorkerTrace(rank=1, clock_offset=-10.0)
        b.steps.append((11.0, 12.0, STEP_LABELS[0]))
        tracer = merge_worker_traces(
            [a, b], num_ranks=2, base_time=0.0, makespan=3.0
        )
        spans = tracer.phase_spans()
        assert len(spans) == 2
        for span in spans:
            assert span.start == pytest.approx(1.0)
            assert span.duration == pytest.approx(1.0)

    def test_merge_clamps_residue_without_negative_durations(self):
        # Clock-sync residue can push a shifted start below zero; the
        # merge clamps the start but durations are local differences and
        # must survive untouched.
        t = WorkerTrace(rank=0, clock_offset=-5.0)
        t.steps.append((4.9, 5.3, STEP_LABELS[0]))
        tracer = merge_worker_traces(
            [t], num_ranks=1, base_time=0.0, makespan=1.0
        )
        (span,) = tracer.phase_spans()
        assert span.start == 0.0
        assert span.duration == pytest.approx(0.4)

    def test_peak_rss_is_measured_here(self):
        assert peak_rss_bytes() > 0


class TestMergedTrace:
    def test_every_rank_records_all_six_steps(self, traced):
        _, tracer, _ = traced
        assert tracer.num_ranks == P
        for rank in range(P):
            labels = [s.label for s in tracer.phase_spans(rank)]
            assert labels == list(STEP_LABELS)

    def test_spans_live_on_the_common_timeline(self, traced):
        _, tracer, _ = traced
        assert tracer.makespan > 0.0
        for span in tracer.spans:
            assert span.start >= 0.0
            assert span.duration >= 0.0
            # Loose upper bound: everything happened within the run.
            assert span.end <= tracer.makespan * 2 + 1.0

    def test_exchange_flows_carry_bytes_and_offsets(self, traced):
        _, tracer, _ = traced
        # Every (src, dst) pair writes one run: p*p measured flows.
        assert len(tracer.flows) == P * P
        assert {(f.src, f.dst) for f in tracer.flows} == {
            (s, d) for s in range(P) for d in range(P)
        }
        for flow in tracer.flows:
            assert flow.nbytes > 0
            assert flow.offset >= 0
            assert flow.deliver_t >= flow.inject_t >= 0.0

    def test_perfetto_export_pairs_flows_across_tracks(self, traced):
        _, tracer, _ = traced
        doc = export_chrome_trace(tracer)
        starts = {e["id"]: e for e in doc["traceEvents"] if e["ph"] == "s"}
        finishes = {e["id"]: e for e in doc["traceEvents"] if e["ph"] == "f"}
        assert set(starts) == set(finishes) != set()
        for fid, s in starts.items():
            f = finishes[fid]
            assert s["tid"] == s["args"]["src"]
            assert f["tid"] == s["args"]["dst"]
            assert f["ts"] >= s["ts"]
            assert s["args"]["offset"] >= 0
        # One named thread track per worker.
        tracks = {
            e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert tracks == set(range(P))

    def test_arena_counters_ride_the_driver_track(self, traced):
        _, tracer, _ = traced
        names = {c.name for c in tracer.counters}
        assert "arena.leased_bytes" in names
        assert "arena.pooled_bytes" in names
        # The last samples are release_all's: the input lease went back,
        # the result's keys + index + proc stay out as pinned bytes.
        last = {c.name: c.value for c in tracer.counters}
        assert last["arena.leased_bytes"] == last["arena.pinned_bytes"]
        assert last["arena.pinned_bytes"] == N_KEYS * (8 + 4 + 2)


class TestUnifiedRunReport:
    def test_schema_matches_the_simnet_golden(self, traced):
        result, tracer, _ = traced
        golden = json.loads(GOLDEN_REPORT_PATH.read_text())
        real = RunReport.from_sort_result(result, tracer=tracer).to_json()
        assert sorted(real.keys()) == sorted(golden.keys())
        g_rank, r_rank = golden["ranks"][0], real["ranks"][0]
        assert sorted(r_rank.keys()) == sorted(g_rank.keys())
        assert sorted(r_rank["steps"].keys()) == sorted(g_rank["steps"].keys())
        for label, stats in r_rank["steps"].items():
            assert sorted(stats.keys()) == sorted(g_rank["steps"][label].keys())

    def test_measured_values_are_nonzero(self, traced):
        result, tracer, _ = traced
        report = RunReport.from_sort_result(result, tracer=tracer)
        assert report.makespan_seconds > 0.0
        breakdown = report.step_breakdown()
        assert sorted(breakdown) == sorted(STEP_LABELS)
        assert all(wall > 0.0 for wall in breakdown.values())
        for rr in report.ranks:
            assert rr.peak_resident_bytes > 0  # real ru_maxrss, not modeled
            assert rr.steps["5-exchange"].bytes_sent > 0
            assert rr.steps["5-exchange"].messages_sent == P
            # Step waits sum to at most the by-kind totals: the traced
            # run's clock-sync barrier blocks *before* step 1, so it
            # counts toward barrier_wait_seconds but belongs to no step.
            total_wait = sum(s.wait for s in rr.steps.values())
            kind_total = rr.recv_wait_seconds + rr.barrier_wait_seconds
            assert 0.0 < total_wait <= kind_total + 1e-9

    def test_adopted_session_feeds_the_artifact_writer(self, traced):
        # The experiments CLI reads sessions via duck typing: _ran,
        # metrics(), and (process-only) step_seconds must all answer.
        _, tracer, session = traced
        sim = session.simulator
        assert getattr(sim, "_ran", False)
        report = RunReport.from_metrics(
            sim.metrics(), tracer=tracer, step_seconds=sim.step_seconds
        )
        assert report.num_ranks == P
        assert sorted(report.step_breakdown()) == sorted(STEP_LABELS)

    def test_from_backend_run_equals_sort_result_path(self):
        rng = np.random.default_rng(3)
        blocks = list(partition_input(rng.integers(0, 1 << 30, 8_000).astype(np.int64), 2)[0])
        with capture(name="direct") as cap:
            with ProcessBackend() as backend:
                run = backend.sort_blocks(blocks)
        report = RunReport.from_backend_run(run, tracer=cap.sessions[-1].tracer)
        assert report.num_ranks == 2
        assert all(w > 0.0 for w in report.step_breakdown().values())


class TestUntracedPath:
    def test_no_capture_means_no_trace_payloads(self):
        rng = np.random.default_rng(5)
        blocks = list(partition_input(rng.integers(0, 1 << 30, 8_000).astype(np.int64), 2)[0])
        with ProcessBackend() as backend:
            run = backend.sort_blocks(blocks)
        for report in run.reports:
            assert report.trace is None
            # Always-on measurements still come home.
            assert report.peak_rss_bytes > 0
            assert report.step_wait_seconds

    def test_wait_split_keeps_wall_totals(self):
        # compute + wait must reassemble each step's measured wall.
        rng = np.random.default_rng(6)
        blocks = list(partition_input(rng.integers(0, 1 << 30, 8_000).astype(np.int64), 2)[0])
        with ProcessBackend() as backend:
            run = backend.sort_blocks(blocks)
        metrics = run.cluster_metrics()
        for out, proc in zip(run.outputs, metrics.processes):
            for label, wall in out.step_seconds.items():
                compute = proc.phase_seconds[label]
                assert 0.0 <= compute <= wall + 1e-9


class TestLiveProgress:
    def test_heartbeats_reach_the_ambient_sink(self):
        beats = []
        rng = np.random.default_rng(8)
        blocks = list(partition_input(rng.integers(0, 1 << 30, 8_000).astype(np.int64), 2)[0])
        with use_progress(lambda rank, step, rows: beats.append((rank, step, rows))):
            with ProcessBackend() as backend:
                backend.sort_blocks(blocks)
        for rank in range(2):
            steps = [step for r, step, _ in beats if r == rank]
            assert steps == list(STEP_LABELS)
        assert all(rows >= 0 for _, _, rows in beats)

    def test_explicit_progress_argument_wins(self):
        # One route: the innermost ambient scope is the explicit choice.
        explicit, ambient = [], []
        rng = np.random.default_rng(9)
        blocks = list(partition_input(rng.integers(0, 1 << 30, 4_000).astype(np.int64), 2)[0])
        with use_progress(lambda *beat: ambient.append(beat)):
            with ProcessBackend() as backend:
                with use_progress(lambda *beat: explicit.append(beat)):
                    backend.sort_blocks(blocks)
        assert explicit and not ambient

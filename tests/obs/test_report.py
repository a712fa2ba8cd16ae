"""RunReport assembly and serialization (the p=16 snapshot is a golden of
:data:`repro.analysis.determinism.GOLDENS`)."""

import numpy as np
import pytest

from repro.core.sorter import STEP_LABELS
from repro.obs import RunReport, capture


def small_sorted_report(num_ranks=4, n_keys=6_000, seed=5):
    from repro.core.api import distributed_sort

    rng = np.random.default_rng(seed)
    data = rng.integers(0, 1 << 20, n_keys).astype(np.int64)
    with capture() as cap:
        result = distributed_sort(data, num_processors=num_ranks)
    tracer = cap.sessions[-1].tracer
    return RunReport.from_sort_result(result, tracer=tracer), result, tracer


@pytest.fixture(scope="module")
def report4():
    return small_sorted_report()


class TestAssembly:
    def test_cluster_totals_mirror_metrics(self, report4):
        report, result, _ = report4
        m = result.metrics
        assert report.num_ranks == result.num_processors
        assert report.makespan_seconds == m.makespan
        assert report.remote_bytes == m.remote_bytes
        assert report.messages == m.messages
        assert report.communication_seconds == m.communication_seconds()
        assert report.communication_fraction == m.communication_fraction()

    def test_balance_mirrors_the_result(self, report4):
        report, result, _ = report4
        assert [rr.partition_keys for rr in report.ranks] == result.counts().tolist()
        assert report.imbalance == result.imbalance()
        assert report.to_json()["imbalance"] == result.imbalance()

    def test_every_rank_reports_all_six_steps(self, report4):
        report, _, _ = report4
        for rr in report.ranks:
            assert set(rr.steps) == set(STEP_LABELS)

    def test_wall_compute_wait_decomposition(self, report4):
        report, result, _ = report4
        for rr in report.ranks:
            for label, stats in rr.steps.items():
                assert stats.wall == pytest.approx(
                    result.step_seconds[rr.rank][label]
                )
                assert stats.wait == pytest.approx(
                    max(stats.wall - stats.compute, 0.0)
                )
                assert stats.compute >= 0.0

    def test_step_bytes_sum_to_rank_totals(self, report4):
        report, result, _ = report4
        for rr in report.ranks:
            step_bytes = sum(s.bytes_sent for s in rr.steps.values())
            step_msgs = sum(s.messages_sent for s in rr.steps.values())
            # Every flow is injected inside some step (the marks cover the
            # whole program), so per-step attribution is exhaustive.
            assert step_bytes == rr.bytes_sent
            assert step_msgs == rr.messages_sent

    def test_exchange_carries_the_payload(self, report4):
        report, _, _ = report4
        exchange = sum(r.steps[STEP_LABELS[4]].bytes_sent for r in report.ranks)
        total = sum(r.bytes_sent for r in report.ranks)
        assert exchange > 0.5 * total

    def test_step_breakdown_is_max_over_ranks(self, report4):
        report, _, _ = report4
        breakdown = report.step_breakdown()
        for label in STEP_LABELS:
            assert breakdown[label] == max(
                rr.steps[label].wall for rr in report.ranks
            )

    def test_without_tracer_step_bytes_are_zero(self, report4):
        _, result, _ = report4
        report = RunReport.from_sort_result(result)
        assert all(
            s.bytes_sent == 0
            for rr in report.ranks
            for s in rr.steps.values()
        )
        assert report.remote_bytes == result.metrics.remote_bytes


class TestSerialization:
    def test_json_round_trip_is_exact(self, report4, tmp_path):
        report, _, _ = report4
        path = tmp_path / "report.json"
        report.save(path)
        reloaded = RunReport.load(path)
        assert reloaded.to_json() == report.to_json()
        assert reloaded.schema == "repro.run-report/1"

    def test_steps_serialized_sorted(self, report4):
        report, _, _ = report4
        doc = report.to_json()
        labels = list(doc["ranks"][0]["steps"])
        assert labels == sorted(labels)

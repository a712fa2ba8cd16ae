"""Crash-resilient real-backend sorting: deterministic process-level
chaos (kills, poisons, hangs, delay spikes, muted heartbeats, slow
ranks), job retry with backoff, and survivor-degraded recovery — every
recovered job bit-identical to the local oracle."""

import dataclasses

import numpy as np
import pytest

from repro.core.api import DistributedSorter, SortConfig, partition_input
from repro.core.local_backend import local_sample_sort
from repro.parallel import (
    ControlPlaneTimeout,
    JobAbortedError,
    PoolClosedError,
    ProcessBackend,
    RealFaultPlan,
    RetryPolicy,
    WorkerCrashedError,
    inject_real_faults,
    kill_one_per_job,
)
from repro.parallel.chaos import active_real_fault_plan

#: Fast backoff so retry tests don't sleep their way through CI.
FAST = RetryPolicy(backoff_seconds=0.001, backoff_cap_seconds=0.01)


def _data(n=20_000, seed=7, dtype=np.int64):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 40, n).astype(dtype)


def _blocks(n=20_000, p=4, seed=7):
    return list(partition_input(_data(n, seed), p)[0])


def _assert_oracle_identical(result, data, p):
    """The recovered SortResult is bit-identical to the local oracle.

    For full-width results this checks per-rank partitions against
    ``local_sample_sort`` on the same blocks; a survivor-degraded result
    is checked against the oracle on its *re-planned* survivor blocks
    (that is the plan the cluster actually executed) plus global
    concatenation equality against the original input.
    """
    if result.survivors is None:
        reference = local_sample_sort(list(partition_input(data, p)[0]))
        for rank in range(p):
            np.testing.assert_array_equal(
                result.per_processor[rank], reference.per_processor[rank]
            )
        return
    survivors = list(result.survivors)
    reference = local_sample_sort(
        list(partition_input(data, len(survivors))[0])
    )
    for slot, rank in enumerate(survivors):
        np.testing.assert_array_equal(
            result.per_processor[rank], reference.per_processor[slot]
        )
    for rank in range(p):
        if rank not in survivors:
            assert len(result.per_processor[rank]) == 0
    np.testing.assert_array_equal(result.to_array(), np.sort(data))


def _signed_zero_nan_floats(n=12_000, seed=7):
    """float64 keys whose codes are lossy: the word path must refill them.

    Integral magnitudes of both signs (the key frame fits), salted with
    +0.0, -0.0 and NaNs of both signs with distinct payloads — keys the
    packed word cannot carry bit for bit, so recovery has to re-read them
    from the re-staged input lease through the unpacked provenance.
    """
    rng = np.random.default_rng(seed)
    data = np.floor(rng.exponential(2000, n)) * rng.choice([-1.0, 1.0], n)
    data[::5], data[2::7] = 0.0, -0.0
    bits = data.view(np.uint64)
    bits[3::11] = 0x7FF8_0000_0000_0ABC
    bits[4::13] = 0xFFF0_0000_0000_0001
    return data


def _assert_recovered_bit_for_bit(run, result, data, p):
    """Keys and provenance of a recovered word-path job, as bytes.

    ``_assert_oracle_identical`` compares values; -0.0 == +0.0 and every
    NaN equals every NaN there.  Here the partitions are byte-compared to
    the oracle on the plan the cluster finally executed, and gathering the
    input through provenance must reproduce the sorted bytes — which pins
    ``origin_proc`` (after any survivor renumbering) and ``origin_index``.
    """
    survivors = list(result.survivors) if result.survivors else list(range(p))
    live_reports = [run.reports[rank] for rank in survivors]
    assert {report.local_sort_path for report in live_reports} == {"through"}
    reference = local_sample_sort(list(partition_input(data, len(survivors))[0]))
    for slot, rank in enumerate(survivors):
        assert (
            result.per_processor[rank].tobytes()
            == reference.per_processor[slot].tobytes()
        )
        origin = result.provenance[rank].origin_proc
        expected = np.asarray(survivors)[reference.provenance[slot].origin_proc]
        np.testing.assert_array_equal(origin, expected)
        np.testing.assert_array_equal(
            result.provenance[rank].origin_index,
            reference.provenance[slot].origin_index,
        )
    assert result.gather_values(data).tobytes() == result.to_array().tobytes()


# ------------------------------------------------------------- the grammar


class TestRealFaultPlanParsing:
    def test_kill_spec_round_trip(self):
        plan = RealFaultPlan.from_spec("kill=2@5-exchange", seed=3)
        assert plan.kills == ((None, 2, "5-exchange"),)
        assert plan.seed == 3

    def test_kill_accepts_step_index_and_job_scope(self):
        plan = RealFaultPlan.from_spec("kill=1@5:7")
        assert plan.kills == ((7, 1, "5-exchange"),)

    def test_full_grammar(self):
        plan = RealFaultPlan.from_spec(
            "kill=1@3:0,poison=2,hang=0@gather:1,delay=0.25:0.002,"
            "mute=3,slow=1x2.5",
            seed=11,
        )
        assert plan.kills == ((0, 1, "3-splitters"),)
        assert plan.poisoned == (2,)
        assert plan.hangs == ((1, 0, "gather"),)
        assert plan.delay_probability == 0.25
        assert plan.delay_spike_seconds == 0.002
        assert plan.muted == (3,)
        assert plan.slow == ((1, 2.5),)
        assert plan.targets_rank(2) and not plan.targets_rank(4)
        text = plan.describe()
        assert "seed=11" in text and "poisoned=[2]" in text

    @pytest.mark.parametrize(
        "spec",
        [
            "kill=1@9-nope",
            "kill=1",
            "hang=1@quicksort",
            "slow=1",
            "delay=1.5",
            "frob=1",
            "kill",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            RealFaultPlan.from_spec(spec)

    def test_plans_are_frozen_and_hashable(self):
        a = RealFaultPlan.from_spec("poison=1", seed=2)
        b = RealFaultPlan.from_spec("poison=1", seed=2)
        assert a == b and hash(a) == hash(b)

    def test_kill_one_per_job_round_robin(self):
        plan = kill_one_per_job(5, 3, step="2-sampling", seed=9)
        assert plan.kills == tuple(
            (job, job % 3, "2-sampling") for job in range(5)
        )


class TestWorkerStateLookup:
    """Worker decisions are pure schedule lookups — no rng in the worker."""

    def test_kill_is_first_attempt_only(self):
        plan = RealFaultPlan.from_spec("kill=1@5-exchange:0")
        assert plan.worker_state(1, 0, 0).kill_step == "5-exchange"
        assert plan.worker_state(1, 0, 1).kill_step is None  # transient
        assert plan.worker_state(1, 3, 0).kill_step is None  # other job
        assert plan.worker_state(0, 0, 0).kill_step is None  # other rank

    def test_directly_constructed_index_step_fires(self):
        # An index-form step used to pass validation un-normalised and
        # then never match a step label: the plan injected nothing.
        plan = RealFaultPlan(kills=((None, 1, "5"),))
        assert plan == RealFaultPlan.from_spec("kill=1@5")
        assert plan.worker_state(1, 0, 0).kill_step == "5-exchange"

    def test_poison_kills_every_attempt(self):
        plan = RealFaultPlan.from_spec("poison=2")
        for attempt in range(3):
            state = plan.worker_state(2, 5, attempt)
            assert state.kill_step == "1-local-sort"

    def test_hang_is_first_attempt_only(self):
        plan = RealFaultPlan.from_spec("hang=0@barrier")
        assert plan.worker_state(0, 2, 0).hang_op == "barrier"
        assert plan.worker_state(0, 2, 1).hang_op is None

    def test_hub_delay_state_is_seeded_per_job_and_attempt(self):
        plan = RealFaultPlan.from_spec("delay=0.5:0.0", seed=13)
        a = [plan.hub_state(0, 0)._rng.random() for _ in range(1)]
        b = [plan.hub_state(0, 0)._rng.random() for _ in range(1)]
        c = [plan.hub_state(0, 1)._rng.random() for _ in range(1)]
        assert a == b  # same (seed, job, attempt) => same spikes
        assert a != c  # a retry draws a fresh schedule
        assert plan.hub_state(0, 0).probability == 0.5

    def test_no_delay_means_no_hub_state(self):
        assert RealFaultPlan.from_spec("poison=1").hub_state(0, 0) is None


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(degrade_after=0)

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_cap_seconds=0.35)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.35)  # capped


# --------------------------------------------------------- recovery paths


class TestKillRetryRecovery:
    def test_transient_kill_recovers_bit_identical(self):
        data = _data()
        blocks, offsets = partition_input(data, 4)
        plan = RealFaultPlan.from_spec("kill=1@5-exchange:0", seed=7)
        with ProcessBackend(chaos=plan, retry=FAST) as backend:
            run = backend.sort_blocks(blocks)
            result = run.to_sort_result(offsets)
        assert run.retries == 1
        assert run.attempt_history[0]["rank"] == 1
        assert run.attempt_history[0]["error"] == "WorkerCrashedError"
        assert run.attempt_history[0]["exitcode"] == -9
        assert result.survivors is None  # recovered at full width
        _assert_oracle_identical(result, data, 4)
        assert backend.stats["retries"] == 1
        assert backend.stats["degraded_jobs"] == 0

    @pytest.mark.parametrize("spec", ["kill=1@5-exchange:0", "kill=2@6-merge:0"])
    def test_word_path_kill_recovers_lossy_float_keys_bit_for_bit(self, spec):
        data = _signed_zero_nan_floats()
        blocks, offsets = partition_input(data, 4)
        plan = RealFaultPlan.from_spec(spec, seed=7)
        with ProcessBackend(chaos=plan, retry=FAST, sanitize=True) as backend:
            run = backend.sort_blocks(blocks)
            result = run.to_sort_result(offsets)
            san = backend.sanitizer
        assert run.retries == 1
        assert result.survivors is None
        _assert_recovered_bit_for_bit(run, result, data, 4)
        # Both generations were sanitized: the killed attempt's partial
        # log and the clean retry.
        assert san.report.runs == 2
        assert san.report.ok, san.report.summary()

    def test_chaos_without_explicit_retry_arms_default_policy(self):
        blocks = _blocks()
        plan = RealFaultPlan.from_spec("kill=0@2-sampling:0", seed=1)
        with ProcessBackend(chaos=plan) as backend:
            run = backend.sort_blocks(blocks)
        assert run.retries == 1  # recovered, not raised

    def test_retry_false_pins_fail_fast_under_chaos(self):
        blocks = _blocks()
        plan = RealFaultPlan.from_spec("kill=1@5-exchange:0", seed=7)
        with ProcessBackend(chaos=plan, retry=False) as backend:
            with pytest.raises(WorkerCrashedError) as excinfo:
                backend.sort_blocks(blocks)
        assert excinfo.value.job_id == 0  # provenance still attached

    def test_exhaustion_raises_job_aborted_with_history(self):
        blocks = _blocks(n=4_000)
        plan = RealFaultPlan.from_spec("poison=0", seed=0)
        policy = dataclasses.replace(FAST, max_attempts=2, degrade_after=None)
        with ProcessBackend(chaos=plan, retry=policy) as backend:
            with pytest.raises(JobAbortedError) as excinfo:
                backend.sort_blocks(blocks)
        exc = excinfo.value
        assert exc.job_id == 0
        assert len(exc.attempts) == 2
        assert all(record["rank"] == 0 for record in exc.attempts)
        assert "aborted after 2 failed attempts" in str(exc)
        assert backend.stats["aborted_jobs"] == 1

    def test_no_chaos_run_reports_zero_recovery_surface(self):
        blocks, offsets = partition_input(_data(), 4)
        with ProcessBackend() as backend:
            run = backend.sort_blocks(list(blocks))
        assert run.retries == 0
        assert run.attempt_history == ()
        assert run.survivors is None and run.recovery_rounds == 0
        result = run.to_sort_result(offsets)
        assert result.survivors is None
        # The faults block stays absent from metrics on clean runs (the
        # golden run-report snapshot depends on this).
        metrics = run.cluster_metrics()
        assert all(
            m.retries == 0 and m.timeouts == 0 and not m.crashed
            for m in metrics.processes
        )


class TestSurvivorDegradedRecovery:
    def test_poisoned_rank_degrades_to_survivors(self):
        data = _data()
        blocks, offsets = partition_input(data, 4)
        plan = RealFaultPlan.from_spec("poison=2", seed=7)
        with ProcessBackend(chaos=plan, retry=FAST) as backend:
            run = backend.sort_blocks(blocks)
            result = run.to_sort_result(offsets)
        assert result.survivors == (0, 1, 3)
        assert result.recovery_rounds == 1
        assert result.is_globally_sorted()
        _assert_oracle_identical(result, data, 4)
        assert backend.stats["degraded_jobs"] == 1
        assert backend.stats["retries"] >= 2  # degrade_after crashes

    def test_word_path_survivors_keep_lossy_float_keys_and_origins(self):
        # Poison-until-excluded on the word path: the rank tag packed into
        # every word is the survivor *slot*, exactly as proc_col was, and
        # the expansion maps it back to the original rank id.
        data = _signed_zero_nan_floats()
        blocks, offsets = partition_input(data, 4)
        plan = RealFaultPlan.from_spec("poison=2", seed=7)
        with ProcessBackend(chaos=plan, retry=FAST, sanitize=True) as backend:
            run = backend.sort_blocks(blocks)
            result = run.to_sort_result(offsets)
            san = backend.sanitizer
        assert result.survivors == (0, 1, 3)
        assert result.recovery_rounds == 1
        _assert_recovered_bit_for_bit(run, result, data, 4)
        assert set(np.concatenate([p.origin_proc for p in result.provenance])) == {0, 1, 3}
        assert san.report.runs == run.retries + 1
        assert san.report.ok, san.report.summary()

    def test_degraded_provenance_round_trips_to_origin(self):
        data = _data(n=12_000)
        blocks, offsets = partition_input(data, 4)
        plan = RealFaultPlan.from_spec("poison=1", seed=7)
        with ProcessBackend(chaos=plan, retry=FAST) as backend:
            result = backend.sort_blocks(blocks).to_sort_result(offsets)
        # gather_values pulls each sorted key's original value through
        # provenance — equality proves origin_proc survived renumbering.
        np.testing.assert_array_equal(
            result.gather_values(data), result.to_array()
        )

    def test_degraded_counts_matrix_stays_rank_aligned(self):
        data = _data(n=12_000)
        blocks, offsets = partition_input(data, 4)
        plan = RealFaultPlan.from_spec("poison=3", seed=7)
        with ProcessBackend(chaos=plan, retry=FAST) as backend:
            run = backend.sort_blocks(blocks)
        assert run.counts_matrix.shape == (4, 4)
        assert run.counts_matrix[3].sum() == 0  # dead rank sent nothing
        assert run.counts_matrix[:, 3].sum() == 0  # and received nothing
        assert run.counts_matrix.sum() == len(data)

    def test_transient_faults_do_not_degrade(self):
        # Two different transient kills on the same job: both retries
        # recover at full width because neither rank reaches the
        # degrade_after threshold.
        data = _data()
        blocks, offsets = partition_input(data, 4)
        plan = RealFaultPlan(
            seed=0,
            kills=((0, 1, "5-exchange"),),
        )
        policy = dataclasses.replace(FAST, degrade_after=2)
        with ProcessBackend(chaos=plan, retry=policy) as backend:
            result = backend.sort_blocks(blocks).to_sort_result(offsets)
        assert result.survivors is None
        _assert_oracle_identical(result, data, 4)


class TestHangAndPhaseDeadline:
    def test_hang_converts_to_timeout_then_recovers(self):
        data = _data(n=8_000)
        blocks, offsets = partition_input(data, 4)
        plan = RealFaultPlan.from_spec("hang=2@gather:0", seed=7)
        with ProcessBackend(
            chaos=plan, retry=FAST, phase_timeout_seconds=1.0
        ) as backend:
            run = backend.sort_blocks(blocks)
            result = run.to_sort_result(offsets)
        assert run.retries == 1
        record = run.attempt_history[0]
        assert record["error"] == "ControlPlaneTimeout"
        assert record["rank"] == 2  # attributed via missing_ranks
        assert result.survivors is None
        _assert_oracle_identical(result, data, 4)


class TestLatencyAndStragglers:
    def test_delay_spikes_do_not_change_bits(self):
        data = _data(n=8_000)
        blocks, offsets = partition_input(data, 4)
        plan = RealFaultPlan.from_spec("delay=0.5:0.001", seed=5)
        with ProcessBackend(chaos=plan) as backend:
            result = backend.sort_blocks(blocks).to_sort_result(offsets)
        _assert_oracle_identical(result, data, 4)

    def test_muted_and_slow_ranks_still_sort_identically(self):
        data = _data(n=8_000)
        blocks, offsets = partition_input(data, 4)
        plan = RealFaultPlan.from_spec("mute=0,slow=1x1.5", seed=5)
        with ProcessBackend(chaos=plan) as backend:
            run = backend.sort_blocks(blocks)
            result = run.to_sort_result(offsets)
        assert run.retries == 0
        _assert_oracle_identical(result, data, 4)


# ------------------------------------------------------ pooled streaming


class TestChaosStreams:
    def test_kill_one_worker_per_job_stream_recovers_every_job(self):
        p, jobs = 4, 4
        datasets = [_data(n=8_000, seed=seed) for seed in range(jobs)]
        plan = kill_one_per_job(jobs, p, seed=0)
        sorter = DistributedSorter(SortConfig(num_processors=p))
        with inject_real_faults(plan):
            with sorter.pool(retry=FAST) as pool:
                results = pool.sort_many(datasets)
                stats = pool.stats
        assert stats["retries"] == jobs  # exactly one kill per job
        assert stats["degraded_jobs"] == 0
        assert stats["jobs_completed"] == jobs
        for data, result in zip(datasets, results):
            assert result.survivors is None
            _assert_oracle_identical(result, data, p)

    def test_ambient_plan_scope_arms_and_disarms(self):
        plan = RealFaultPlan.from_spec("poison=9")
        assert active_real_fault_plan() is None
        with inject_real_faults(plan):
            assert active_real_fault_plan() is plan
        assert active_real_fault_plan() is None

    def test_stream_failure_names_job_and_stream_index(self):
        p = 4
        datasets = [_data(n=6_000, seed=seed) for seed in range(3)]
        plan = RealFaultPlan.from_spec("kill=0@1-local-sort:1", seed=0)
        sorter = DistributedSorter(SortConfig(num_processors=p))
        with sorter.pool(chaos=plan, retry=False) as pool:
            with pytest.raises(WorkerCrashedError) as excinfo:
                pool.sort_many(datasets)
        exc = excinfo.value
        assert exc.job_id == 1
        assert exc.stream_index == 1
        assert "[job 1]" in str(exc) and "[stream index 1]" in str(exc)

    def test_pool_closed_after_abort_raises_pool_closed(self):
        blocks = _blocks(n=4_000)
        plan = RealFaultPlan.from_spec("poison=0", seed=0)
        policy = dataclasses.replace(FAST, max_attempts=1, degrade_after=None)
        backend = ProcessBackend(chaos=plan, retry=policy)
        with pytest.raises(JobAbortedError):
            backend.sort_blocks(blocks)
        backend.close()
        with pytest.raises(PoolClosedError):
            backend.sort_blocks(blocks)

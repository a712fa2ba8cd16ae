"""Crash-resilient real-backend sorting under the one fault plan: the
process keys (kills, poisons, hangs, delay spikes, muted heartbeats, slow
ranks), job retry with backoff, and survivor-degraded recovery — every
recovered job bit-identical to the local oracle."""

import dataclasses

import numpy as np
import pytest

from repro.core.api import DistributedSorter, SortConfig, partition_input
from repro.core.local_backend import local_sample_sort
from repro.core.sorter import STEP_LABELS
from repro.faults import FaultPlan, active_fault_plan, inject_faults, kill_one_per_job
from repro.obs import capture
from repro.obs.report import RunReport
from repro.parallel import (
    ControlPlaneTimeout,
    JobAbortedError,
    PoolClosedError,
    ProcessBackend,
    RetryPolicy,
    WorkerCrashedError,
    shm_sanitize,
)

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


class TestProcessFaultGrammar:
    def test_kill_spec_round_trip(self):
        plan = FaultPlan.from_spec("kill=2@5-exchange", seed=3)
        assert plan.kills == ((None, 2, "5-exchange"),)
        assert plan.seed == 3

    def test_kill_accepts_step_index_and_job_scope(self):
        plan = FaultPlan.from_spec("kill=1@5:7")
        assert plan.kills == ((7, 1, "5-exchange"),)

    def test_full_grammar(self):
        plan = FaultPlan.from_spec(
            "kill=1@3:0,poison=2,hang=0@gather:1,delay=0.25:0.002,"
            "mute=3,slow=1x2.5",
            seed=11,
        )
        assert plan.kills == ((0, 1, "3-splitters"),)
        assert plan.poisoned == (2,)
        assert plan.hangs == ((1, 0, "gather"),)
        assert plan.delay_prob == 0.25
        assert plan.delay_spike == 0.002
        assert plan.muted == (3,)
        assert plan.slow == ((1, 2.5),)
        plan.check_ranks(4)
        with pytest.raises(ValueError, match="fault spec mute names rank 3"):
            plan.check_ranks(3)
        text = plan.describe()
        assert "seed=11" in text and "poison=2" in text

    @pytest.mark.parametrize(
        "spec",
        [
            "kill=1@3-splitters:0",
            "poison=2",
            "hang=0@gather:1",
            "delay=0.25:0.002",
            "mute=3",
            "slow=1x2.5",
        ],
    )
    def test_describe_prints_a_spec_that_parses_back(self, spec):
        plan = FaultPlan.from_spec(spec, seed=9)
        head, _, body = plan.describe()[:-1].partition(", ")
        assert head == "FaultPlan(seed=9"
        assert body == spec
        assert FaultPlan.from_spec(body, seed=9) == plan

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
            FaultPlan.from_spec(spec)

    def test_plans_are_frozen_and_hashable(self):
        a = FaultPlan.from_spec("poison=1", seed=2)
        b = FaultPlan.from_spec("poison=1", seed=2)
        assert a == b and hash(a) == hash(b)

    def test_kill_one_per_job_round_robin(self):
        plan = kill_one_per_job(5, 3, step="2-sampling", seed=9)
        assert plan.kills == tuple(
            (job, job % 3, "2-sampling") for job in range(5)
        )


class TestWorkerStateLookup:
    """Worker decisions are pure lookups in the attempt's slot-addressed
    plan — no rng in the worker."""

    def test_kill_is_first_attempt_only(self):
        plan = FaultPlan.from_spec("kill=1@5-exchange:0")
        assert plan.for_attempt(range(4), 0, job=0).kill_step(1) == "5-exchange"
        assert plan.for_attempt(range(4), 1, job=0).kill_step(1) is None  # transient
        assert plan.for_attempt(range(4), 0, job=3).kill_step(1) is None  # other job
        assert plan.for_attempt(range(4), 0, job=0).kill_step(0) is None  # other rank

    def test_directly_constructed_index_step_fires(self):
        # An index-form step used to pass validation un-normalised and
        # then never match a step label: the plan injected nothing.
        plan = FaultPlan(kills=((None, 1, "5"),))
        assert plan == FaultPlan.from_spec("kill=1@5")
        assert plan.for_attempt(range(4), 0).kill_step(1) == "5-exchange"

    def test_poison_kills_every_attempt(self):
        plan = FaultPlan.from_spec("poison=2")
        for attempt in range(3):
            assert plan.for_attempt(range(4), attempt, job=5).kill_step(2) == "1-local-sort"
        # Under a survivor re-plan the poison follows its rank to its slot.
        assert plan.for_attempt((0, 2, 3), 2).kill_step(1) == "1-local-sort"

    def test_hang_is_first_attempt_only(self):
        plan = FaultPlan.from_spec("hang=0@barrier")
        assert plan.for_attempt(range(4), 0, job=2).hang_op(0) == "barrier"
        assert plan.for_attempt(range(4), 1, job=2).hang_op(0) is None

    def test_hub_delay_state_is_seeded_per_job_and_attempt(self):
        plan = FaultPlan.from_spec("delay=0.5:0.0", seed=13)
        a = plan.for_attempt(range(4), 0, job=0)
        assert a.seed == plan.for_attempt(range(4), 0, job=0).seed  # a replay draws alike
        assert a.seed != plan.for_attempt(range(4), 1, job=0).seed  # a retry draws afresh
        assert a.seed != plan.for_attempt(range(4), 0, job=1).seed  # so does another job
        assert a.delay_prob == 0.5

    def test_no_delay_means_no_hub_state(self):
        assert FaultPlan.from_spec("poison=1").for_attempt(range(4), 0).delay_prob == 0.0


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
        blocks, _ = partition_input(data, 4)
        plan = FaultPlan.from_spec("kill=1@5-exchange:0", seed=7)
        with inject_faults(plan), ProcessBackend(retry=FAST) as backend:
            run = backend.sort_blocks(blocks)
            result = run.to_sort_result()
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
        blocks, _ = partition_input(data, 4)
        plan = FaultPlan.from_spec(spec, seed=7)
        with inject_faults(plan), shm_sanitize() as san, ProcessBackend(retry=FAST) as backend:
            run = backend.sort_blocks(blocks)
            result = run.to_sort_result()
        assert run.retries == 1
        assert result.survivors is None
        _assert_recovered_bit_for_bit(run, result, data, 4)
        # Both generations were sanitized: the killed attempt's partial
        # log and the clean retry.
        assert san.report.runs == 2
        assert san.report.ok, san.report.summary()

    def test_chaos_without_explicit_retry_arms_default_policy(self):
        blocks = _blocks()
        plan = FaultPlan.from_spec("kill=0@2-sampling:0", seed=1)
        with inject_faults(plan), ProcessBackend() as backend:
            run = backend.sort_blocks(blocks)
        assert run.retries == 1  # recovered, not raised

    def test_retry_false_pins_fail_fast_under_chaos(self):
        blocks = _blocks()
        plan = FaultPlan.from_spec("kill=1@5-exchange:0", seed=7)
        with inject_faults(plan), ProcessBackend(retry=False) as backend:
            with pytest.raises(WorkerCrashedError) as excinfo:
                backend.sort_blocks(blocks)
        assert excinfo.value.job_id == 0  # provenance still attached

    def test_exhaustion_raises_job_aborted_with_history(self):
        blocks = _blocks(n=4_000)
        plan = FaultPlan.from_spec("poison=0", seed=0)
        policy = dataclasses.replace(FAST, max_attempts=2, degrade_after=None)
        with inject_faults(plan), ProcessBackend(retry=policy) as backend:
            with pytest.raises(JobAbortedError) as excinfo:
                backend.sort_blocks(blocks)
        exc = excinfo.value
        assert exc.job_id == 0
        assert len(exc.attempts) == 2
        assert all(record["rank"] == 0 for record in exc.attempts)
        assert "aborted after 2 failed attempts" in str(exc)
        assert backend.stats["aborted_jobs"] == 1

    def test_no_chaos_run_reports_zero_recovery_surface(self):
        blocks, _ = partition_input(_data(), 4)
        with ProcessBackend() as backend:
            run = backend.sort_blocks(list(blocks))
        assert run.retries == 0
        assert run.attempt_history == ()
        assert run.survivors is None and run.recovery_rounds == 0
        result = run.to_sort_result()
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
        blocks, _ = partition_input(data, 4)
        plan = FaultPlan.from_spec("poison=2", seed=7)
        with inject_faults(plan), ProcessBackend(retry=FAST) as backend:
            run = backend.sort_blocks(blocks)
            result = run.to_sort_result()
        assert result.survivors == (0, 1, 3)
        assert result.recovery_rounds == 1
        assert result.is_globally_sorted()
        _assert_oracle_identical(result, data, 4)
        assert backend.stats["degraded_jobs"] == 1
        assert backend.stats["retries"] >= 2  # degrade_after crashes

    def test_word_path_survivors_keep_lossy_float_keys_and_origins(self):
        # Poison-until-excluded on the word path: every word packs the
        # key's position in the survivors' re-planned input, which is its
        # position in the original one, and the expanded block starts name
        # the original rank id.
        data = _signed_zero_nan_floats()
        blocks, _ = partition_input(data, 4)
        plan = FaultPlan.from_spec("poison=2", seed=7)
        with inject_faults(plan), shm_sanitize() as san, ProcessBackend(retry=FAST) as backend:
            run = backend.sort_blocks(blocks)
            result = run.to_sort_result()
        assert result.survivors == (0, 1, 3)
        assert result.recovery_rounds == 1
        _assert_recovered_bit_for_bit(run, result, data, 4)
        assert set(np.concatenate([p.origin_proc for p in result.provenance])) == {0, 1, 3}
        assert san.report.runs == run.retries + 1
        assert san.report.ok, san.report.summary()

    def test_degraded_provenance_round_trips_to_origin(self):
        data = _data(n=12_000)
        blocks, _ = partition_input(data, 4)
        plan = FaultPlan.from_spec("poison=1", seed=7)
        with inject_faults(plan), ProcessBackend(retry=FAST) as backend:
            result = backend.sort_blocks(blocks).to_sort_result()
        # gather_values pulls each sorted key's original value through
        # provenance — equality proves origin_proc survived renumbering.
        np.testing.assert_array_equal(
            result.gather_values(data), result.to_array()
        )

    def test_degraded_counts_matrix_stays_rank_aligned(self):
        data = _data(n=12_000)
        blocks, _ = partition_input(data, 4)
        plan = FaultPlan.from_spec("poison=3", seed=7)
        with inject_faults(plan), ProcessBackend(retry=FAST) as backend:
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
        blocks, _ = partition_input(data, 4)
        plan = FaultPlan(
            seed=0,
            kills=((0, 1, "5-exchange"),),
        )
        policy = dataclasses.replace(FAST, degrade_after=2)
        with inject_faults(plan), ProcessBackend(retry=policy) as backend:
            result = backend.sort_blocks(blocks).to_sort_result()
        assert result.survivors is None
        _assert_oracle_identical(result, data, 4)


class TestHangAndPhaseDeadline:
    def test_hang_converts_to_timeout_then_recovers(self):
        data = _data(n=8_000)
        blocks, _ = partition_input(data, 4)
        plan = FaultPlan.from_spec("hang=2@gather:0", seed=7)
        with inject_faults(plan), ProcessBackend(
            retry=FAST, phase_timeout_seconds=1.0
        ) as backend:
            run = backend.sort_blocks(blocks)
            result = run.to_sort_result()
        assert run.retries == 1
        record = run.attempt_history[0]
        assert record["error"] == "ControlPlaneTimeout"
        assert record["rank"] == 2  # attributed via missing_ranks
        # A timed-out attempt is charged to its rank as a timeout, not a
        # retry, in the result's metrics and in its report alike.
        charged = result.metrics.processes[2]
        assert (charged.timeouts, charged.retries) == (1, 0)
        faults = RunReport.from_sort_result(result).ranks[2].faults
        assert (faults["timeouts"], faults["retries"]) == (1, 0)
        assert result.survivors is None
        _assert_oracle_identical(result, data, 4)


class TestLatencyAndStragglers:
    def test_delay_spikes_do_not_change_bits(self):
        data = _data(n=8_000)
        blocks, _ = partition_input(data, 4)
        plan = FaultPlan.from_spec("delay=0.5:0.001", seed=5)
        with inject_faults(plan), ProcessBackend() as backend:
            result = backend.sort_blocks(blocks).to_sort_result()
        _assert_oracle_identical(result, data, 4)

    def test_muted_and_slow_ranks_still_sort_identically(self):
        data = _data(n=8_000)
        blocks, _ = partition_input(data, 4)
        plan = FaultPlan.from_spec("mute=0,slow=1x1.5", seed=5)
        with inject_faults(plan), ProcessBackend() as backend:
            run = backend.sort_blocks(blocks)
            result = run.to_sort_result()
        assert run.retries == 0
        _assert_oracle_identical(result, data, 4)

    def test_a_slow_rank_stretches_every_step_step_six_included(self):
        # slow=RxM means the same on both substrates: simnet multiplies
        # every Compute of the rank, step 6's merge among them.
        blocks, _ = partition_input(_data(n=8_000), 4)
        plan = FaultPlan.from_spec("slow=1x3", seed=5)
        with capture() as cap, inject_faults(plan), ProcessBackend() as backend:
            backend.sort_blocks(blocks)
        stretched = [
            fault.detail.split(":")[0]
            for fault in cap.tracers[-1].faults
            if fault.kind == "slow" and fault.rank == 1
        ]
        assert stretched == list(STEP_LABELS)


# ------------------------------------------------------ pooled streaming


class TestChaosStreams:
    def test_kill_one_worker_per_job_stream_recovers_every_job(self):
        p, jobs = 4, 4
        datasets = [_data(n=8_000, seed=seed) for seed in range(jobs)]
        plan = kill_one_per_job(jobs, p, seed=0)
        sorter = DistributedSorter(SortConfig(num_processors=p))
        with inject_faults(plan):
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
        plan = FaultPlan.from_spec("poison=9")
        assert active_fault_plan() is None
        with inject_faults(plan):
            assert active_fault_plan() is plan
        assert active_fault_plan() is None

    def test_stream_failure_names_job_and_stream_index(self):
        p = 4
        datasets = [_data(n=6_000, seed=seed) for seed in range(3)]
        plan = FaultPlan.from_spec("kill=0@1-local-sort:1", seed=0)
        # The sorter's plan reaches its pool's jobs through the sorter's
        # scope, with the same history and counters as when the pool took
        # the plan as an argument.
        sorter = DistributedSorter(SortConfig(num_processors=p, faults=plan))
        with sorter.pool(retry=False) as pool:
            with pytest.raises(WorkerCrashedError) as excinfo:
                pool.sort_many(datasets)
            stats = pool.stats
        exc = excinfo.value
        assert exc.job_id == 1
        assert exc.stream_index == 1
        assert exc.rank == 0
        assert "[job 1]" in str(exc) and "[stream index 1]" in str(exc)
        assert {k: stats[k] for k in ("pool_spawns", "jobs_completed", "retries", "aborted_jobs")} == {
            "pool_spawns": 1, "jobs_completed": 1, "retries": 0, "aborted_jobs": 0,
        }
        with sorter.pool(retry=FAST) as pool:
            histories = []
            for data in datasets:
                pool.sort(data)
                histories.append(pool.last_run.attempt_history)
            stats = pool.stats
        assert histories == [
            (),
            ({"attempt": 0, "error": "WorkerCrashedError", "rank": 0, "exitcode": -9, "last_step": None},),
            (),
        ]
        assert {k: stats[k] for k in ("pool_spawns", "respawns", "jobs_completed", "retries", "degraded_jobs")} == {
            "pool_spawns": 2, "respawns": 1, "jobs_completed": 3, "retries": 1, "degraded_jobs": 0,
        }
        # The sorter's own stream over a live instance stamps it too.
        with inject_faults(plan), ProcessBackend(retry=False) as backend:
            sorter = DistributedSorter(SortConfig(num_processors=p, backend=backend))
            with pytest.raises(WorkerCrashedError) as excinfo:
                sorter.sort_many(datasets)
        assert excinfo.value.job_id == 1
        assert excinfo.value.stream_index == 1

    def test_pool_closed_after_abort_raises_pool_closed(self):
        blocks = _blocks(n=4_000)
        plan = FaultPlan.from_spec("poison=0", seed=0)
        policy = dataclasses.replace(FAST, max_attempts=1, degrade_after=None)
        backend = ProcessBackend(retry=policy)
        with inject_faults(plan), pytest.raises(JobAbortedError):
            backend.sort_blocks(blocks)
        backend.close()
        with pytest.raises(PoolClosedError):
            backend.sort_blocks(blocks)


# ------------------------------------------------- the plan on the sorter


class TestThePlanReachesThePool:
    def test_a_rank_outside_the_pool_is_rejected_before_attempt_0(self):
        blocks = _blocks(n=2_000, p=2)
        with inject_faults(FaultPlan.from_spec("poison=7")), ProcessBackend(retry=FAST) as backend:
            with pytest.raises(ValueError, match="fault spec poison names rank 7"):
                backend.sort_blocks(blocks)
            assert backend.stats["pool_spawns"] == 0

    @pytest.mark.parametrize("spec", ["drop=0.1", "link=0-1:2.0"])
    def test_a_wire_key_without_a_wire_is_rejected(self, spec):
        with inject_faults(FaultPlan.from_spec(spec)), ProcessBackend() as backend:
            with pytest.raises(ValueError, match="cannot be realised on the process substrate"):
                backend.sort_blocks(_blocks(n=2_000, p=2))

    @pytest.mark.parametrize("live", [False, True], ids=["by-name", "live-instance"])
    def test_the_sorters_plan_degrades_the_pool(self, live):
        data = _data(n=12_000)
        plan = FaultPlan.from_spec("poison=1", seed=7)
        if live:
            with ProcessBackend(retry=FAST) as backend:
                result = DistributedSorter(num_processors=4, faults=plan, backend=backend).sort(data)
        else:
            result = DistributedSorter(num_processors=4, faults=plan, backend="process").sort(data)
        assert result.survivors == (0, 2, 3)
        assert result.recovery_rounds == 1
        _assert_oracle_identical(result, data, 4)

    def test_the_sorters_plan_reaches_its_pool(self):
        datasets = [_data(n=6_000, seed=seed) for seed in range(2)]
        sorter = DistributedSorter(num_processors=4, faults=kill_one_per_job(2, 4), backend="process")
        results = sorter.sort_many(datasets)
        assert [sum(m.retries for m in r.metrics.processes) for r in results] == [1, 1]
        for data, result in zip(datasets, results):
            _assert_oracle_identical(result, data, 4)

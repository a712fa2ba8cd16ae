"""Cross-backend equivalence: the process backend must reproduce, bit for
bit, the partitions of the in-process oracle and the simnet golden run."""

import json
import pathlib

import numpy as np
import pytest

from repro.core.api import DistributedSorter, partition_input
from repro.core.local_backend import local_sample_sort
from repro.core.sorter import SortOptions
from repro.parallel import (
    ParallelBackendError,
    ProcessBackend,
    RealFaultPlan,
    WorkerCrashedError,
    default_backend,
    resolve_backend,
    use_backend,
)

GOLDEN_PATH = pathlib.Path(__file__).parents[1] / "golden" / "sim_golden_p16.json"


def _integral_float64(rng, n):
    """Integral float64 keys salted with -0.0, NaN (both signs) and ±inf."""
    keys = np.floor(rng.exponential(2000, n)) * rng.choice([-1.0, 1.0], n)
    keys[::5] = np.abs(keys[::5]) % 7  # duplicates and +0.0
    for start, value in ((11, -0.0), (13, np.nan), (17, -np.nan), (19, np.inf), (23, -np.inf)):
        keys[start::29] = value
    return keys


def _workloads(n=20_000, seed=7):
    rng = np.random.default_rng(seed)
    return {
        "uniform": rng.integers(0, 1 << 40, n).astype(np.int64),
        "duplicate_heavy": rng.integers(0, 50, n).astype(np.int64),
        "presorted": np.sort(rng.integers(0, 1 << 30, n).astype(np.int64)),
        "tiny": rng.integers(0, 100, 7).astype(np.int64),
        "empty": np.empty(0, dtype=np.int64),
        "float_keys": rng.normal(size=n),
        "uint32_keys": rng.integers(0, 1 << 31, n).astype(np.uint32),
        # Newly on the packed step-1 path through the key codec.
        "integral_float64": _integral_float64(rng, n),
        "float32_keys": rng.normal(size=n).astype(np.float32),
        "uint64_keys": rng.integers(0, 1 << 40, n).astype(np.uint64),
    }


def _assert_bit_identical(reference, run):
    for rank, out in enumerate(run.outputs):
        ref_keys = reference.per_processor[rank]
        assert out.keys.dtype == ref_keys.dtype
        # Bytes, not values: -0.0 vs +0.0 and NaN payloads must agree too.
        assert out.keys.tobytes() == ref_keys.tobytes()
        ref_prov = reference.provenance[rank]
        assert out.provenance.origin_proc.dtype == ref_prov.origin_proc.dtype
        assert out.provenance.origin_index.dtype == ref_prov.origin_index.dtype
        np.testing.assert_array_equal(out.provenance.origin_proc, ref_prov.origin_proc)
        np.testing.assert_array_equal(out.provenance.origin_index, ref_prov.origin_index)
    assert run.splitters.dtype == reference.splitters.dtype
    np.testing.assert_array_equal(run.splitters, reference.splitters)


class TestOracleEquivalence:
    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("name", sorted(_workloads(16, 0)))
    def test_bit_identical_to_local_backend(self, p, name):
        data = _workloads()[name]
        blocks = list(partition_input(data, p)[0])
        reference = local_sample_sort(blocks)
        with ProcessBackend() as backend:
            run = backend.sort_blocks(blocks)
        _assert_bit_identical(reference, run)

    def test_single_rank(self):
        workloads = _workloads()
        with ProcessBackend() as backend:
            for name in ("uniform", "integral_float64", "float32_keys", "uint64_keys"):
                data = workloads[name]
                reference = local_sample_sort([data])
                _assert_bit_identical(reference, backend.sort_blocks([data]))

    def test_no_investigator_variant_matches_oracle(self):
        data = _workloads()["duplicate_heavy"]
        blocks = list(partition_input(data, 4)[0])
        options = SortOptions(investigator=False)
        reference = local_sample_sort(blocks, options)
        with ProcessBackend() as backend:
            run = backend.sort_blocks(blocks, options=options)
        _assert_bit_identical(reference, run)

    def test_step1_path_reported_off_word_path(self):
        from repro.obs.report import RunReport

        workloads = _workloads()
        # 10k-key blocks on 2 ranks: 14 index bits + 1 rank bit leave codes
        # below 2^47 for the job's frame, below 2^48 for one block's pack.
        frame_misfit = workloads["uniform"] | (1 << 47)
        with ProcessBackend() as backend:
            for keys, path in (
                (workloads["integral_float64"], "through"),
                (frame_misfit, "packed"),
                (workloads["float_keys"], "stable"),  # full-mantissa float64
            ):
                run = backend.sort_blocks(list(partition_input(keys, 2)[0]))
                assert [r.local_sort_path for r in run.reports] == [path] * 2
                doc = RunReport.from_backend_run(run).to_json()
                assert RunReport.from_json(doc).to_json() == doc
                ranks = doc["ranks"]
                if path == "through":  # key absent: the fast report schema holds
                    assert all("local_sort_path" not in r for r in ranks)
                else:
                    assert [r["local_sort_path"] for r in ranks] == [path] * 2

    def test_arena_pools_across_sorts(self):
        blocks = list(partition_input(_workloads()["uniform"], 4)[0])
        with ProcessBackend() as backend:
            backend.sort_blocks(blocks)
            allocations = backend.arena.allocations
            backend.sort_blocks(blocks)
            assert backend.arena.allocations == allocations

    def test_dtype_mismatch_is_typed(self):
        blocks = [np.arange(4, dtype=np.int64), np.arange(4, dtype=np.int32)]
        with ProcessBackend() as backend:
            with pytest.raises(ParallelBackendError, match="dtype-uniform"):
                backend.sort_blocks(blocks)


class TestSimnetEquivalence:
    def test_partitions_match_simnet(self):
        data = _workloads()["uniform"]
        p = 4
        sim = DistributedSorter(num_processors=p).sort(data)
        real = DistributedSorter(num_processors=p, backend="process").sort(data)
        for rank in range(p):
            np.testing.assert_array_equal(sim.per_processor[rank], real.per_processor[rank])
            np.testing.assert_array_equal(
                sim.provenance[rank].origin_proc, real.provenance[rank].origin_proc
            )
            np.testing.assert_array_equal(
                sim.provenance[rank].origin_index, real.provenance[rank].origin_index
            )
        np.testing.assert_array_equal(sim.counts_matrix, real.counts_matrix)
        assert real.is_globally_sorted()

    @pytest.mark.parametrize(
        "name", ["integral_float64", "float32_keys", "uint64_keys"]
    )
    def test_codec_dtypes_match_the_oracle_on_simnet(self, name):
        # Same arrays as the process-backend rows above, through simnet's
        # step 1 (core/local_sort.py), against the literal-argsort oracle.
        data = _workloads()[name]
        p = 4
        reference = local_sample_sort(list(partition_input(data, p)[0]))
        sim = DistributedSorter(num_processors=p).sort(data)
        for rank in range(p):
            assert sim.per_processor[rank].dtype == data.dtype
            assert (
                sim.per_processor[rank].tobytes()
                == reference.per_processor[rank].tobytes()
            )
            np.testing.assert_array_equal(
                sim.provenance[rank].origin_proc, reference.provenance[rank].origin_proc
            )
            np.testing.assert_array_equal(
                sim.provenance[rank].origin_index, reference.provenance[rank].origin_index
            )

    def test_matches_golden_p16_fingerprint(self):
        """The committed simnet golden digests pin the process backend too."""
        from repro.analysis.determinism import _digest

        golden = json.loads(GOLDEN_PATH.read_text())
        wl = golden["workload"]
        rng = np.random.default_rng(wl["seed"])
        data = rng.integers(0, 1 << 40, wl["n_keys"]).astype(np.int64)
        blocks = list(partition_input(data, wl["num_ranks"])[0])
        with ProcessBackend() as backend:
            run = backend.sort_blocks(blocks)
        keys = [out.keys for out in run.outputs]
        prov = []
        for out in run.outputs:
            prov.append(out.provenance.origin_proc)
            prov.append(out.provenance.origin_index)
        assert [len(k) for k in keys] == golden["output_sizes"]
        assert _digest(keys) == golden["output_keys_sha256"]
        assert _digest(prov) == golden["output_provenance_sha256"]


class TestBackendSelection:
    def test_sorter_accepts_backend_override(self):
        result = DistributedSorter(num_processors=2, backend="process").sort(
            np.arange(100)[::-1].copy()
        )
        assert result.is_globally_sorted()
        assert result.elapsed_seconds > 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            DistributedSorter(num_processors=2, backend="threads")

    def test_ambient_use_backend_scope(self):
        assert default_backend() == "simnet"
        with use_backend("process"):
            assert resolve_backend(None) == "process"
            result = DistributedSorter(num_processors=2).sort(
                np.array([5, 1, 4, 2, 3, 0], dtype=np.int64)
            )
            assert result.is_globally_sorted()
        assert resolve_backend(None) == "simnet"

    def test_explicit_simnet_wins_over_ambient(self):
        with use_backend("process"):
            assert resolve_backend("simnet") == "simnet"


class TestFailureHandling:
    def test_crash_of_one_worker_is_typed_not_a_hang(self):
        blocks = list(partition_input(_workloads()["uniform"], 4)[0])
        backend = ProcessBackend(
            chaos=RealFaultPlan.from_spec("kill=2@6-merge"),
            retry=False,
            timeout_seconds=30.0,
        )
        try:
            with pytest.raises(WorkerCrashedError) as excinfo:
                backend.sort_blocks(blocks)
            assert excinfo.value.rank == 2
            assert excinfo.value.exitcode == -9  # SIGKILL
            # Heartbeat-enriched diagnostics: a planned kill fires on
            # entering step 6, so the last heartbeat is step 5's, and the
            # message says so.
            assert excinfo.value.last_step == "5-exchange"
            assert "last heartbeat at step '5-exchange'" in str(excinfo.value)
        finally:
            backend.close()

    def test_backend_still_usable_after_a_crash(self):
        blocks = list(partition_input(_workloads()["uniform"], 2)[0])
        backend = ProcessBackend(
            chaos=RealFaultPlan.from_spec("kill=0@1-local-sort:0"),
            retry=False,
            timeout_seconds=30.0,
        )
        try:
            with pytest.raises(WorkerCrashedError):
                backend.sort_blocks(blocks)
            # The kill was scoped to job 0; job 1 runs on a fresh generation.
            reference = local_sample_sort(blocks)
            _assert_bit_identical(reference, backend.sort_blocks(blocks))
        finally:
            backend.close()

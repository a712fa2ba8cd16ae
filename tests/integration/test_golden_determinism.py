"""Golden determinism: the engine must be bit-identical to the seed engine.

The committed fingerprint in ``tests/golden/sim_golden_p16.json`` was
captured from the original interpreter-style event loop (lambda-closure
events, isinstance dispatch, linear mailbox scans) *before* any fast-path
work.  Replaying the same fixed-seed 16-rank sort on the current engine and
comparing the full fingerprint — every virtual time as a ``float.hex()``
string, every metric counter, trace event counts, and sha256 digests of the
output permutation — proves the optimization work is behavior-invariant.

Its int64 keys fit the job's key frame, so they run the word path.  The
second golden, ``sim_golden_p16_f64.json``, pins the keys + perm path that
stays for frame misses: full-mantissa float64 keys
(``python -m repro.analysis.determinism float64``), captured while that
path was the only one simnet had.

The third, ``sim_golden_faults.json``, holds one fingerprint per
:func:`repro.faults.chaos_schedules` plan over a small p = 8 sort, so the
fault paths (drops, delays, degraded links, slow nodes, kills and their
retries) are pinned too; see :meth:`TestGoldenDeterminism.
test_every_chaos_schedule_matches_its_golden` for its re-capture.

If this test fails after an engine change, the change altered simulated
behavior; that is a correctness bug, not a baseline to re-capture.
Re-capture (``python -m repro.analysis.determinism``) is only legitimate
when the *model* changes on purpose, and such a change must be called out
in the PR.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from repro.analysis.determinism import capture_fault_fingerprints, capture_sort_fingerprint
from repro.core import steps
from repro.simnet.sanitizer import sanitize

GOLDEN_DIR = Path(__file__).parent.parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "sim_golden_p16.json"
F64_GOLDEN_PATH = GOLDEN_DIR / "sim_golden_p16_f64.json"
FAULTS_GOLDEN_PATH = GOLDEN_DIR / "sim_golden_faults.json"


def _assert_same(current, golden, name):
    """Compare field by field, so a failure names what diverged rather than
    dumping two multi-KB dicts."""
    assert current.keys() == golden.keys()
    for key in golden:
        assert current[key] == golden[key], f"{name} field {key!r} diverged"


def _assert_replays(path):
    golden = json.loads(path.read_text())
    _assert_same(capture_sort_fingerprint(**golden["workload"]), golden, path.name)


def _assert_sanitized_replay(path):
    with sanitize() as san:
        _assert_replays(path)
    assert san.report.ok, san.report.summary()
    assert san.report.counts["messages_checked"] > 0


class TestGoldenDeterminism:
    def test_fingerprint_matches_seed_engine(self):
        _assert_replays(GOLDEN_PATH)

    def test_fingerprint_is_reproducible_within_process(self):
        a = capture_sort_fingerprint(num_ranks=4, n_keys=2_000, seed=7)
        b = capture_sort_fingerprint(num_ranks=4, n_keys=2_000, seed=7)
        assert a == b

    def test_sanitized_run_is_bit_identical_to_golden(self):
        """SimSan hooks must be pure observers: the golden p=16 sort run
        under the sanitizer reproduces the committed fingerprint exactly
        (same virtual times, same metrics, same output digests) and reports
        no violations.  This is the acceptance gate for every future
        sanitizer hook — if this fails, a hook perturbed simulated behavior.
        """
        _assert_sanitized_replay(GOLDEN_PATH)

    def test_frame_miss_fingerprint_matches_its_golden(self):
        _assert_replays(F64_GOLDEN_PATH)

    def test_sanitized_frame_miss_run_is_bit_identical_to_its_golden(self):
        _assert_sanitized_replay(F64_GOLDEN_PATH)

    @pytest.mark.parametrize(
        "path, merges",
        [(GOLDEN_PATH, False), (F64_GOLDEN_PATH, True)],
        ids=["int64-words", "float64-keys-perm"],
    )
    def test_each_golden_runs_its_own_data_path(self, monkeypatch, path, merges):
        """The int64 golden never reaches the keys + perm merge kernel; the
        float64 golden merges every rank through it."""
        calls = []
        kernel = steps.flat_kway_merge

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(steps, "flat_kway_merge", counting)
        golden = json.loads(path.read_text())
        capture_sort_fingerprint(**golden["workload"])
        assert len(calls) == (golden["workload"]["num_ranks"] if merges else 0)

    @pytest.mark.parametrize("threads", ["one", "default", "oversubscribed"])
    @pytest.mark.parametrize(
        "path", [GOLDEN_PATH, F64_GOLDEN_PATH], ids=["int64-words", "float64-keys-perm"]
    )
    def test_golden_does_not_depend_on_the_kernel_thread_count(self, monkeypatch, path, threads):
        """The run's kernel pool is sized from the CPUs the process may use:
        the event-loop thread and one helper per further CPU.  No helper,
        one per core, or more threads than cores switching every few
        microseconds, the bytes are the golden's."""
        from concurrent import futures

        cpus = {"one": {0}, "default": os.sched_getaffinity(0), "oversubscribed": set(range(8))}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus[threads])
        sizes = []
        executor = futures.ThreadPoolExecutor

        def recording(workers, **kwargs):
            sizes.append(workers)
            return executor(workers, **kwargs)

        monkeypatch.setattr(futures, "ThreadPoolExecutor", recording)
        interval = sys.getswitchinterval()
        try:
            if threads == "oversubscribed":
                sys.setswitchinterval(1e-5)
            _assert_replays(path)
        finally:
            sys.setswitchinterval(interval)
        helpers = len(cpus[threads]) - 1
        assert sizes == ([helpers] if helpers else [])

    def test_every_chaos_schedule_matches_its_golden(self):
        """Each chaos schedule's run, retries and degraded re-plans
        included, is the golden's bit for bit.

        The golden was captured before the engine was split into a
        scheduler and call handlers; re-capture it, only for a deliberate
        model change, with::

            PYTHONPATH=src python -c "import json, sys; from repro.analysis.determinism import capture_fault_fingerprints as c; json.dump(c(), sys.stdout, indent=1, sort_keys=True); print()" > tests/golden/sim_golden_faults.json
        """
        golden = json.loads(FAULTS_GOLDEN_PATH.read_text())
        current = capture_fault_fingerprints()
        assert current.keys() == golden.keys()
        for name in golden:
            _assert_same(current[name], golden[name], f"{FAULTS_GOLDEN_PATH.name}[{name}]")

    def test_makespan_recorded_as_hex(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        # float.hex round-trips exactly; a plain repr would not guarantee it.
        assert float.fromhex(golden["makespan"]) > 0.0

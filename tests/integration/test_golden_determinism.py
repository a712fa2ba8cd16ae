"""Golden determinism: the engine must be bit-identical to the seed engine.

Every committed golden is an entry of
:data:`repro.analysis.determinism.GOLDENS`: its file, its workload and the
capture that rebuilds it, and one test replays each capture against its
file field by field.  ``p16`` was captured from the original
interpreter-style event loop (lambda-closure events, isinstance dispatch,
linear mailbox scans) *before* any fast-path work.  Replaying the same
fixed-seed 16-rank sort on the current engine and comparing the full
fingerprint — every virtual time as a ``float.hex()`` string, every metric
counter, trace event counts, and sha256 digests of the output permutation —
proves the optimization work is behavior-invariant.

Its int64 keys fit the job's key frame, so they run the word path.
``p16_f64`` pins the keys + perm path that stays for frame misses:
full-mantissa float64 keys, captured while that path was the only one
simnet had.  ``faults`` holds one fingerprint per
:func:`repro.faults.chaos_schedules` plan over a small p = 8 sort, so the
fault paths (drops, delays, degraded links, slow nodes, kills and their
retries) are pinned too; it was captured before the engine was split into
a scheduler and call handlers.  ``run_report_p16`` snapshots the p = 16
sort's :class:`~repro.obs.report.RunReport`: any change to virtual times,
traffic, memory accounting, or flow attribution shows up as a diff there.

If this test fails after an engine change, the change altered simulated
behavior; that is a correctness bug, not a baseline to re-capture.
Re-capture (``python -m repro.analysis.determinism [NAME ...]``) is only
legitimate when the *model* changes on purpose, and such a change must be
called out in the PR.
"""

import json
import os
import sys

import pytest

from repro.analysis.determinism import GOLDENS, capture_sort_fingerprint
from repro.core import steps
from repro.simnet.sanitizer import sanitize

P16, P16_F64 = GOLDENS["p16"], GOLDENS["p16_f64"]


def _diverged(current, golden, where=""):
    """The path of the first field where ``current`` differs from
    ``golden``, descending through nested dicts; None when they are equal."""
    if isinstance(golden, dict) and isinstance(current, dict):
        if current.keys() != golden.keys():
            return f"{where or '<top>'} keys {sorted(current.keys() ^ golden.keys())}"
        for key in golden:
            found = _diverged(current[key], golden[key], f"{where}.{key}" if where else key)
            if found is not None:
                return found
        return None
    return None if current == golden else where


def _assert_replays(entry):
    """Compare the capture with the committed file field by field, so a
    failure names what diverged rather than dumping two multi-KB dicts."""
    golden = json.loads(entry["path"].read_text())
    field = _diverged(entry["capture"](), golden)
    assert field is None, f"{entry['path'].name} field {field!r} diverged"


def _assert_sanitized_replay(entry):
    with sanitize() as san:
        _assert_replays(entry)
    assert san.report.ok, san.report.summary()
    assert san.report.counts["messages_checked"] > 0


class TestGoldenDeterminism:
    @pytest.mark.parametrize("name", GOLDENS)
    def test_golden_replays(self, name):
        _assert_replays(GOLDENS[name])

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
        _assert_sanitized_replay(P16)

    def test_sanitized_frame_miss_run_is_bit_identical_to_its_golden(self):
        _assert_sanitized_replay(P16_F64)

    @pytest.mark.parametrize(
        "entry, merges",
        [(P16, False), (P16_F64, True)],
        ids=["int64-words", "float64-keys-perm"],
    )
    def test_each_golden_runs_its_own_data_path(self, monkeypatch, entry, merges):
        """The int64 golden never reaches the keys + perm merge kernel; the
        float64 golden merges every rank through it."""
        calls = []
        kernel = steps.flat_kway_merge

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(steps, "flat_kway_merge", counting)
        entry["capture"]()
        assert len(calls) == (entry["workload"]["num_ranks"] if merges else 0)

    @pytest.mark.parametrize("threads", ["one", "default", "oversubscribed"])
    @pytest.mark.parametrize(
        "entry", [P16, P16_F64], ids=["int64-words", "float64-keys-perm"]
    )
    def test_golden_does_not_depend_on_the_kernel_thread_count(self, monkeypatch, entry, threads):
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
            _assert_replays(entry)
        finally:
            sys.setswitchinterval(interval)
        helpers = len(cpus[threads]) - 1
        assert sizes == ([helpers] if helpers else [])

    def test_makespan_recorded_as_hex(self):
        golden = json.loads(P16["path"].read_text())
        # float.hex round-trips exactly; a plain repr would not guarantee it.
        assert float.fromhex(golden["makespan"]) > 0.0

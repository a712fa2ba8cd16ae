"""Golden determinism: the engine must be bit-identical to the seed engine.

The committed fingerprint in ``tests/golden/sim_golden_p16.json`` was
captured from the original interpreter-style event loop (lambda-closure
events, isinstance dispatch, linear mailbox scans) *before* any fast-path
work.  Replaying the same fixed-seed 16-rank sort on the current engine and
comparing the full fingerprint — every virtual time as a ``float.hex()``
string, every metric counter, trace event counts, and sha256 digests of the
output permutation — proves the optimization work is behavior-invariant.

If this test fails after an engine change, the change altered simulated
behavior; that is a correctness bug, not a baseline to re-capture.
Re-capture (``python -m repro.analysis.determinism``) is only legitimate
when the *model* changes on purpose, and such a change must be called out
in the PR.
"""

import json
from pathlib import Path

from repro.analysis.determinism import capture_sort_fingerprint

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "sim_golden_p16.json"


class TestGoldenDeterminism:
    def test_fingerprint_matches_seed_engine(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        current = capture_sort_fingerprint(
            num_ranks=golden["workload"]["num_ranks"],
            n_keys=golden["workload"]["n_keys"],
            seed=golden["workload"]["seed"],
        )
        # Compare field by field so a failure names what diverged rather
        # than dumping two multi-KB dicts.
        assert current.keys() == golden.keys()
        for key in golden:
            assert current[key] == golden[key], f"fingerprint field {key!r} diverged"

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
        from repro.simnet.sanitizer import SimSan

        golden = json.loads(GOLDEN_PATH.read_text())
        san = SimSan()
        current = capture_sort_fingerprint(
            num_ranks=golden["workload"]["num_ranks"],
            n_keys=golden["workload"]["n_keys"],
            seed=golden["workload"]["seed"],
            sanitizer=san,
        )
        for key in golden:
            assert current[key] == golden[key], f"sanitized field {key!r} diverged"
        assert san.report.ok, san.report.summary()
        assert san.report.counts["messages_checked"] > 0

    def test_makespan_recorded_as_hex(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        # float.hex round-trips exactly; a plain repr would not guarantee it.
        assert float.fromhex(golden["makespan"]) > 0.0

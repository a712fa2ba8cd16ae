"""Self-test of the perf ledger at the ``--quick`` scale (1 pass, n/20).

Not part of the tier-1 suite (``testpaths`` is ``tests``); run it with

    python benchmarks/ledger/test_ledger.py

It checks the ledger against its own contract: the names and units in
``BENCHMARK.json`` and in the output are the same set, exact metrics
repeat bit for bit and move with the seed, a wrong output is counted as a
failure, and the layer times add up to the op time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

LEDGER_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER_DIR))

import compare  # noqa: E402
import run  # noqa: E402
from workloads import SPECS, prepare, scaled  # noqa: E402

BENCH = json.loads((run.REPO_ROOT / "BENCHMARK.json").read_text())


def quick_ledger(seed: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--quick", "--seed", str(seed), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    """Two quick ledgers of seed 11 and one of seed 12."""
    tmp = tmp_path_factory.mktemp("ledger")
    return {
        "a": quick_ledger(11, tmp / "a.json"),
        "b": quick_ledger(11, tmp / "b.json"),
        "other_seed": quick_ledger(12, tmp / "c.json"),
        "dir": tmp,
    }


def exact_metrics(doc: dict) -> dict:
    out = {"cuts.searches": doc["layers"]["cuts.searches"]["value"]}
    for name, entry in doc["workloads"].items():
        out[f"{name}.imbalance"] = entry["end_to_end"]["imbalance"]["value"]
    sim = doc["workloads"]["sim_p16_skew"]["per_layer"]
    for metric in ("simnet.virtual_makespan_s", "simnet.messages", "simnet.remote_bytes"):
        out[metric] = sim[metric]["value"]
    return out


def test_benchmark_json_and_output_name_the_same_metrics(ledgers):
    doc = ledgers["a"]
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    assert [w["name"] for w in BENCH["workloads"]] == list(doc["workloads"])
    assert BENCH["run_seconds"] == run.RUN_SECONDS
    assert BENCH["paths"] == [str(LEDGER_DIR.relative_to(run.REPO_ROOT))]
    for entry in doc["workloads"].values():
        reported = {
            name: m["unit"]
            for group in (entry["end_to_end"], entry["per_layer"], doc["layers"])
            for name, m in group.items()
        }
        assert reported == declared
        assert all(np.isfinite(m["value"]) for m in entry["end_to_end"].values())
    # failed_share is always 0 on a correct run, so BENCHMARK.json carries it
    # as a per-layer metric: its end-to-end metrics must never read 0.
    assert {m["name"] for m in BENCH["end_to_end"]} == set(run.END_TO_END_UNITS) - {"failed_share"}


def test_all_outputs_correct_and_nothing_leaked(ledgers):
    doc = ledgers["a"]
    assert doc["correct"]
    for entry in doc["workloads"].values():
        assert entry["end_to_end"]["failed_share"]["value"] == 0.0
        assert entry["per_layer"]["backend.orphan_workers"]["value"] == 0.0
    assert doc["layers"]["arena.leaked_segments"]["value"] == 0.0
    assert doc["workloads"]["big_uniform"]["per_layer"]["packsort.fallback_share"]["value"] == 0.0
    assert doc["workloads"]["big_fallback"]["per_layer"]["packsort.fallback_share"]["value"] == 1.0


def test_exact_metrics_repeat_and_move_with_the_seed(ledgers):
    a, b, c = (exact_metrics(ledgers[k]) for k in ("a", "b", "other_seed"))
    assert a == b
    assert a != c
    prints = [ledgers[k]["env"]["data_fingerprints"] for k in ("a", "b", "other_seed")]
    assert prints[0] == prints[1]
    assert all(prints[0][w] != prints[2][w] for w in prints[0])


def test_layers_add_up_to_the_op_time_on_big_workloads(ledgers):
    for name in ("big_uniform", "big_fallback"):
        share = ledgers["a"]["workloads"][name]["per_layer"]["ledger.unattributed_share"]
        assert abs(share["value"]) < 0.15, (name, share)


def test_trace_file_has_parented_spans(ledgers):
    trace = json.loads(run.TRACE_PATH.read_text())
    for scope, spans in trace["spans"].items():
        by_id = {s["id"]: s for s in spans}
        assert spans and all(s["end"] >= s["start"] for s in spans), scope
        assert all(s["parent"] is None or s["parent"] in by_id for s in spans)
    names = {s["name"] for s in trace["spans"]["small_stream"]}
    assert {"setup", "warmup", "timed", "op#0"} <= names
    assert any(s["name"].startswith("layer.") for s in trace["spans"]["layers"])
    assert trace["run_reports"]["big_uniform"]["ranks"]


def test_corrupted_oracle_counts_as_failed(tmp_path):
    spec = scaled(SPECS["small_stream"], quick=True)
    prep = tmp_path / "prep.npz"
    prepare(spec, 11, prep)
    with np.load(prep) as doc:
        arrays = {name: doc[name] for name in doc.files}
    arrays["keys_1"][0] += 1  # the duplicate-heavy dataset's expected output
    with open(prep, "wb") as fh:
        np.savez(fh, **arrays)
    result = run.run_pass(spec, prep, 1.0, traced=False, quick=True)
    metrics = run.end_to_end([result])
    assert 0.0 < metrics["failed_share"]["value"] < 1.0
    assert any("keys differ" in failure for failure in result["failures"])


def test_compare_verdicts(ledgers, capsys):
    a, b = ledgers["a"], json.loads(json.dumps(ledgers["a"]))
    rows = compare.compare(a, b)
    assert len(rows) == len(a["workloads"]) * len(run.END_TO_END_UNITS)
    assert {row[-1] for row in rows} == {"same"}
    slow = b["workloads"]["big_uniform"]["end_to_end"]["op_p50_s"]
    slow["value"] *= 2
    slow["passes"] = [2 * v for v in slow["passes"]]
    worse = [row for row in compare.compare(a, b) if row[-1] != "same"]
    assert [(row[0], row[1], row[-1]) for row in worse] == [("big_uniform", "op_p50_s", "worse")]
    paths = [ledgers["dir"] / "a.json", ledgers["dir"] / "worse.json"]
    paths[1].write_text(json.dumps(b))
    assert compare.main([str(p) for p in paths]) == 1
    assert compare.main([str(paths[0]), str(paths[0])]) == 0


def test_one_workload_form_prints_the_result_object():
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [
                sys.executable, str(LEDGER_DIR / "run.py"), "--quick",
                "--workload", "small_stream", "--seed", "5",
                "--seconds", "3", "--trace", str(trace),
            ],
            capture_output=True,
            text=True,
            timeout=170,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in BENCH[group]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider", *sys.argv[1:]]))

"""Compare two ledger files: one row per workload x end-to-end metric.

    python benchmarks/ledger/compare.py A.json B.json

A and B are ``run.py --out`` files: two sets of one commit (the agreement
check) or parent and change (A/B).  Each row shows both medians, the
relative change with "worse" positive, the bound from ``BENCHMARK.json``
and a verdict:

* ``unresolved`` — the per-pass spread of either side is wider than the
  bound and the two sides' passes overlap, so the medians decide nothing;
* ``same`` — otherwise, when the medians differ by no more than the bound;
* ``worse`` / ``better`` — otherwise.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_bounds() -> dict[str, tuple[float, str]]:
    """``{metric: (bound, better)}``; failed_share may never rise."""
    bench = json.loads(BENCHMARK_JSON.read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    bounds["failed_share"] = (0.0, "lower")
    return bounds


def worsening(a: float, b: float, better: str) -> float:
    """Relative change from a to b, positive when b is worse."""
    change = (b - a) / abs(a) if a else float(b - a)
    return change if better == "lower" else -change


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple[float, str]:
    delta = worsening(a["value"], b["value"], better)
    # Three passes have no quartiles: half their range stands in for the
    # quartile distance of the reported median.
    spread = max(
        (max(m["passes"]) - min(m["passes"])) / 2 / abs(m["value"]) if m["value"] else 0.0
        for m in (a, b)
    )
    overlap = min(a["passes"]) <= max(b["passes"]) and min(b["passes"]) <= max(a["passes"])
    if spread > bound and overlap:
        return delta, "unresolved"
    if abs(delta) <= bound:
        return delta, "same"
    return delta, "worse" if delta > 0 else "better"


def compare(doc_a: dict, doc_b: dict) -> list[tuple]:
    bounds = load_bounds()
    rows = []
    for workload, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"][workload]
        for metric, (bound, better) in bounds.items():
            a, b = entry_a["end_to_end"][metric], entry_b["end_to_end"][metric]
            delta, word = verdict(a, b, bound, better)
            rows.append((workload, metric, a["value"], b["value"], delta, bound, word))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    doc_a, doc_b = (json.loads(path.read_text()) for path in (args.a, args.b))
    for key in ("seed", "data_fingerprints"):
        if doc_a["env"][key] != doc_b["env"][key]:
            print(f"note: {key} differs; the sides did not sort the same inputs")
    rows = compare(doc_a, doc_b)
    print(f"{'workload':<14}{'metric':<20}{'A':>14}{'B':>14}{'worse by':>10}{'bound':>7}  verdict")
    for workload, metric, a, b, delta, bound, word in rows:
        print(
            f"{workload:<14}{metric:<20}{a:>14.6g}{b:>14.6g}"
            f"{100 * delta:>9.2f}%{100 * bound:>6.0f}%  {word}"
        )
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Bit-exact fingerprinting of simulation runs, and the golden registry.

The engine's contract is full determinism: the same programs, inputs, and
configuration must produce the same virtual times, metrics, and outputs on
every run — and across engine refactors.  This module condenses one run of
the paper's distributed sort — through the public
:class:`~repro.core.api.DistributedSorter`, the path every user and every
faulted run takes — into a JSON-able *fingerprint* whose floats are
recorded as ``float.hex()`` strings, so equality means bit-identity rather
than "approximately equal".

:data:`GOLDENS` names every committed golden in ``tests/golden/``: its
file, its workload and the capture that rebuilds it.  The golden
determinism test replays each capture against its file, which is what
licenses performance work on the event loop's hot paths.  Re-capture, only
for a deliberate model change, with::

    PYTHONPATH=src python -m repro.analysis.determinism [NAME ...]

which rewrites the named goldens (all of them by default).
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any

import numpy as np

from ..core.api import DistributedSorter
from ..faults import chaos_schedules, inject_faults
from ..obs.context import capture
from ..simnet.metrics import ProcessMetrics


def _hex(x: float) -> str:
    return float(x).hex()


def _digest(arrays: list[np.ndarray]) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _metrics_fingerprint(m: ProcessMetrics) -> dict[str, Any]:
    return {
        "rank": m.rank,
        "phase_seconds": {k: _hex(v) for k, v in sorted(m.phase_seconds.items())},
        "other_seconds": _hex(m.other_seconds),
        "recv_wait_seconds": _hex(m.recv_wait_seconds),
        "barrier_wait_seconds": _hex(m.barrier_wait_seconds),
        "send_seconds": _hex(m.send_seconds),
        "bytes_sent": m.bytes_sent,
        "bytes_received": m.bytes_received,
        "messages_sent": m.messages_sent,
        "messages_received": m.messages_received,
        "peak_resident": m.memory.peak_resident,
        "peak_temporary": m.memory.peak_temporary,
        "peak_total": m.memory.peak_total,
        "finished_at": _hex(m.finished_at if m.finished_at is not None else -1.0),
    }


def golden_keys(workload: dict[str, Any]) -> np.ndarray:
    """A golden workload's keys (its ``n_keys``, ``seed`` and ``dtype``):
    ``"int64"`` keys below 2^40 fit the key frame (words); ``"float64"``
    keys in [0, 1) do not (keys + perm)."""
    rng = np.random.default_rng(workload["seed"])
    if workload.get("dtype", "int64") == "int64":
        return rng.integers(0, 1 << 40, workload["n_keys"]).astype(np.int64)
    return rng.random(workload["n_keys"])


def capture_sort_fingerprint(
    num_ranks: int, n_keys: int, seed: int, *, dtype: str = "int64"
) -> dict[str, Any]:
    """Sort a fixed-seed workload on simnet under an ambient capture; return
    the run's fingerprint.

    Every field is either an integer count or a ``float.hex()`` string, so a
    fingerprint compares bit-exactly across engine implementations.

    ``dtype`` picks the data path (:func:`golden_keys`).

    Observers attach as they do to any run, by their ambient scopes: under
    :func:`repro.simnet.sanitizer.sanitize` the fingerprint must not change
    (SimSan is invisible to simulated behavior), and under
    :func:`repro.faults.inject_faults` it is the run the job returned.
    """
    workload = {"num_ranks": num_ranks, "n_keys": n_keys, "seed": seed}
    if dtype != "int64":
        workload["dtype"] = dtype
    data = golden_keys(workload)
    sorter = DistributedSorter(num_processors=num_ranks, backend="simnet")
    with capture() as cap:
        result = sorter.sort(data)
    tracer = cap.sessions[-1].tracer
    metrics = result.metrics

    # The tracer's per-rank events: spans and counter samples on their
    # rank, flows on their sender.
    trace_per_rank = [0] * num_ranks
    for events in (tracer.spans, tracer.counters):
        for event in events:
            trace_per_rank[event.rank] += 1
    for flow in tracer.flows:
        trace_per_rank[flow.src] += 1

    keys = result.per_processor
    prov = []
    for provenance in result.provenance:
        prov.append(provenance.origin_proc)
        prov.append(provenance.origin_index)
    return {
        "workload": workload,
        "makespan": _hex(metrics.makespan),
        "remote_bytes": metrics.remote_bytes,
        "local_bytes": metrics.local_bytes,
        "messages": metrics.messages,
        "trace_events_total": sum(trace_per_rank),
        "trace_events_per_rank": trace_per_rank,
        "step_seconds": [
            {k: _hex(v) for k, v in sorted(steps.items())}
            for steps in result.step_seconds
        ],
        "processes": [_metrics_fingerprint(p) for p in metrics.processes],
        "output_keys_sha256": _digest(keys),
        "output_provenance_sha256": _digest(prov),
        "output_sizes": [int(len(k)) for k in keys],
    }


#: The p = 16 goldens' workload: the paper sort every committed golden but
#: the fault golden runs.
P16_WORKLOAD = {"num_ranks": 16, "n_keys": 60_000, "seed": 20260805}

#: The fault golden's workload: small enough that every chaos schedule
#: replays in well under a second.
FAULT_WORKLOAD = {"num_ranks": 8, "n_keys": 4_000, "seed": 20260805}


def capture_fault_fingerprints() -> dict[str, dict[str, Any]]:
    """One fingerprint of the :data:`FAULT_WORKLOAD` sort per
    :func:`repro.faults.chaos_schedules` plan, each run under that plan's
    scope: drops, delays, degraded links and slow nodes show in the virtual
    times, kills in the retried or degraded run the job returned."""
    fingerprints = {}
    for name, plan in chaos_schedules():
        with inject_faults(plan):
            fingerprints[name] = capture_sort_fingerprint(**FAULT_WORKLOAD)
    return fingerprints


def _capture_run_report() -> dict[str, Any]:
    from ..obs.report import capture_run_report

    report, _ = capture_run_report(P16_WORKLOAD)
    return report.to_json()


_GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"
_P16_F64 = P16_WORKLOAD | {"dtype": "float64"}

#: Every committed golden by name: its file, the workload it sorts and the
#: capture that rebuilds its document.  ``p16`` runs simnet's word path
#: (int64 keys fit the key frame), ``p16_f64`` the keys + perm path of a
#: frame miss, ``faults`` one fingerprint per chaos schedule, and
#: ``run_report_p16`` snapshots the p = 16 sort's :class:`RunReport`.
GOLDENS: dict[str, dict[str, Any]] = {
    "p16": {
        "path": _GOLDEN_DIR / "sim_golden_p16.json",
        "workload": P16_WORKLOAD,
        "capture": lambda: capture_sort_fingerprint(**P16_WORKLOAD),
    },
    "p16_f64": {
        "path": _GOLDEN_DIR / "sim_golden_p16_f64.json",
        "workload": _P16_F64,
        "capture": lambda: capture_sort_fingerprint(**_P16_F64),
    },
    "faults": {
        "path": _GOLDEN_DIR / "sim_golden_faults.json",
        "workload": FAULT_WORKLOAD,
        "capture": capture_fault_fingerprints,
    },
    "run_report_p16": {
        "path": _GOLDEN_DIR / "run_report_p16.json",
        "workload": P16_WORKLOAD,
        "capture": _capture_run_report,
    },
}


if __name__ == "__main__":  # pragma: no cover - golden re-capture CLI
    import json
    import sys

    names = sys.argv[1:] or list(GOLDENS)
    unknown = [name for name in names if name not in GOLDENS]
    if unknown:
        sys.exit(f"unknown golden(s) {unknown}; choose from {', '.join(GOLDENS)}")
    for name in names:
        with open(GOLDENS[name]["path"], "w") as fh:
            json.dump(GOLDENS[name]["capture"](), fh, indent=1, sort_keys=True)
            fh.write("\n")

"""Workload table and seeded inputs of the perf ledger.

Every dataset is generated here from ``--seed``; the program under test
only ever receives the arrays.  :func:`prepare` also runs the
``core.local_backend.local_sample_sort`` oracle once per dataset and
stores inputs + expected outputs in one ``.npz`` that the per-pass
subprocesses load.  The oracle runs in the orchestrating process, not in
the measured one, because pool workers are forked from the measured
process and inherit its peak RSS: an oracle computed there would be
counted into ``peak_rss_mb``.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
OUT_DIR = LEDGER_DIR / "out"

for _p in (REPO_ROOT / "src", REPO_ROOT / "benchmarks"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

#: Process-backend workloads always use this many workers.  Never derived
#: from cpu_count: a worker count that follows the machine makes rows from
#: two machines incomparable (the PR-8 drift in BENCH_real.json).
WORKERS = 2

#: Fresh (never-recurring within the cache's reach) datasets in the stream.
STREAM_FRESH = 64


@dataclass(frozen=True)
class Spec:
    name: str
    substrate: str  # "process" (ProcessBackend pool) or "simnet"
    n: int  # keys per op
    parts: int  # blocks per op: workers, or simulated processors
    warmup: int  # W: untimed ops before the timed phase
    ops: int  # R: timed ops per pass (the per-pass time budget may cut it)
    w1_reps: int  # reps of the workers=1 run behind backend.speedup_w2_over_w1
    why: str


SPECS = {
    s.name: s
    for s in (
        Spec(
            "big_uniform", "process", 4_000_000, WORKERS, 20, 28, 10,
            "4M uniform int64 on 2 pooled workers: packsort and merge kernels "
            "dominate, control plane under 10%",
        ),
        Spec(
            "big_fallback", "process", 4_000_000, WORKERS, 6, 10, 5,
            "4M float64 floor(Exp(2000)): packsort declines, so step 1 is the "
            "stable-argsort fallback and the merge gallops over ~16k values",
        ),
        Spec(
            "small_stream", "process", 120_000, WORKERS, 100, 500, 10,
            "120k-key jobs on one warm pool, 3 recurring shapes + every 4th "
            "fresh: dispatch, pipe collectives and splitter cache dominate",
        ),
        Spec(
            "sim_p16_skew", "simnet", 2_000_000, 16, 20, 45, 0,
            "2M right-skewed keys on 16 simulated processors: engine, pgxd, "
            "exchange, k=16 merges and the investigator on duplicated splitters",
        ),
    )
}


def scaled(spec: Spec, quick: bool) -> Spec:
    """The ``--quick`` self-test scale: n/20 and a tenth of the ops."""
    if not quick:
        return spec
    return replace(
        spec,
        n=spec.n // 20,
        warmup=max(2, spec.warmup // 5),
        ops=max(8, spec.ops // 10),
        w1_reps=min(spec.w1_reps, 3),
    )


def _rng(seed: int, workload: str, k: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, sorted(SPECS).index(workload), k])


def make_datasets(spec: Spec, seed: int) -> list[np.ndarray]:
    """The distinct input arrays of a workload, in schedule order."""
    n = spec.n
    if spec.name == "big_uniform":
        return [_rng(seed, spec.name).integers(0, 1 << 40, n, dtype=np.int64)]
    if spec.name == "big_fallback":
        return [np.floor(_rng(seed, spec.name).exponential(2000.0, n))]
    if spec.name == "small_stream":
        rng = _rng(seed, spec.name)
        uniform = rng.integers(0, 1 << 40, n, dtype=np.int64)
        duplicate_heavy = rng.integers(0, 1_000, n, dtype=np.int64)
        near_sorted = np.sort(rng.integers(0, 1 << 40, n, dtype=np.int64))
        idx = rng.integers(0, n, size=2 * max(n // 100, 1))
        a, b = idx[::2], idx[1::2]
        near_sorted[a], near_sorted[b] = near_sorted[b], near_sorted[a]
        fresh = [
            _rng(seed, spec.name, 1 + k).integers(0, 1 << 40, n, dtype=np.int64)
            for k in range(STREAM_FRESH)
        ]
        return [uniform, duplicate_heavy, near_sorted, *fresh]
    if spec.name == "sim_p16_skew":
        from repro.workloads.distributions import right_skewed

        return [right_skewed(n, seed=int(_rng(seed, spec.name).integers(1 << 31)))]
    raise KeyError(spec.name)


def dataset_index(spec: Spec, op: int) -> int:
    """Which dataset op number ``op`` sorts (closed loop, one client)."""
    if spec.name != "small_stream":
        return 0
    # uniform, duplicate-heavy, near-sorted, then one fresh dataset: the
    # three recurring shapes stay inside the splitter cache's 4-entry LRU
    # (hits), the fresh one is always a miss.
    return op % 4 if op % 4 < 3 else 3 + (op // 4) % STREAM_FRESH


def fingerprint(datasets: list[np.ndarray]) -> str:
    acc = hashlib.sha1()
    for data in datasets:
        acc.update(str(data.dtype).encode())
        acc.update(np.ascontiguousarray(data).tobytes())
    return acc.hexdigest()[:16]


def prepare(
    spec: Spec, seed: int, path: Path, extra_oracle_reps: int = 0
) -> tuple[str, list[float]]:
    """Generate inputs, run the oracle, save both.

    Returns the data fingerprint and the wall of every oracle call (one per
    dataset, plus ``extra_oracle_reps`` repeats on the first dataset so a
    one-dataset workload still has a warm median): ``oracle.op_p50_s``.
    """
    from repro.core.api import partition_input
    from repro.core.local_backend import local_sample_sort

    datasets = make_datasets(spec, seed)
    arrays: dict[str, np.ndarray] = {}
    oracle_walls = []
    for k, data in enumerate(datasets):
        blocks, _ = partition_input(data, spec.parts)
        start = time.perf_counter()
        ref = local_sample_sort(list(blocks))
        oracle_walls.append(time.perf_counter() - start)
        arrays[f"data_{k}"] = data
        arrays[f"keys_{k}"] = np.concatenate(ref.per_processor)
        arrays[f"counts_{k}"] = np.array(
            [len(part) for part in ref.per_processor], dtype=np.int64
        )
        arrays[f"oproc_{k}"] = np.concatenate(
            [prov.origin_proc for prov in ref.provenance]
        )
        arrays[f"oidx_{k}"] = np.concatenate(
            [prov.origin_index for prov in ref.provenance]
        )
    blocks, _ = partition_input(datasets[0], spec.parts)
    for _ in range(extra_oracle_reps):
        start = time.perf_counter()
        local_sample_sort(list(blocks))
        oracle_walls.append(time.perf_counter() - start)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return fingerprint(datasets), oracle_walls


@dataclass
class Dataset:
    """One input with its oracle, as the measured process sees it."""

    data: np.ndarray
    blocks: list[np.ndarray]
    offsets: np.ndarray  # start of each block in ``data``
    keys: np.ndarray  # oracle output, partitions back to back
    bounds: np.ndarray  # partition r is keys[bounds[r]:bounds[r+1]]
    origin_proc: np.ndarray
    origin_index: np.ndarray


def load_prepared(spec: Spec, path: Path) -> list[Dataset]:
    from repro.core.api import partition_input

    out = []
    with np.load(path) as doc:
        count = sum(1 for name in doc.files if name.startswith("data_"))
        for k in range(count):
            data = doc[f"data_{k}"]
            blocks, offsets = partition_input(data, spec.parts)
            counts = doc[f"counts_{k}"]
            out.append(
                Dataset(
                    data=data,
                    blocks=list(blocks),
                    offsets=offsets,
                    keys=doc[f"keys_{k}"],
                    bounds=np.concatenate(([0], np.cumsum(counts))),
                    origin_proc=doc[f"oproc_{k}"],
                    origin_index=doc[f"oidx_{k}"],
                )
            )
    return out

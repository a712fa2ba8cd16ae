"""ShmSan — happens-before race detector for the shared-memory backend.

SimSan (:mod:`repro.simnet.sanitizer`) guards the simulated comm layer;
ShmSan guards what the simulator cannot see: the process backend's raw
``multiprocessing.shared_memory`` data plane, where ``p`` OS processes
write one exchange stream concurrently and the only thing standing
between "zero-copy" and "data race" is the disjoint-write-region
invariant derived from the counts matrix.

When sanitizing is active, every worker records a typed access interval
``(segment, byte_lo, byte_hi, read|write, rank, step, collective_epoch)``
for each touch of a :class:`~repro.parallel.arena.SharedArena` lease.
Which bytes of the job's storage steps 1, 5 and 6 touched is the data
path's to say (:data:`~repro.core.datapath.Access`); the worker only
stamps rank, step, epoch and destination on what its kernels return
(:meth:`AccessRecorder.stamp`).  The control region's slot writes and
reads (``slot-write``/``slot-read``) are the
:class:`~repro.parallel.collectives.WorkerLink`'s, which keeps the epoch:
each completed collective is a full barrier in the control region, so
the per-rank count of completed collectives is a global happens-before
clock (see :mod:`repro.checks.hb` for the model).  Workers flush their
logs to the hub at step boundaries (beside the liveness heartbeats) and
at completion, so a crash mid-run still leaves the analyzer a partial
log up to the crash point.

The analyzer flags write-write and read-write interval overlaps between
ranks not ordered by a collective edge, lease-lifetime violations (a
parent view touched past ``release_all``, an access outside the leased
range, two live leases aliasing one segment — a lease that a job result
pinned stays live across runs, until the result dies), and offset-table
inconsistencies (a run not where :func:`repro.parallel.layout.exchange_layout`
puts it, on any stream the job says it exchanged — the packed-word
stream on the word path, keys + origin indices otherwise) — with
rank/step/byte-range diagnostics in SimSan's style.

Recording is passive: an unsanitized job hands its kernels' accesses to
a no-op, and a sanitized run is bit-identical to an unsanitized one
(pinned by the tests and the golden replay below).

Usage — the scope is the one way to attach; every process-backend sort
inside it is sanitized, and the innermost scope wins::

    from repro.parallel import ProcessBackend
    from repro.parallel.shmsan import ShmSan, shm_sanitize

    with shm_sanitize() as san, ProcessBackend() as backend:
        run = backend.sort_blocks(blocks)
    assert san.report.ok, san.report.summary()

A seeded invariant break attaches the same way, on its sanitizer:
``shm_sanitize(ShmSan(mutate="offset-off-by-one", mutate_rank=1))``.

``python -m repro.parallel.shmsan`` replays the golden workload on a
sanitized 4-worker process backend, verifies bit-identity against the
single-process oracle, and writes the report (the CI artifact);
``--mutate`` seeds one deliberate invariant break (the detector's
detector — CI asserts the run goes red), and ``--log`` analyzes a
previously captured access log offline.
"""

from __future__ import annotations

import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, astuple
from typing import Iterator

import numpy as np

from ..checks.hb import (
    EPOCH_PARENT_AFTER,
    EPOCH_PARENT_BEFORE,
    KEYS_AND_PERM,
    PARENT_RANK,
    LeaseInfo,
    ShmAccess,
    analyze_accesses,
    lease_bytes,
)
from ..core.datapath import OUTPUT_ROLES, Access, JobStorage
from ..simnet.sanitizer import SanReport, SanViolation
from .arena import ShmLease

#: Mutations a :class:`ShmSan` can seed, for testing the detector itself.
MUTATIONS = (
    "offset-off-by-one",   # worker: shift one exchange run by one element
    "skip-merge-barrier",  # worker: merge without waiting for the barrier
    "read-slot-before-barrier",  # worker: read the peers' control slots before the barrier
    "pack-past-block",     # worker: log step 1's pack one word into the next block
    "double-lease",        # parent: register a second lease over the key segment
    "stale-view",          # parent: touch a leased view after release_all
    "relet-pinned",        # parent: the arena leases out a segment a result pins
)


class AccessRecorder:
    """Worker-side access log: cheap tuples, drained over the pipe.

    Records are plain tuples (:class:`ShmAccess`'s fields, in order) so a
    flush costs one small pickle; the parent-side :class:`ShmSan` rebuilds
    typed accesses on ingest.
    """

    def __init__(self, rank: int, leases: JobStorage):
        self.rank, self.leases = rank, leases
        self._records: list[tuple] = []

    def record(
        self,
        lease,
        lo: int,
        hi: int,
        kind: str,
        step: int,
        epoch: int,
        label: str,
        dst: int | None = None,
    ) -> None:
        """Log an access to bytes ``[lo, hi)`` counted from ``lease``'s start."""
        base = int(lease.offset_bytes)
        self._records.append(
            (
                lease.name,
                base + int(lo),
                base + int(hi),
                kind,
                self.rank,
                step,
                epoch,
                label,
                dst,
            )
        )

    def stamp(self, accesses: list[Access], step: int, epoch: int, dst: int | None = None) -> None:
        """Log a kernel's ``accesses`` (:data:`~repro.core.datapath.Access`)
        against the lease each role was mapped from."""
        for role, lo, hi, kind, label in accesses:
            self.record(getattr(self.leases, role), lo, hi, kind, step, epoch, label, dst)

    def drain(self) -> list[tuple]:
        records, self._records = self._records, []
        return records


class ShmSan:
    """Parent-side sanitizer for process-backend shared-memory runs.

    One instance may observe many sequential sorts (the ambient
    :func:`shm_sanitize` scope attaches it to every sanitized
    :class:`~repro.parallel.backend.ProcessBackend` sort inside); findings
    accumulate in :attr:`report`.  Lease-lifetime violations (aliased
    leases, accesses past ``release_all``) surface the moment they are
    recorded; interval analysis runs in :meth:`finish_run`.  ``mutate``
    seeds one :data:`MUTATIONS` entry in every run it watches, a
    worker-side one on rank ``mutate_rank``.
    """

    def __init__(self, mutate: str | None = None, mutate_rank: int = 1) -> None:
        if mutate is not None and mutate not in MUTATIONS:
            raise ValueError(f"unknown mutation {mutate!r}; choose one of {MUTATIONS}")
        self.mutate, self.mutate_rank = mutate, mutate_rank
        self.report = SanReport(
            "ShmSan",
            {"accesses_recorded": 0, "leases_tracked": 0},
            "{} access interval(s) over {} lease(s)",
        )
        # Leases a job result pinned outlive their run: each stays live,
        # across begin_run, for as long as its root array does.
        self._pinned: list[tuple[LeaseInfo, weakref.ref]] = []
        self._reset()

    def _reset(self) -> None:
        """Empty the per-run state, as each :meth:`begin_run` does."""
        self._leases: list[LeaseInfo] = []
        self._accesses: list[ShmAccess] = []
        self._released = False
        self._counts_matrix: np.ndarray | None = None
        self._exchanged: tuple[str, ...] = KEYS_AND_PERM
        self._complete = True

    # ------------------------------------------------------- backend hooks

    def begin_run(self, leases: JobStorage) -> None:
        """Open one sanitized sort over the job's staged ``leases``:
        register each lease and record the staging write."""
        self.report.runs += 1
        self._reset()
        self._pinned = [
            (info, root) for info, root in self._pinned if root() is not None
        ]
        for role in ("input", *OUTPUT_ROLES):
            self.register_lease(role, getattr(leases, role))
        if leases.words is not None and leases.words.name != leases.keys.name:
            self.register_lease("words", leases.words)
        if self.mutate == "double-lease":
            # Seeded invariant break: hand out a second lease aliasing the
            # key segment, as if the arena double-booked it — the
            # lease-lifetime check must flag the overlap on sight.
            self.register_lease(
                "double-lease-alias",
                ShmLease(name=leases.keys.name, dtype=np.int32, length=leases.keys.length),
            )
        if leases.input.length:
            self.parent_access(leases.input, 0, leases.input.length, "w", "stage-input")

    def pin_lease(self, role: str, lease, root: np.ndarray) -> None:
        """The run's ``role`` lease now belongs to the job's result.

        ``root`` is the array :meth:`SharedArena.pin` returned; the lease
        stays live — past ``note_release`` and into later runs — until
        it is collected, and a lease granted over the same bytes before
        then is an ``overlapping-lease``.
        """
        self._pinned.append(
            (LeaseInfo.from_lease(f"pinned-{role}", lease), weakref.ref(root))
        )

    def register_lease(self, role: str, lease) -> None:
        """Track a granted lease; aliased live leases are flagged here."""
        info = LeaseInfo.from_lease(role, lease)
        for other in [pin for pin, _ in self._pinned] + self._leases:
            if other.segment != info.segment:
                continue
            if info.byte_lo < other.byte_hi and other.byte_lo < info.byte_hi:
                self.report.violations.append(
                    SanViolation(
                        "overlapping-lease",
                        PARENT_RANK,
                        f"lease {info.role!r} bytes "
                        f"[{info.byte_lo}, {info.byte_hi}) of segment "
                        f"{info.segment} aliases live lease {other.role!r} "
                        f"bytes [{other.byte_lo}, {other.byte_hi}): "
                        "concurrent writers of the two streams now share "
                        "pages",
                        {
                            "segment": info.segment,
                            "roles": [other.role, info.role],
                            "a_bytes": [other.byte_lo, other.byte_hi],
                            "b_bytes": [info.byte_lo, info.byte_hi],
                        },
                    )
                )
        self._leases.append(info)
        self.report.counts["leases_tracked"] += 1

    def parent_access(
        self, lease, lo: int, hi: int, kind: str, label: str,
        when: str = "before",
    ) -> None:
        """Record a driver-side access (staging write / collection read).

        ``when`` picks the sentinel epoch: ``"before"`` for accesses that
        precede spawn, ``"after"`` for accesses that follow join.  An
        access recorded after :meth:`note_release` is a lease-lifetime
        violation — the view outlived its lease.
        """
        epoch = EPOCH_PARENT_BEFORE if when == "before" else EPOCH_PARENT_AFTER
        byte_lo, byte_hi = lease_bytes(lease, lo, hi)
        access = ShmAccess(
            segment=lease.name,
            byte_lo=byte_lo,
            byte_hi=byte_hi,
            kind=kind,
            rank=PARENT_RANK,
            step=0,
            epoch=epoch,
            label=label,
        )
        if self._released:
            self.report.violations.append(
                SanViolation(
                    "stale-view",
                    PARENT_RANK,
                    f"parent {label} ({'write' if kind == 'w' else 'read'}) "
                    f"bytes [{access.byte_lo}, {access.byte_hi}) of segment "
                    f"{access.segment} after release_all(): the view "
                    "outlived its lease and can alias the next sort's data",
                    {"segment": access.segment, "label": label,
                     "bytes": [access.byte_lo, access.byte_hi]},
                )
            )
        self._accesses.append(access)
        self.report.counts["accesses_recorded"] += 1

    def note_release(self) -> None:
        """Mark ``release_all``: later parent accesses are stale-view."""
        self._released = True

    def ingest(self, rank: int, records: list[tuple]) -> None:
        """Control-plane sink for one worker's flushed access records."""
        del rank  # records are self-describing; the arg mirrors san_sink
        for raw in records:
            self._accesses.append(ShmAccess.from_tuple(raw))
        self.report.counts["accesses_recorded"] += len(records)

    def finish_run(
        self,
        counts_matrix: np.ndarray | None = None,
        crashed_rank: int | None = None,
        crashed_step: str | None = None,
        exchanged: tuple[str, ...] = KEYS_AND_PERM,
    ) -> SanReport:
        """Run the happens-before analysis over everything recorded.

        ``exchanged`` names the lease roles the job's step 5 wrote (the
        word path exchanges one packed-word stream instead of keys +
        indices); the offset check expects every run on exactly those.

        On a crashed run pass ``crashed_rank``/``crashed_step`` and omit
        the counts matrix: the analysis covers the partial log up to the
        crash point (races and bounds still checked; completeness checks
        that need the full run are skipped and noted).
        """
        self._counts_matrix = counts_matrix
        self._exchanged = tuple(exchanged)
        self._complete = crashed_rank is None
        violations, notes = analyze_accesses(
            self._accesses,
            self._leases,
            counts_matrix=counts_matrix,
            complete=self._complete,
            exchanged_roles=self._exchanged,
        )
        self.report.violations.extend(violations)
        self.report.notes.extend(notes)
        if crashed_rank is not None:
            per_rank = Counter(acc.rank for acc in self._accesses)
            self.report.notes.append(
                {
                    "kind": "partial-run",
                    "crashed_rank": crashed_rank,
                    "last_step": crashed_step,
                    "accesses_by_rank": {
                        str(rank): per_rank[rank] for rank in sorted(per_rank)
                    },
                }
            )
        return self.report

    # ------------------------------------------------------- offline log

    def dump_log(self, path) -> None:
        """Write the last run's raw access log for offline re-analysis."""
        import json

        doc = {
            "schema": "repro.shmsan-log/1",
            "complete": self._complete,
            "exchanged": list(self._exchanged),
            "leases": [asdict(lease) for lease in self._leases],
            "counts_matrix": (
                None
                if self._counts_matrix is None
                else np.asarray(self._counts_matrix).tolist()
            ),
            "accesses": [list(astuple(acc)) for acc in self._accesses],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


def analyze_log(doc: dict) -> tuple[list[SanViolation], list[dict]]:
    """Re-run the analyzer over a captured ``repro.shmsan-log/1`` doc."""
    leases = [LeaseInfo(**raw) for raw in doc.get("leases", [])]
    accesses = [ShmAccess.from_tuple(raw) for raw in doc.get("accesses", [])]
    counts = doc.get("counts_matrix")
    return analyze_accesses(
        accesses,
        leases,
        counts_matrix=None if counts is None else np.asarray(counts),
        complete=bool(doc.get("complete", True)),
        exchanged_roles=tuple(doc.get("exchanged", KEYS_AND_PERM)),
    )


# ----------------------------------------------------------- ambient scope

_ACTIVE: list[ShmSan] = []


@contextmanager
def shm_sanitize(san: ShmSan | None = None) -> Iterator[ShmSan]:
    """Attach ``san`` (default: a fresh :class:`ShmSan`) to every sanitized
    process-backend sort inside the ``with`` block."""
    if san is None:
        san = ShmSan()
    _ACTIVE.append(san)
    try:
        yield san
    finally:
        _ACTIVE.pop()


def active_shm_sanitizer() -> ShmSan | None:
    """The innermost ambient sanitizer, or None (backend-side lookup)."""
    return _ACTIVE[-1] if _ACTIVE else None


# ------------------------------------------------- golden verification CLI


def main(argv: list[str] | None = None) -> int:
    """Sanitized golden replay / mutation probe / offline log analysis.

    Default mode is the CI gate for the "sanitizing is behavior-invariant"
    contract: sort the golden workload on a sanitized process backend,
    assert bit-identity against the single-process oracle, and fail on any
    sanitizer violation.  ``--mutate`` seeds one invariant break instead
    and reports red (exit 1) when ShmSan catches it — so CI can assert
    the detector detects.  ``--log`` analyzes a captured access log.
    """
    import argparse
    import json
    from pathlib import Path

    from ..analysis.determinism import GOLDENS, golden_keys

    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.shmsan",
        description="ShmSan: sanitized process-backend replay / log analysis.",
    )
    parser.add_argument(
        "--golden",
        default="p16",
        choices=tuple(GOLDENS),
        help="golden whose workload (seed, n_keys, dtype) to replay (default p16)",
    )
    parser.add_argument(
        "--ranks", type=int, default=4, help="worker processes (default 4)"
    )
    parser.add_argument(
        "--keys", type=int, default=None,
        help="override the golden workload's key count",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help=(
            "replay the workload this many times through ONE persistent "
            "pool (default 1) — each job is a fresh sanitized run, so the "
            "gate also proves epochs reset cleanly between pooled jobs"
        ),
    )
    parser.add_argument(
        "--mutate", default=None, choices=MUTATIONS,
        help="seed one invariant break (exit 1 when ShmSan reports it)",
    )
    parser.add_argument(
        "--mutate-rank", type=int, default=1,
        help="rank carrying a worker-side mutation (default 1)",
    )
    parser.add_argument(
        "--log", default=None, metavar="PATH",
        help="analyze a captured repro.shmsan-log/1 file instead of running",
    )
    parser.add_argument(
        "--log-out", default=None, metavar="PATH",
        help="write the run's raw access log for offline re-analysis",
    )
    parser.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="write the ShmSan report JSON here (CI artifact)",
    )
    args = parser.parse_args(argv)

    if args.log is not None:
        doc = json.loads(Path(args.log).read_text())
        violations, notes = analyze_log(doc)
        for violation in violations:
            print(f"[{violation.kind}] rank {violation.rank}: {violation.message}")
        print(
            f"ShmSan offline: {len(doc.get('accesses', []))} access(es), "
            f"{len(violations)} violation(s), {len(notes)} note(s)"
        )
        return 1 if violations else 0

    from ..core.api import partition_input
    from ..core.local_backend import local_sample_sort
    from .backend import ProcessBackend

    workload = GOLDENS[args.golden]["workload"]
    n_keys = args.keys if args.keys is not None else workload["n_keys"]
    dtype = workload.get("dtype", "int64")
    data = golden_keys(workload | {"n_keys": n_keys})
    blocks = list(partition_input(data, args.ranks)[0])

    with shm_sanitize(ShmSan(args.mutate, args.mutate_rank)) as san, ProcessBackend() as backend:
        # Every run is held to the end, so a longer stream crosses the
        # backend's pin budget; relet-pinned needs one held result to re-let.
        jobs = max(args.jobs, 2 if args.mutate == "relet-pinned" else 1)
        runs = [backend.sort_blocks(blocks) for _ in range(jobs)]

    oracle_identical: bool | None = None
    if args.mutate is None:
        reference = local_sample_sort(blocks)
        oracle_identical = all(
            all(
                np.array_equal(
                    reference.per_processor[rank], job.outputs[rank].keys
                )
                for rank in range(args.ranks)
            )
            and np.array_equal(reference.splitters, job.splitters)
            for job in runs
        )

    if args.log_out:
        san.dump_log(args.log_out)
        print(f"[access log -> {args.log_out}]")
    if args.report_out:
        doc = {
            "oracle_bit_identical": oracle_identical,
            "mutation": args.mutate,
            "workload": {"n_keys": n_keys, "ranks": args.ranks, "dtype": dtype,
                         "seed": workload["seed"], "jobs": len(runs)},
        }
        doc.update(san.report.to_json())
        with open(args.report_out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(san.report.summary())
    if args.mutate is not None:
        if san.report.ok:
            print(f"MISSED: mutation {args.mutate!r} escaped ShmSan")
            return 0
        print(f"DETECTED: mutation {args.mutate!r} reported (exit 1)")
        return 1
    if oracle_identical is False:
        print("FAIL: sanitized run diverged from the single-process oracle")
        return 1
    if not san.report.ok:
        print("FAIL: ShmSan reported violations on the golden run")
        return 1
    if san.report.runs != len(runs):
        print(
            f"FAIL: expected {len(runs)} sanitized run(s), "
            f"report counted {san.report.runs} — pooled epoch reset broke"
        )
        return 1
    print(
        f"OK: {len(runs)} sanitized golden job(s) bit-identical and "
        f"violation-free"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - CI entry point
    import sys

    # Delegate to the canonical module object: under ``python -m`` this
    # file executes as ``__main__``, and a scope opened from *that*
    # namespace would push onto a stack the backend never reads.
    from repro.parallel.shmsan import main as _canonical_main

    sys.exit(_canonical_main())

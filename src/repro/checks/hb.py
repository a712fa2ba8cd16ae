"""Barrier-epoch happens-before analysis for shared-memory access logs.

This is the offline half of ShmSan (:mod:`repro.parallel.shmsan`): given
the typed access intervals the sanitized workers recorded —
``(segment, byte_lo, byte_hi, read|write, rank, step, collective_epoch)``
— it decides which pairs of accesses are *ordered* and flags the rest.

The happens-before model exploits the process backend's topology.  Every
control-plane collective (gather, bcast, allgather, barrier) is a slot
write, a barrier and a read in the shared-memory control region, and no
rank passes the barrier before *all* ``p`` ranks arrived — so each
completed collective is a full synchronization barrier, and the per-rank
count of completed collectives
(the **epoch**) is a global clock: all ranks execute the same program, so
access ``a`` on rank ``i`` happens-before access ``b`` on rank ``j`` iff
``a.epoch < b.epoch``.  Two accesses from different ranks in the *same*
epoch are concurrent; if their byte intervals overlap in the same segment
and at least one writes, that is a data race — exactly the bug class the
disjoint-write exchange is designed to make impossible, and exactly what
a forgotten barrier or a miscomputed run offset reintroduces.

Parent (driver) accesses use sentinel epochs: staging writes happen
strictly before spawn and collection reads strictly after join, so the
parent participates in lease-lifetime and bounds checks but can never
race a worker.

Checks, reported as SimSan's :class:`~repro.simnet.sanitizer.SanViolation`
(rank + step + byte-range diagnostics):

* **races** — same segment, same epoch, different ranks, overlapping
  intervals, at least one write (``write-write-race`` / ``read-write-race``);
* **lease bounds** — an access outside every registered lease of its
  segment (``out-of-lease-bounds``), or touching a segment no lease names
  (``unleased-segment``);
* **exchange offsets** — every step-5 exchange write must sit exactly at
  the interval :func:`repro.parallel.layout.exchange_layout` derives from
  the counts matrix (``offset-mismatch``); on complete runs a missing run
  is flagged too (``missing-exchange-write``).  The job names the lease
  roles it exchanged — keys + origin indices, or the one packed-word
  stream of the word path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..simnet.sanitizer import SanViolation

#: Rank attributed to driver-side accesses; never races a worker.
PARENT_RANK = -1
#: Epoch of parent staging writes (before any worker spawned).
EPOCH_PARENT_BEFORE = -1
#: Epoch of parent collection reads (after every worker joined).
EPOCH_PARENT_AFTER = 1 << 30

#: Cap on reported race pairs so a systemic bug stays readable.
MAX_RACE_REPORTS = 100

#: Lease roles the step-5 exchange writes on the keys + perm path (the
#: index lease exists only with provenance).  A word-path job exchanges
#: its packed-word stream instead and says so — see
#: :func:`check_exchange_offsets`.
KEYS_AND_PERM = ("keys", "index")


@dataclass(frozen=True)
class ShmAccess:
    """One typed access interval, as recorded by a sanitized worker."""

    segment: str
    byte_lo: int
    byte_hi: int
    kind: str  #: "r" | "w"
    rank: int
    step: int  #: six-step index (1..6); 0 for parent accesses
    epoch: int  #: completed collectives at access time (the HB clock)
    label: str  #: site name, e.g. "exchange-write", "merge-read"
    dst: int | None = None  #: destination rank of an exchange write

    @classmethod
    def from_tuple(cls, raw: Sequence) -> "ShmAccess":
        return cls(
            segment=str(raw[0]), byte_lo=int(raw[1]), byte_hi=int(raw[2]),
            kind=str(raw[3]), rank=int(raw[4]), step=int(raw[5]),
            epoch=int(raw[6]), label=str(raw[7]),
            dst=None if raw[8] is None else int(raw[8]),
        )

    def describe(self) -> str:
        mode = "write" if self.kind == "w" else "read"
        return (
            f"rank {self.rank} {self.label} ({mode}, step {self.step}, "
            f"epoch {self.epoch}) bytes [{self.byte_lo}, {self.byte_hi})"
        )


def lease_bytes(lease, lo: int, hi: int) -> tuple[int, int]:
    """Elements ``[lo, hi)`` of ``lease`` as bytes of its segment."""
    itemsize = np.dtype(lease.dtype).itemsize
    base = int(lease.offset_bytes)
    return base + int(lo) * itemsize, base + int(hi) * itemsize


@dataclass(frozen=True)
class LeaseInfo:
    """Analyzer-facing description of one registered lease."""

    role: str  #: "input" | "keys" | "index" | "words"
    segment: str
    byte_lo: int
    byte_hi: int
    itemsize: int

    @classmethod
    def from_lease(cls, role: str, lease) -> "LeaseInfo":
        lo, hi = lease_bytes(lease, 0, lease.length)
        return cls(
            role=role, segment=lease.name, byte_lo=lo, byte_hi=hi,
            itemsize=np.dtype(lease.dtype).itemsize,
        )


def find_races(
    accesses: Iterable[ShmAccess], max_report: int = MAX_RACE_REPORTS
) -> list[SanViolation]:
    """Overlapping same-epoch intervals from different ranks, >=1 write.

    Parent accesses are excluded up front: spawn/join order them against
    every worker access.  Pairs are deduplicated by the two sites involved
    (rank + label each side), so a bulk overlap reports once with a count
    rather than once per byte run.
    """
    by_group: dict[tuple[str, int], list[ShmAccess]] = {}
    for acc in accesses:
        if acc.rank == PARENT_RANK or acc.byte_lo >= acc.byte_hi:
            continue
        by_group.setdefault((acc.segment, acc.epoch), []).append(acc)
    violations: list[SanViolation] = []
    seen_pairs: set[tuple] = set()
    truncated = 0
    for (segment, epoch), group in sorted(by_group.items()):
        group.sort(key=lambda a: (a.byte_lo, a.byte_hi, a.rank, a.label))
        active: list[ShmAccess] = []
        for acc in group:
            active = [a for a in active if a.byte_hi > acc.byte_lo]
            for other in active:
                if other.rank == acc.rank:
                    continue
                if acc.kind != "w" and other.kind != "w":
                    continue
                first, second = sorted(
                    (other, acc), key=lambda a: (a.rank, a.label)
                )
                pair_key = (
                    segment, epoch,
                    first.rank, first.label, second.rank, second.label,
                )
                if pair_key in seen_pairs:
                    continue
                seen_pairs.add(pair_key)
                if len(violations) >= max_report:
                    truncated += 1
                    continue
                kind = (
                    "write-write-race"
                    if acc.kind == "w" and other.kind == "w"
                    else "read-write-race"
                )
                writer = acc if acc.kind == "w" else other
                lo = max(acc.byte_lo, other.byte_lo)
                hi = min(acc.byte_hi, other.byte_hi)
                violations.append(
                    SanViolation(
                        kind,
                        writer.rank,
                        f"{first.describe()} overlaps {second.describe()} "
                        f"on segment {segment} at bytes [{lo}, {hi}) in the "
                        f"same epoch {epoch}: no collective orders them",
                        {
                            "segment": segment,
                            "epoch": epoch,
                            "overlap_bytes": [lo, hi],
                            "a": _access_details(first),
                            "b": _access_details(second),
                        },
                    )
                )
            active.append(acc)
    if truncated:
        violations.append(
            SanViolation(
                "race-report-truncated",
                PARENT_RANK,
                f"{truncated} further racing site pair(s) suppressed after "
                f"the first {max_report} (systemic overlap; fix the first "
                "reports and re-run)",
                {"suppressed": truncated},
            )
        )
    return violations


def check_lease_bounds(
    accesses: Iterable[ShmAccess], leases: Iterable[LeaseInfo]
) -> list[SanViolation]:
    """Every access must land inside a registered lease of its segment."""
    by_segment: dict[str, list[LeaseInfo]] = {}
    for lease in leases:
        by_segment.setdefault(lease.segment, []).append(lease)
    violations: list[SanViolation] = []
    for acc in accesses:
        covering = by_segment.get(acc.segment)
        if covering is None:
            violations.append(
                SanViolation(
                    "unleased-segment",
                    acc.rank,
                    f"{acc.describe()} touches segment {acc.segment}, which "
                    "no registered lease names",
                    {"segment": acc.segment, "access": _access_details(acc)},
                )
            )
            continue
        if any(
            lease.byte_lo <= acc.byte_lo and acc.byte_hi <= lease.byte_hi
            for lease in covering
        ):
            continue
        violations.append(
            SanViolation(
                "out-of-lease-bounds",
                acc.rank,
                f"{acc.describe()} falls outside every lease of segment "
                f"{acc.segment} ("
                + ", ".join(
                    f"{lease.role}: [{lease.byte_lo}, {lease.byte_hi})"
                    for lease in covering
                )
                + ")",
                {"segment": acc.segment, "access": _access_details(acc)},
            )
        )
    return violations


def check_exchange_offsets(
    accesses: Iterable[ShmAccess],
    leases: Iterable[LeaseInfo],
    counts_matrix: np.ndarray,
    complete: bool = True,
    exchanged_roles: Sequence[str] = KEYS_AND_PERM,
) -> list[SanViolation]:
    """Each exchange write must sit exactly where the layout puts its run.

    Recomputes the expected ``[byte_lo, byte_hi)`` of every (src, dst) run
    from the counts matrix via :func:`exchange_layout` — per exchanged
    segment — and compares against the recorded intervals.
    ``exchanged_roles`` names the leases the job exchanged: keys and
    origin indices on the keys + perm path, the one packed-word stream on
    the word path: role ``"index"`` for int32 words (the origins decode
    in place), ``"keys"`` when 8-byte keys decode in place from int64 words,
    ``"words"`` otherwise.  ``complete``
    additionally demands that every nonempty run was written (off on
    partial logs from crashed runs, where missing writes are expected).
    """
    # Deferred import: repro.parallel.shmsan imports this module, so a
    # top-level import here would close a cycle through the package
    # __init__s.
    from ..parallel.layout import exchange_layout

    layout = exchange_layout(counts_matrix)
    exchanged = {
        lease.segment: lease
        for lease in leases
        if lease.role in exchanged_roles
    }
    recorded: dict[tuple[str, int, int], list[ShmAccess]] = {}
    for acc in accesses:
        if acc.label != "exchange-write" or acc.dst is None:
            continue
        recorded.setdefault((acc.segment, acc.rank, acc.dst), []).append(acc)
    violations: list[SanViolation] = []
    for segment, lease in sorted(exchanged.items()):
        for src in range(layout.size):
            for dst in range(layout.size):
                count = layout.run_length(src, dst)
                expect_lo = (
                    lease.byte_lo + layout.run_offset(src, dst) * lease.itemsize
                )
                expect_hi = expect_lo + count * lease.itemsize
                runs = recorded.pop((segment, src, dst), [])
                if not runs:
                    if count and complete:
                        violations.append(
                            SanViolation(
                                "missing-exchange-write",
                                src,
                                f"rank {src} never wrote its {count}-element "
                                f"run for destination {dst} on segment "
                                f"{segment} (expected bytes "
                                f"[{expect_lo}, {expect_hi}))",
                                {
                                    "segment": segment, "src": src, "dst": dst,
                                    "expected_bytes": [expect_lo, expect_hi],
                                },
                            )
                        )
                    continue
                for acc in runs:
                    if (acc.byte_lo, acc.byte_hi) == (expect_lo, expect_hi):
                        continue
                    violations.append(
                        SanViolation(
                            "offset-mismatch",
                            src,
                            f"rank {src} wrote its run for destination {dst} "
                            f"at bytes [{acc.byte_lo}, {acc.byte_hi}) of "
                            f"segment {segment} (step {acc.step}), but the "
                            f"counts matrix places it at "
                            f"[{expect_lo}, {expect_hi})",
                            {
                                "segment": segment, "src": src, "dst": dst,
                                "step": acc.step,
                                "actual_bytes": [acc.byte_lo, acc.byte_hi],
                                "expected_bytes": [expect_lo, expect_hi],
                            },
                        )
                    )
    return violations


def analyze_accesses(
    accesses: Sequence[ShmAccess],
    leases: Sequence[LeaseInfo],
    counts_matrix: np.ndarray | None = None,
    complete: bool = True,
    exchanged_roles: Sequence[str] = KEYS_AND_PERM,
) -> tuple[list[SanViolation], list[dict]]:
    """Run every happens-before check; returns (violations, notes)."""
    violations = find_races(accesses)
    violations.extend(check_lease_bounds(accesses, leases))
    notes: list[dict] = []
    if counts_matrix is not None:
        violations.extend(
            check_exchange_offsets(
                accesses, leases, counts_matrix, complete=complete,
                exchanged_roles=exchanged_roles,
            )
        )
    else:
        notes.append(
            {
                "kind": "offset-check-skipped",
                "reason": "no counts matrix (run did not complete)",
            }
        )
    return violations, notes


def _access_details(acc: ShmAccess) -> dict:
    return {
        "rank": acc.rank,
        "step": acc.step,
        "epoch": acc.epoch,
        "kind": acc.kind,
        "label": acc.label,
        "bytes": [acc.byte_lo, acc.byte_hi],
        "dst": acc.dst,
    }

"""SimSan — opt-in runtime sanitizer for the simulated comm layer.

The static half of the correctness tooling (:mod:`repro.checks`) catches
comm-API misuse it can see in the source; SimSan catches what only shows up
at runtime, without perturbing simulated behavior in any way:

* **use-after-Isend** — every payload handed to a (non-blocking) send is
  fingerprinted at injection and re-checked at delivery; a mismatch means
  the program mutated a buffer the NIC still owned, corrupting what the
  neighbor receives.
* **leaked requests** — :class:`~repro.simnet.mpi.SimRequest` objects
  created by ``comm.isend`` that are never ``wait()``/``test()``-ed by the
  end of the run.
* **unmatched messages** — payloads still sitting in a mailbox at finalize:
  a send whose matching recv never ran.
* **tag collisions** — two or more messages in flight on the same
  ``(src, dst, tag)`` channel at once; correct, but the receive order then
  depends on FIFO delivery, so the channels are reported as notes for
  review.
* **aborted runs** — a run that ends in a typed
  :class:`~repro.simnet.errors.DeadlockError` (a crash a fault plan
  injected is one) is not finalized: the engine's per-rank diagnosis (who
  waits on which source/tag since when, and what their mailboxes hold)
  and every message its mailboxes still held are folded into the report
  as notes, not as leaks.

Every engine hook is guarded by a single ``sanitizer is not None`` test
(the same discipline as the tracer), and no hook touches virtual time,
metrics, or event order — a sanitized run is bit-identical to an
unsanitized one (locked by the golden-fingerprint test).

Usage::

    from repro.simnet.sanitizer import sanitize

    with sanitize() as san:                  # every Simulator built in
        run_experiment()                     # the scope attaches it
    assert san.report.ok, san.report.summary()

The scope is the one way to attach a SimSan; scopes nest, and the
innermost one wins.

``mpi_run(..., strict=True)`` runs a whole program under SimSan and raises
:class:`~repro.simnet.errors.SimSanError` on violations; the experiments
CLI exposes the same via ``--sanitize``.  ``python -m repro.simnet.sanitizer``
replays the golden p=16 sort with SimSan enabled, verifies bit-identity
against the committed fingerprint, and writes the report (the CI artifact).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .calls import Message
    from .engine import Simulator


# ------------------------------------------------------------- fingerprints


def _update(h: "hashlib._Hash", obj: Any) -> None:
    if obj is None:
        h.update(b"\x00none")
    elif isinstance(obj, np.ndarray):
        h.update(b"\x01arr")
        h.update(str(obj.dtype).encode())
        h.update(str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        h.update(b"\x02byt")
        h.update(bytes(obj))
    elif isinstance(obj, (list, tuple)):
        h.update(b"\x03seq")
        for item in obj:
            _update(h, item)
    elif isinstance(obj, dict):
        h.update(b"\x04map")
        for k, v in obj.items():  # insertion order: deterministic & mutation-sensitive
            _update(h, k)
            _update(h, v)
    else:
        h.update(b"\x05obj")
        h.update(repr(obj).encode())


def fingerprint(payload: Any) -> str:
    """Stable content digest of a message payload (mutation-sensitive)."""
    h = hashlib.sha1()
    _update(h, payload)
    return h.hexdigest()


# ------------------------------------------------------------------ report


@dataclass(frozen=True)
class SanViolation:
    """One sanitizer finding: what went wrong, where."""

    kind: str  #: e.g. use-after-isend | leaked-request | write-write-race
    rank: int  #: rank the finding is attributed to (sender, mailbox owner, accessor)
    message: str
    details: dict = field(default_factory=dict)


@dataclass
class SanReport:
    """Aggregate findings of one sanitizer across its runs.

    SimSan and ShmSan (:mod:`repro.parallel.shmsan`) share it; each names
    itself, its two counters and how :meth:`summary` words them.
    """

    #: The sanitizer's name: heads the summary and names the JSON schema.
    name: str
    #: What was counted, JSON key → count, in summary order.
    counts: dict[str, int]
    #: The summary's wording of the two counts (``str.format`` positional).
    counted: str
    violations: list[SanViolation] = field(default_factory=list)
    #: Non-fatal observations (tag collisions, deadlock diagnoses,
    #: partial-run markers, skipped checks).
    notes: list[dict] = field(default_factory=list)
    runs: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        head = (
            f"{self.name}: {self.runs} run(s), "
            f"{self.counted.format(*self.counts.values())} — "
            f"{len(self.violations)} violation(s), {len(self.notes)} note(s)"
        )
        lines = [head]
        lines.extend(
            f"  [{v.kind}] rank {v.rank}: {v.message}" for v in self.violations
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "schema": f"repro.{self.name.lower()}-report/1",
            "ok": self.ok,
            "runs": self.runs,
            **self.counts,
            "violations": [
                {
                    "kind": v.kind,
                    "rank": v.rank,
                    "message": v.message,
                    "details": dict(v.details),
                }
                for v in self.violations
            ],
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------- sanitizer


class SimSan:
    """Runtime sanitizer observing one simulator run at a time.

    One instance may observe many sequential runs (the ambient
    :func:`sanitize` scope attaches it to every :class:`Simulator` built
    inside); findings accumulate in :attr:`report`.  All hooks are cheap
    bookkeeping plus payload hashing — nothing feeds back into the engine.
    """

    def __init__(self) -> None:
        self.report = SanReport(
            "SimSan",
            {"messages_checked": 0, "requests_tracked": 0},
            "{} message(s) checked, {} request(s) tracked",
        )
        # Per-run state, reset by begin_run().
        # id(msg) -> (msg, digest, nonblocking); the entry holds the message
        # so ``id(msg)`` cannot be recycled while its digest is live.
        self._digests: dict[int, tuple["Message", str, bool]] = {}
        self._in_flight: dict[tuple[int, int, int], int] = {}  # (src, dst, tag) -> count
        self._collisions: dict[tuple[int, int, int], int] = {}  # channel -> peak in-flight
        self._requests: dict[int, dict] = {}  # id(req) -> entry (holds a strong ref)

    # ------------------------------------------------------------- engine hooks

    def begin_run(self, sim: "Simulator") -> None:
        """Reset per-run state; called once by :meth:`Simulator.run`."""
        self.report.runs += 1
        self._digests.clear()
        self._in_flight.clear()
        self._collisions.clear()
        self._requests.clear()

    def on_send(self, msg: "Message", nonblocking: bool) -> None:
        """Fingerprint an injected payload and track channel concurrency."""
        self._digests[id(msg)] = (msg, fingerprint(msg.payload), nonblocking)
        channel = (msg.src, msg.dst, msg.tag)
        count = self._in_flight.get(channel, 0) + 1
        self._in_flight[channel] = count
        if count >= 2 and count > self._collisions.get(channel, 0):
            self._collisions[channel] = count

    def _left_the_wire(self, msg: "Message") -> "tuple | None":
        """Retire ``msg`` from its channel's in-flight count and pop its
        digest entry (``None`` when it has none)."""
        channel = (msg.src, msg.dst, msg.tag)
        remaining = self._in_flight.get(channel, 1) - 1
        if remaining:
            self._in_flight[channel] = remaining
        else:
            self._in_flight.pop(channel, None)
        return self._digests.pop(id(msg), None)

    def on_drop(self, msg: "Message") -> None:
        """A fault plan lost ``msg`` for good: it will never be delivered."""
        self._left_the_wire(msg)

    def on_deliver(self, msg: "Message") -> None:
        """Re-check the payload fingerprint as the message lands."""
        self.report.counts["messages_checked"] += 1
        entry = self._left_the_wire(msg)
        if entry is None:  # sent before attaching
            return
        _msg, digest, nonblocking = entry
        if fingerprint(msg.payload) != digest:
            kind = "use-after-isend" if nonblocking else "send-mutation"
            self.report.violations.append(
                SanViolation(
                    kind,
                    msg.src,
                    f"payload of {'Isend' if nonblocking else 'Send'} to rank "
                    f"{msg.dst} (tag {msg.tag}, {msg.nbytes}B) was mutated "
                    "between injection and delivery",
                    {
                        "src": msg.src,
                        "dst": msg.dst,
                        "tag": msg.tag,
                        "nbytes": msg.nbytes,
                        "sent_at": msg.sent_at,
                        "delivered_at": msg.delivered_at,
                    },
                )
            )

    def finish_run(
        self, sim: "Simulator", leftovers: dict[int, list["Message"]]
    ) -> None:
        """Finalize checks: unmatched messages, leaked requests, collisions."""
        for rank in sorted(leftovers):
            for msg in leftovers[rank]:
                self.report.violations.append(
                    SanViolation(
                        "unmatched-message",
                        rank,
                        f"mailbox still holds a message from rank {msg.src} "
                        f"(tag {msg.tag}, {msg.nbytes}B) at finalize: its "
                        "recv never ran",
                        {"src": msg.src, "dst": rank, "tag": msg.tag,
                         "nbytes": msg.nbytes, "sent_at": msg.sent_at},
                    )
                )
        for entry in sorted(
            self._requests.values(), key=lambda e: (e["rank"], e["seq"])
        ):
            if not entry["observed"]:
                self.report.violations.append(
                    SanViolation(
                        "leaked-request",
                        entry["rank"],
                        f"SimRequest from isend(dest={entry['dest']}, "
                        f"tag={entry['tag']}) was never wait()/test()-ed",
                        {"dest": entry["dest"], "tag": entry["tag"]},
                    )
                )
        for (src, dst, tag), peak in sorted(self._collisions.items()):
            self.report.notes.append(
                {
                    "kind": "tag-collision",
                    "src": src,
                    "dst": dst,
                    "tag": tag,
                    "peak_in_flight": peak,
                }
            )
        self._requests.clear()
        self._digests.clear()

    def abort_run(
        self, leftovers: dict[int, list["Message"]], details: dict[int, dict]
    ) -> None:
        """The run ended in a typed error instead of finishing: fold the
        engine's per-rank diagnosis in, and what the mailboxes still held
        as the aborted run's messages — notes, since no recv was owed."""
        self.report.notes.append({"kind": "deadlock", "ranks": details})
        for rank in sorted(leftovers):
            self.report.notes.extend(
                {"kind": "aborted-run-message", "rank": rank, "src": msg.src,
                 "tag": msg.tag, "nbytes": msg.nbytes}
                for msg in leftovers[rank]
            )
        self._requests.clear()
        self._digests.clear()

    # ------------------------------------------------------------ request API

    def register_request(self, req: Any, rank: int, dest: int, tag: int) -> None:
        """Track a :class:`SimRequest`; the entry keeps it alive until
        :meth:`finish_run` so ``id(req)`` cannot be recycled mid-run."""
        self.report.counts["requests_tracked"] += 1
        self._requests[id(req)] = {
            "req": req,
            "rank": rank,
            "dest": dest,
            "tag": tag,
            "seq": len(self._requests),
            "observed": False,
        }

    def observe_request(self, req: Any) -> None:
        entry = self._requests.get(id(req))
        if entry is not None:
            entry["observed"] = True


# ----------------------------------------------------------- ambient scope

_ACTIVE: list[SimSan] = []


@contextmanager
def sanitize(san: SimSan | None = None) -> Iterator[SimSan]:
    """Attach ``san`` (default: a fresh :class:`SimSan`) to every
    :class:`Simulator` constructed inside the ``with`` block."""
    if san is None:
        san = SimSan()
    _ACTIVE.append(san)
    try:
        yield san
    finally:
        _ACTIVE.pop()


def active_sanitizer() -> SimSan | None:
    """The innermost ambient sanitizer, or None (engine-side lookup)."""
    return _ACTIVE[-1] if _ACTIVE else None


# ------------------------------------------------- golden verification CLI


def main(argv: list[str] | None = None) -> int:
    """Replay a golden's capture under SimSan and verify bit-identity.

    This is the CI gate for the "sanitized runs are behavior-invariant"
    contract: the capture of the sanitized run must equal the committed
    golden, and the sanitizer must report no violations.
    """
    import argparse
    import json

    from ..analysis.determinism import GOLDENS

    parser = argparse.ArgumentParser(
        prog="python -m repro.simnet.sanitizer",
        description="A golden's run with SimSan enabled: bit-identity gate.",
    )
    parser.add_argument(
        "--golden",
        default="p16",
        choices=tuple(GOLDENS),
        help="golden to replay and compare against (default p16)",
    )
    parser.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="write the SimSan report JSON here (CI artifact)",
    )
    args = parser.parse_args(argv)

    entry = GOLDENS[args.golden]
    golden = json.loads(entry["path"].read_text())
    with sanitize() as san:
        current = entry["capture"]()
    diverged = [key for key in golden if current.get(key) != golden[key]]
    if args.report_out:
        doc = {"golden_bit_identical": not diverged, "diverged_fields": diverged}
        doc.update(san.report.to_json())
        with open(args.report_out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(san.report.summary())
    if diverged:
        print(f"FAIL: sanitized run diverged from golden in fields {diverged}")
        return 1
    if not san.report.ok:
        print("FAIL: SimSan reported violations on the golden run")
        return 1
    print("OK: sanitized golden run is bit-identical and violation-free")
    return 0


if __name__ == "__main__":  # pragma: no cover - CI entry point
    import sys

    # Delegate to the canonical module object: under ``python -m`` this
    # file executes as ``__main__``, and a scope opened from *that*
    # namespace would push onto a stack the engine never reads.
    from repro.simnet.sanitizer import main as _canonical_main

    sys.exit(_canonical_main())

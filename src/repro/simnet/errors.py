"""Error types raised by the discrete-event cluster simulator."""

from __future__ import annotations


class SimError(Exception):
    """Base class for all simulator errors."""


def _spec_word(value: int) -> str:
    return "ANY" if value == -1 else str(value)


def _diagnose(rank: int, entry: dict) -> str:
    """One human-readable line of per-rank deadlock diagnosis."""
    status = entry.get("status", "?")
    if status == "CRASHED":
        at = entry.get("crashed_at")
        when = f" at t={at:.6g}" if at is not None else ""
        return f"rank {rank}: crashed{when} (fault injection)"
    waiting = entry.get("waiting_for") or {}
    if status == "BLOCKED_RECV":
        op = "probe" if waiting.get("probe") else "recv"
        what = (
            f"blocked in {op}(src={_spec_word(waiting.get('src', -1))}, "
            f"tag={_spec_word(waiting.get('tag', -1))})"
        )
    elif status == "BLOCKED_BARRIER":
        what = f"blocked in barrier #{waiting.get('barrier_seq', '?')}"
    else:
        what = f"blocked ({status})"
    since = entry.get("blocked_since", 0.0)
    pending = entry.get("mailbox_messages", 0)
    line = (
        f"rank {rank}: {what} since t={since:.6g}, "
        f"mailbox holds {pending} unmatched message(s)"
    )
    reliable = entry.get("reliable")
    if reliable:
        pending_list = reliable.get("pending", [])
        dead = reliable.get("declared_dead", [])
        frags = []
        if pending_list:
            unacked = ", ".join(
                f"seq {p['seq']}->rank {p['dst']} ({p['channel']}, attempt {p['attempt']})"
                for p in pending_list[:4]
            )
            more = len(pending_list) - 4
            if more > 0:
                unacked += f", +{more} more"
            frags.append(f"{len(pending_list)} unacked send(s): {unacked}")
        if dead:
            frags.append(f"peers declared dead: {dead}")
        if frags:
            line += "; " + "; ".join(frags)
    return line


class DeadlockError(SimError):
    """Raised when every live process is blocked and no event is pending.

    This typically means a ``Recv`` was posted with no matching ``Send``,
    or a ``Barrier`` was entered by only a subset of processes.

    ``blocked`` maps each live rank to its status name.  When the engine
    supplies ``details`` (it always does for deadlocks it detects itself),
    the message carries a per-rank diagnosis — which source/tag each rank
    is waiting on, since when, and how many unmatched messages its mailbox
    holds — and the structured form is kept on :attr:`details` for tooling
    (SimSan folds it into its report).
    """

    def __init__(self, blocked: dict[int, str], details: dict[int, dict] | None = None):
        self.blocked = dict(blocked)
        self.details = dict(details) if details else {}
        if self.details:
            lines = "\n".join(
                "  " + _diagnose(rank, entry)
                for rank, entry in sorted(self.details.items())
            )
            message = f"simulation deadlocked; all live ranks blocked:\n{lines}"
        else:
            detail = ", ".join(
                f"rank {r}: {why}" for r, why in sorted(blocked.items())
            )
            message = f"simulation deadlocked; blocked processes: {detail}"
        super().__init__(message)


class ProcessFailure(SimError):
    """Wraps an exception raised inside a simulated process."""

    def __init__(self, rank: int, original: BaseException):
        self.rank = rank
        self.original = original
        super().__init__(f"process rank {rank} failed: {original!r}")


class InvalidCallError(SimError):
    """Raised when a process yields an object the engine cannot interpret."""


class UnknownRankError(SimError):
    """Raised when a message targets a rank that does not exist."""


class ExchangeTimeoutError(SimError):
    """Raised when the reliable exchange exhausts its retry/round budget.

    ``failures`` lists the datagrams that were never acknowledged (dicts
    with ``dst``/``seq``/``channel``/``attempts``); ``reason`` carries a
    phase-level explanation when the failure is not per-message (e.g. no
    commit within the round budget).
    """

    def __init__(self, rank: int, failures: list[dict] | None = None, reason: str | None = None):
        self.rank = rank
        self.failures = list(failures or [])
        self.reason = reason
        if self.failures:
            frags = ", ".join(
                f"seq {f['seq']}->rank {f['dst']} ({f['channel']}) after "
                f"{f['attempts']} attempt(s)"
                for f in self.failures[:6]
            )
            more = len(self.failures) - 6
            if more > 0:
                frags += f", +{more} more"
            body = f"retry cap exhausted for {len(self.failures)} message(s): {frags}"
        else:
            body = reason or "exchange did not complete"
        super().__init__(f"rank {rank}: {body}")


class MembershipError(SimError):
    """Raised when a live rank is excluded from the surviving cluster.

    The recovery protocol votes suspects out by majority of acks; a rank
    that was wrongly suspected (e.g. partitioned by extreme fault rates)
    raises this instead of silently producing output the survivors will
    not account for.  Also raised at assembly time if rank outputs
    disagree about the survivor set (split-brain).
    """

    def __init__(self, rank: int, alive: list[int] | tuple[int, ...], round_no: int, reason: str | None = None):
        self.rank = rank
        self.alive = list(alive)
        self.round_no = round_no
        body = reason or f"excluded from surviving cluster {self.alive} in round {round_no}"
        super().__init__(f"rank {rank}: {body}")


class SimSanError(SimError):
    """Raised by strict sanitized runs when SimSan recorded violations.

    Carries the full :class:`~repro.simnet.sanitizer.SanReport` on
    :attr:`report`; the message is the report's summary (one line per
    violation: use-after-Isend, leaked request, unmatched message, ...).
    """

    def __init__(self, report):
        self.report = report
        super().__init__(report.summary())

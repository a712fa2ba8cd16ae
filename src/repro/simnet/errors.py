"""Error types raised by the discrete-event cluster simulator."""

from __future__ import annotations


class SimError(Exception):
    """Base class for all simulator errors."""


def _spec_word(value: int) -> str:
    return "ANY" if value == -1 else str(value)


def _diagnose(rank: int, entry: dict) -> str:
    """One human-readable line of per-rank deadlock diagnosis."""
    status = entry.get("status", "?")
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
    return (
        f"rank {rank}: {what} since t={since:.6g}, "
        f"mailbox holds {pending} unmatched message(s)"
    )


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


class RankCrashedError(DeadlockError):
    """A fault plan's ``kill=`` or ``poison=`` fired: ``rank`` fail-stopped
    at virtual time ``at``, as it opened a step, so on a reliable transport its peers would wait on it
    forever.  The run ends here; :mod:`repro.core.retry` re-runs the job."""

    def __init__(self, rank: int, at: float):
        self.rank = rank
        self.at = at
        self.blocked = {rank: "CRASHED"}
        self.details = {rank: {"status": "CRASHED", "crashed_at": at}}
        SimError.__init__(self, f"rank {rank} crashed at t={at:.6g} (fault injection)")


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


class SimSanError(SimError):
    """Raised by strict sanitized runs when SimSan recorded violations.

    Carries the full :class:`~repro.simnet.sanitizer.SanReport` on
    :attr:`report`; the message is the report's summary (one line per
    violation: use-after-Isend, leaked request, unmatched message, ...).
    """

    def __init__(self, report):
        self.report = report
        super().__init__(report.summary())

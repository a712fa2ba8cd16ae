"""Typed failures of the real-parallel execution backend.

Everything a process-backend run can do wrong surfaces as one of these —
never as a hang, and never as a bare ``BrokenPipeError`` deep inside
``multiprocessing``.  The control-plane hub watches worker liveness while
serving collectives, so a worker that dies mid-protocol turns into a
:class:`WorkerCrashedError` naming the rank, and a worker that raised is
re-reported as a :class:`WorkerFailedError` carrying the remote traceback.
"""

from __future__ import annotations


class ParallelBackendError(RuntimeError):
    """Base class for process-backend failures.

    Every subclass carries optional *job provenance*: the control-plane
    hub that raises these errors knows ranks and pipes, not jobs, so the
    backend stamps ``job_id`` as the error propagates out of
    ``sort_blocks`` and ``SorterPool.sort_many`` adds ``stream_index`` —
    a mid-stream failure then names exactly which job of the stream died.
    """

    #: Pool job the failure belongs to (``None`` until stamped).
    job_id: int | None = None
    #: Position in a ``SorterPool.sort_many`` stream (``None`` until stamped).
    stream_index: int | None = None

    def annotate_job(
        self, *, job_id: int | None = None, stream_index: int | None = None
    ) -> "ParallelBackendError":
        """Attach job/stream provenance post-hoc; first stamp wins.

        Mutates in place and returns ``self`` so callers can
        ``raise exc.annotate_job(job_id=...)`` without losing the original
        traceback.  The rendered message is extended once per field.
        """
        notes = []
        if job_id is not None and self.job_id is None:
            self.job_id = job_id
            notes.append(f"job {job_id}")
        if stream_index is not None and self.stream_index is None:
            self.stream_index = stream_index
            notes.append(f"stream index {stream_index}")
        if notes and self.args:
            self.args = (f"{self.args[0]} [{', '.join(notes)}]",) + self.args[1:]
        return self


def _beat_clause(last_step: str | None, heartbeat_age: float | None) -> str:
    """Render a rank's last heartbeat for an error message."""
    if last_step is None:
        return "no heartbeat received"
    if heartbeat_age is None:
        return f"last heartbeat at step {last_step!r}"
    return f"last heartbeat at step {last_step!r}, {heartbeat_age:.1f}s before detection"


class WorkerCrashedError(ParallelBackendError):
    """A worker process died without reporting a result or an error.

    Raised by the control-plane hub when a worker's pipe hits EOF or its
    process exits while collectives are still outstanding — the situation
    that would otherwise deadlock every surviving rank inside a barrier.
    Carries the dead rank's last step-boundary heartbeat (and how long
    before detection it arrived), so a crash reports *which step* the
    worker died in.
    """

    def __init__(
        self,
        rank: int,
        exitcode: int | None,
        phase: str,
        last_step: str | None = None,
        heartbeat_age: float | None = None,
    ):
        self.rank = rank
        self.exitcode = exitcode
        self.phase = phase
        self.last_step = last_step
        self.heartbeat_age = heartbeat_age
        super().__init__(
            f"worker rank {rank} crashed (exitcode {exitcode}) "
            f"during {phase} ({_beat_clause(last_step, heartbeat_age)}); "
            f"remaining workers were terminated"
        )


class WorkerFailedError(ParallelBackendError):
    """A worker raised an exception; the remote traceback rides along."""

    def __init__(
        self,
        rank: int,
        exc_type: str,
        remote_traceback: str,
        last_step: str | None = None,
    ):
        self.rank = rank
        self.exc_type = exc_type
        self.remote_traceback = remote_traceback
        self.last_step = last_step
        beat = "" if last_step is None else f" (last heartbeat at step {last_step!r})"
        super().__init__(
            f"worker rank {rank} failed with {exc_type}{beat}\n"
            f"--- remote traceback ---\n{remote_traceback}"
        )


class ControlPlaneTimeout(ParallelBackendError):
    """The hub's wall-clock deadline expired with collectives pending.

    Two deadlines feed this error: the global no-progress timeout, and
    (when armed) the per-phase deadline that bounds how long any single
    collective may stay open while *other* traffic keeps flowing — the
    case a hung or muted rank creates.  ``missing_ranks`` names the ranks
    whose contribution never arrived, which lets the retry layer charge
    the failure to a specific rank even though no process died.
    """

    def __init__(
        self,
        waited_seconds: float,
        pending: str,
        heartbeats: str = "",
        missing_ranks: tuple[int, ...] = (),
    ):
        self.waited_seconds = waited_seconds
        self.pending = pending
        self.heartbeats = heartbeats
        self.missing_ranks = tuple(missing_ranks)
        beats = f"; {heartbeats}" if heartbeats else ""
        missing = (
            f"; missing ranks {list(self.missing_ranks)}" if self.missing_ranks else ""
        )
        super().__init__(
            f"control plane made no progress for {waited_seconds:.1f}s "
            f"({pending}{beats}{missing}); terminating workers"
        )


class JobAbortedError(ParallelBackendError):
    """Retries exhausted: the same job failed on every allowed attempt.

    Raised by the retry layer in
    :meth:`~repro.parallel.backend.ProcessBackend.sort_blocks` after a
    :class:`~repro.core.retry.RetryPolicy` runs out of attempts
    without the job completing (and, when degradation is enabled, without
    the failures concentrating on a single poisonable rank).  Carries the
    full attempt history — one dict per attempt with ``attempt``,
    ``error``, ``rank``, ``exitcode``, and ``last_step`` (the rank's last
    step-boundary heartbeat) — so postmortems see every generation that
    was burned, not just the final straw.
    """

    def __init__(self, job_id: int, attempts: list[dict] | tuple[dict, ...]):
        self.job_id = job_id
        self.attempts = tuple(attempts)
        history = "; ".join(
            f"attempt {a['attempt']}: {a['error']}"
            f" rank={a['rank']} exitcode={a['exitcode']} last_step={a['last_step']}"
            for a in self.attempts
        )
        super().__init__(
            f"job {job_id} aborted after {len(self.attempts)} failed attempts"
            f" ({history})"
        )


class ProtocolError(ParallelBackendError):
    """A worker sent a control message the hub cannot reconcile."""


class PoolClosedError(ParallelBackendError):
    """A job was dispatched to a retired worker pool.

    Raised by :meth:`~repro.parallel.backend.ProcessBackend.sort_blocks`
    after :meth:`close`/``__exit__`` shut the pool down — distinct from a
    crash (which the pool survives by respawning the next generation):
    a closed pool has also unlinked its arena, so reviving it silently
    would hand out dangling leases.
    """

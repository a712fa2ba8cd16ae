"""Deterministic process-level chaos injection for the real backend.

The simulated substrate got its fault story in :mod:`repro.simnet.faults`:
a frozen, seeded :class:`~repro.simnet.faults.FaultPlan` that the engine
consults at delivery time.  This module is the real-backend counterpart.
The faults are now *operating-system* faults — an actual ``SIGKILL``, a
rank that genuinely stops answering its pipe, a hub that stalls before a
reply — but the discipline is identical: a frozen :class:`RealFaultPlan`
built from the same comma-separated ``key=value`` spec grammar, fully
determined by its schedule entries and one seed, consulted behind a
single ``chaos is not None`` guard so the no-chaos path stays
bit-identical to the PR-9 goldens.

Fault classes:

* ``kill=RANK@STEP[:JOB]`` — the worker SIGKILLs itself when it reaches
  the named step boundary, on the job's **first attempt only** (a
  transient fault: the retry layer's respawned generation sails through).
  ``STEP`` is a step label (``5-exchange``) or its 1-based index; an
  optional ``:JOB`` confines the kill to one pool job id.
* ``poison=RANK`` — the rank dies at the first step boundary of **every**
  attempt of every job: a persistent fault no retry can outwait.  This is
  what drives survivor-degraded recovery — after ``degrade_after``
  crashes the backend excludes the rank and re-plans at reduced p.
* ``hang=RANK@OP[:JOB]`` — instead of entering its first collective of
  type ``OP`` (``barrier``/``gather``/``bcast``/``allgather``), the rank
  sleeps until terminated (first attempt only).  No process dies, so only
  the control plane's per-phase deadline can convert this into a typed,
  rank-attributed :class:`~repro.parallel.errors.ControlPlaneTimeout`.
* ``delay=P[:SPIKE]`` — the hub sleeps ``SPIKE`` seconds (default 5 ms)
  before each collective reply with probability ``P``, drawn from a rng
  seeded per ``(plan seed, job, attempt)`` so a replay injects the same
  spikes.  Exercises the pipe-star under latency jitter.
* ``mute=RANK`` — the rank sends no step-boundary heartbeats.  Sorting is
  unaffected; crash *detection* degrades to "no heartbeat received",
  which is exactly the diagnostics path this fault exists to test.
* ``slow=RANKxMULT`` — the rank sleeps ``(MULT - 1) x`` each step's
  measured duration at the following boundary, stretching its compute
  without touching the data path (straggler, not failure).

Worker-side decisions are pure schedule lookups (no rng in the worker),
so kills and hangs land on exactly the planned step of the planned rank
every time; only the hub's delay spikes are stochastic, and those are
seeded.  Chaos state addresses ranks by their **original** rank ids even
inside a survivor-degraded re-plan (the backend ships the survivor→rank
mapping on the job spec), so a poisoned rank stays poisoned under any
renumbering and a degraded generation is not re-killed by schedule
entries aimed at ranks that are no longer present.

Like the rest of ``repro.parallel``, this module reads the wall clock
and sleeps by design — it is the one library package exempt from
repro-lint's R002 realtime rule.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..core.sorter_labels import STEP_LABELS
from ..simnet.faults import prob_and_extra, rank_times_mult, spec_tokens, split_pair

#: Collective ops a ``hang=`` entry may name (the WorkerLink vocabulary).
COLLECTIVE_OPS = ("barrier", "gather", "bcast", "allgather")

#: How long a hung rank sleeps before giving up on being terminated.
HANG_SECONDS = 3600.0


def _parse_step(token: str) -> str:
    """A step label, given either canonically or as its 1-based index."""
    if token in STEP_LABELS:
        return token
    try:
        index = int(token)
    except ValueError:
        index = 0
    if 1 <= index <= len(STEP_LABELS):
        return STEP_LABELS[index - 1]
    raise ValueError(
        f"unknown step {token!r} (want one of {list(STEP_LABELS)} or 1..{len(STEP_LABELS)})"
    )


def _parse_target(key: str, value: str) -> tuple[int | None, int, str]:
    """Parse ``RANK@WHERE[:JOB]`` into ``(job_or_None, rank, where)``."""
    shape = f"RANK@{'STEP' if key == 'kill' else 'OP'}[:JOB]"
    target, _, job = value.partition(":")
    rank, where = split_pair(key, target, "@", shape)
    return int(job) if job else None, int(rank), where


@dataclass(frozen=True)
class RealFaultPlan:
    """A frozen, seeded schedule of process-level faults.

    Hashable on purpose (all-tuple fields), mirroring
    :class:`~repro.simnet.faults.FaultPlan`: two runs handed equal plans
    inject equal faults.  Build one with :meth:`from_spec` or the
    :func:`kill_one_per_job` helper; activate it either explicitly
    (``ProcessBackend(chaos=plan)``) or ambiently via
    :func:`inject_real_faults`.
    """

    seed: int = 0
    #: ``(job_id | None, rank, step_label)`` — SIGKILL at that step
    #: boundary on the job's first attempt (``None`` job = every job).
    kills: tuple[tuple[int | None, int, str], ...] = ()
    #: Ranks that die at the first step boundary of *every* attempt.
    poisoned: tuple[int, ...] = ()
    #: ``(job_id | None, rank, op)`` — sleep instead of entering the
    #: first collective of that op (first attempt only).
    hangs: tuple[tuple[int | None, int, str], ...] = ()
    #: Probability the hub delays any one collective reply.
    delay_probability: float = 0.0
    #: Seconds of injected delay per spiked reply.
    delay_spike_seconds: float = 0.005
    #: Ranks whose step-boundary heartbeats are suppressed.
    muted: tuple[int, ...] = ()
    #: ``(rank, multiplier)`` — stretch the rank's step durations.
    slow: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.delay_probability <= 1.0:
            raise ValueError("delay_probability must be in [0, 1]")
        if self.delay_spike_seconds < 0.0:
            raise ValueError("delay_spike_seconds must be >= 0")
        kills = []
        for job, rank, step in self.kills:
            if rank < 0 or (job is not None and job < 0):
                raise ValueError(f"kill entry has negative rank/job: {(job, rank, step)}")
            kills.append((job, rank, _parse_step(step)))
        # worker_state compares steps by label, so an index-form step
        # ("5") must become its canonical label here or it never fires.
        object.__setattr__(self, "kills", tuple(kills))
        for job, rank, op in self.hangs:
            if op not in COLLECTIVE_OPS:
                raise ValueError(f"unknown collective op {op!r} (want one of {list(COLLECTIVE_OPS)})")
            if rank < 0 or (job is not None and job < 0):
                raise ValueError(f"hang entry has negative rank/job: {(job, rank, op)}")
        if any(rank < 0 for rank in self.poisoned) or any(rank < 0 for rank in self.muted):
            raise ValueError("poison/mute ranks must be >= 0")
        for rank, mult in self.slow:
            if rank < 0 or mult < 1.0:
                raise ValueError(f"slow entry wants rank >= 0 and multiplier >= 1, got {(rank, mult)}")

    # ------------------------------------------------------------ parsing

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "RealFaultPlan":
        """Parse the CLI grammar (see module docstring) into a plan.

        Comma-separated ``key=value`` tokens; repeated ``kill``/``poison``/
        ``hang``/``mute``/``slow`` tokens accumulate.  Examples::

            kill=2@5-exchange
            kill=1@3:0,kill=2@5:1,delay=0.2:0.01
            poison=3,slow=1x2.5,mute=0
        """
        entries: dict[str, list] = {
            key: [] for key in ("kill", "poison", "hang", "mute", "slow")
        }
        fields: dict = {}
        for key, value in spec_tokens(spec, (*entries, "delay")):
            if key == "delay":
                fields["delay_probability"], spike = prob_and_extra(value)
                if spike is not None:
                    fields["delay_spike_seconds"] = spike
            elif key in ("kill", "hang"):
                entries[key].append(_parse_target(key, value))
            elif key == "slow":
                entries[key].append(rank_times_mult(value))
            else:
                entries[key].append(int(value))
        return cls(
            seed=seed,
            kills=tuple(entries["kill"]),
            poisoned=tuple(entries["poison"]),
            hangs=tuple(entries["hang"]),
            muted=tuple(entries["mute"]),
            slow=tuple(entries["slow"]),
            **fields,
        )

    def describe(self) -> str:
        """One-line summary (CLI banner, chaos artifact); the part after the
        seed is a spec :meth:`from_spec` parses back into this plan."""

        def target(key: str, job: int | None, rank: int, where: str) -> str:
            return f"{key}={rank}@{where}" + ("" if job is None else f":{job}")

        parts = [target("kill", *entry) for entry in self.kills]
        parts.extend(f"poison={rank}" for rank in self.poisoned)
        parts.extend(target("hang", *entry) for entry in self.hangs)
        if self.delay_probability:
            parts.append(f"delay={self.delay_probability!r}:{self.delay_spike_seconds!r}")
        parts.extend(f"mute={rank}" for rank in self.muted)
        parts.extend(f"slow={rank}x{mult!r}" for rank, mult in self.slow)
        return f"RealFaultPlan(seed={self.seed}, {','.join(parts) or 'none'})"

    # --------------------------------------------------------- per-attempt

    def worker_state(
        self, rank: int, job_id: int, attempt: int
    ) -> "WorkerChaosState":
        """The (pure lookup) decisions for one worker on one attempt.

        ``rank`` is the *original* rank id — under a survivor-degraded
        re-plan the backend maps the worker's slot back to its original
        identity before calling this, so schedule entries keep meaning
        the same physical participant across renumberings.
        """
        kill_step = None
        if rank in self.poisoned:
            kill_step = STEP_LABELS[0]
        elif attempt == 0:
            for job, target, step in self.kills:
                if target == rank and (job is None or job == job_id):
                    kill_step = step
                    break
        hang_op = None
        if attempt == 0:
            for job, target, op in self.hangs:
                if target == rank and (job is None or job == job_id):
                    hang_op = op
                    break
        mult = 1.0
        for target, multiplier in self.slow:
            if target == rank:
                mult = max(mult, multiplier)
        return WorkerChaosState(
            kill_step=kill_step,
            hang_op=hang_op,
            muted=rank in self.muted,
            slow_multiplier=mult,
        )

    def hub_state(self, job_id: int, attempt: int) -> "HubChaosState | None":
        """Seeded hub-side delay-spike state, or None when delays are off."""
        if self.delay_probability <= 0.0:
            return None
        return HubChaosState(
            probability=self.delay_probability,
            spike_seconds=self.delay_spike_seconds,
            rng=np.random.default_rng([self.seed, job_id, attempt]),
        )

    def targets_rank(self, rank: int) -> bool:
        """Does any schedule entry address ``rank``?  (Validation aid.)"""
        return (
            rank in self.poisoned
            or rank in self.muted
            or any(target == rank for _, target, _ in self.kills)
            or any(target == rank for _, target, _ in self.hangs)
            or any(target == rank for target, _ in self.slow)
        )


class WorkerChaosState:
    """Per-(rank, job, attempt) fault decisions, consulted in the worker.

    Created fresh for every attempt from the frozen plan; holds the tiny
    amount of mutable state the faults need (the previous step boundary's
    clock reading for the slow multiplier, the one-shot hang flag).  An
    attached :class:`~repro.parallel.tracing.WorkerTracer` receives a
    fault event for every injection that leaves the process alive.
    """

    __slots__ = (
        "kill_step",
        "hang_op",
        "muted",
        "slow_multiplier",
        "tracer",
        "_last_boundary",
    )

    def __init__(
        self,
        *,
        kill_step: str | None,
        hang_op: str | None,
        muted: bool,
        slow_multiplier: float,
    ) -> None:
        self.kill_step = kill_step
        self.hang_op = hang_op
        self.muted = muted
        self.slow_multiplier = slow_multiplier
        self.tracer = None
        self._last_boundary: float | None = None

    def at_step_boundary(self, step: str) -> None:
        """Consulted by the worker at every step-boundary heartbeat."""
        now = time.perf_counter()  # repro: noqa[R002] — real backend: slow-rank pauses scale measured step durations
        if self.slow_multiplier > 1.0 and self._last_boundary is not None:
            pause = (self.slow_multiplier - 1.0) * (now - self._last_boundary)
            if pause > 0.0:
                if self.tracer is not None:
                    self.tracer.fault("slow", f"{step}: +{pause * 1e3:.2f}ms")
                time.sleep(pause)
        self._last_boundary = time.perf_counter()  # repro: noqa[R002] — real backend: slow-rank pauses scale measured step durations
        if step == self.kill_step:
            # A real fail-stop: no atexit hooks, no send_error, the pipe
            # simply hits EOF — exactly what the hub's liveness watch and
            # the retry layer exist to absorb.
            os.kill(os.getpid(), signal.SIGKILL)

    def before_collective(self, op: str) -> None:
        """Consulted by WorkerLink before posting any collective."""
        if op == self.hang_op:
            self.hang_op = None
            if self.tracer is not None:
                self.tracer.fault("hang", f"before {op}")
            time.sleep(HANG_SECONDS)

    def note_muted(self, step: str) -> None:
        if self.tracer is not None:
            self.tracer.fault("mute", f"suppressed heartbeat at {step}")


class HubChaosState:
    """Seeded delay-spike injection on the hub's collective replies."""

    __slots__ = ("probability", "spike_seconds", "_rng", "spikes")

    def __init__(self, *, probability: float, spike_seconds: float, rng) -> None:
        self.probability = probability
        self.spike_seconds = spike_seconds
        self._rng = rng
        #: How many replies were actually delayed (observability).
        self.spikes = 0

    def maybe_delay_reply(self) -> None:
        if self._rng.random() < self.probability:
            self.spikes += 1
            time.sleep(self.spike_seconds)


# ------------------------------------------------------- ambient plan scope

_ACTIVE_PLANS: list[RealFaultPlan] = []


def active_real_fault_plan() -> RealFaultPlan | None:
    """The innermost ambient plan, or None (the common case)."""
    return _ACTIVE_PLANS[-1] if _ACTIVE_PLANS else None


@contextmanager
def inject_real_faults(plan: RealFaultPlan):
    """Scope an ambient chaos plan over every process-backend sort.

    Mirrors :func:`repro.simnet.faults.inject_faults`: any
    ``ProcessBackend`` constructed or run inside the scope without an
    explicit ``chaos=`` argument picks the plan up (and, unless it was
    given an explicit ``retry=``, arms a default
    :class:`~repro.core.retry.RetryPolicy` — chaos without recovery
    would just convert every planned fault into a lost job).
    """
    _ACTIVE_PLANS.append(plan)
    try:
        yield plan
    finally:
        _ACTIVE_PLANS.remove(plan)


# ------------------------------------------------------- canned schedules


def kill_one_per_job(
    num_jobs: int,
    num_ranks: int,
    *,
    step: str = "5-exchange",
    seed: int = 0,
) -> RealFaultPlan:
    """The CI matrix plan: every job loses one worker, round-robin.

    Job ``j`` SIGKILLs rank ``j % num_ranks`` at ``step`` on its first
    attempt; with a :class:`~repro.core.retry.RetryPolicy` attached
    every job must recover on attempt 1 at full width, bit-identical to
    the oracle.
    """
    label = _parse_step(step)
    kills = tuple((job, job % num_ranks, label) for job in range(num_jobs))
    return RealFaultPlan(seed=seed, kills=kills)

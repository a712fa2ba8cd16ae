"""One fault plan for both substrates.

The paper's fabric is InfiniBand's reliable, in-order transport, and no
figure injects a fault; faults exist here to prove the failure contract
(every key comes back, or the job raises a typed error).  A
:class:`FaultPlan` is one frozen, seeded description of what goes wrong,
with one spec grammar, and both substrates take it as ``faults=``:
:class:`~repro.simnet.engine.Simulator` and
:class:`~repro.core.api.DistributedSorter` on simnet,
:class:`~repro.parallel.backend.ProcessBackend` on the pool, and the CLI's
``--faults SPEC --fault-seed N`` through the ambient :func:`inject_faults`
scope, which both consult.

Each key means the same on both substrates:

* **process faults, addressed by step label** — ``kill=R@STEP[:JOB]``
  kills rank R as it enters STEP on the job's first attempt only (a
  transient fault), ``poison=R`` kills it entering step 1 of *every*
  attempt (persistent: the retry layer drops it), ``slow=RxM`` stretches
  its compute M-fold.  They fire at the step edge each substrate already
  crosses: the engine's handling of the step's ``Mark`` on simnet (ending
  the run with :class:`~repro.simnet.errors.RankCrashedError`), the
  worker's ``_Job.edge`` on the pool (a real ``SIGKILL``);
* **wire faults, where a wire exists** — ``drop=P``, ``link=S-D:M[:E]``
  and ``delay=P[:SPIKE]`` act on simnet's messages; ``delay`` also acts
  on the pool's barrier releases;
* **pool-only observability faults** — ``hang=R@OP[:JOB]`` (alive but
  silent before one collective) and ``mute=R`` (no heartbeats).

A key a substrate cannot realise is rejected there, not ignored
(:meth:`FaultPlan.check_substrate`), and a rank outside the cluster is
rejected before attempt 0 (:meth:`FaultPlan.check_ranks`).

A retried job runs each attempt under :meth:`FaultPlan.for_attempt`: the
plan narrowed to that job and attempt, addressed by survivor slot, with
its stream seeded from ``(seed, job, attempt)`` — so the same plan and
seed reproduce the same faults, event for event on simnet.  The fault-free
path never sees a plan: every site tests ``faults is not None`` once.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

#: Virtual seconds before a dropped message goes out again: the sender's
#: ack timeout, a few FDR round trips.
RETRANSMIT_DELAY = 1e-4
#: Retransmissions before a message counts as lost for good (InfiniBand's
#: reliable-connection retry count tops out at 7).
MAX_RETRANSMITS = 7
#: Collective ops a ``hang=`` entry may name (the pool's WorkerLink
#: collectives, each a slot write, a barrier and a read in the control
#: region; the rank sleeps before it arrives).
COLLECTIVE_OPS = ("barrier", "gather", "bcast", "allgather")
#: The spec keys, in the order :meth:`FaultPlan.describe` prints them.
KEYS = ("drop", "delay", "kill", "poison", "hang", "mute", "slow", "link")
#: Keys each substrate cannot realise: a plan setting one is rejected there.
UNREALISABLE = {"simnet": ("hang", "mute"), "process": ("drop", "link")}
#: The plan field each key sets.
_FIELD = {
    "drop": "drop_prob",
    "delay": "delay_prob",
    "kill": "kills",
    "poison": "poisoned",
    "hang": "hangs",
    "mute": "muted",
    "slow": "slow",
    "link": "links",
}


def _step_labels() -> tuple[str, ...]:
    # Late import: repro.core imports simnet, whose engine imports this module.
    from .core.sorter_labels import STEP_LABELS

    return STEP_LABELS


def _step_label(token: str) -> str:
    """A step label, given either canonically or as its 1-based index."""
    labels = _step_labels()
    if token in labels:
        return token
    index = int(token) if token.isdigit() else 0
    if 1 <= index <= len(labels):
        return labels[index - 1]
    raise ValueError(f"unknown step {token!r} (want one of {list(labels)} or 1..{len(labels)})")


def _pair(key: str, value: str, sep: str, shape: str) -> tuple[str, str]:
    """Both sides of ``value`` around its first ``sep``, which ``shape`` requires."""
    left, found, right = value.partition(sep)
    if not found:
        raise ValueError(f"fault spec {key} wants {shape}, got {value!r}")
    return left, right


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, seeded schedule of faults; hashable, so two runs handed
    equal plans inject equal faults.  Probabilities are per remote message
    (a self-send is a machine-local memcpy) or, on the pool, per rank a
    barrier releases."""

    #: Seed of the fault stream (wire fates on simnet, barrier delays on the pool).
    seed: int = 0
    #: Probability one wire copy of a message is dropped (and resent).
    drop_prob: float = 0.0
    #: Probability of a delay spike on a message, or per rank a barrier releases ...
    delay_prob: float = 0.0
    #: ... of this many seconds (virtual on simnet, scaled uniformly in
    #: [1, 2); wall on the pool).
    delay_spike: float = 1e-3
    #: ``(job | None, rank, step label)``: the rank dies entering the step
    #: on the job's first attempt (``None``: every job).
    kills: tuple[tuple[int | None, int, str], ...] = ()
    #: Ranks that die entering step 1 of every attempt.
    poisoned: tuple[int, ...] = ()
    #: ``(job | None, rank, op)``: the rank sleeps instead of entering its
    #: first collective ``op``, on the job's first attempt.
    hangs: tuple[tuple[int | None, int, str], ...] = ()
    #: Ranks whose step heartbeats are suppressed.
    muted: tuple[int, ...] = ()
    #: ``(rank, multiplier)``: the rank's compute takes ``multiplier``x as long.
    slow: tuple[tuple[int, float], ...] = ()
    #: ``(src, dst, slowdown, extra_latency)``: the directed link serializes
    #: ``slowdown``x slower, with ``extra_latency`` seconds more latency.
    links: tuple[tuple[int, int, float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_prob", "delay_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {p}")
        if self.delay_spike < 0:
            raise ValueError("delay_spike must be non-negative")
        # A step given by its index must become its label, or it never fires.
        kills = tuple((job, rank, _step_label(step)) for job, rank, step in self.kills)
        object.__setattr__(self, "kills", kills)
        for job, rank, op in self.hangs:
            if op not in COLLECTIVE_OPS:
                raise ValueError(f"unknown collective op {op!r} (want one of {list(COLLECTIVE_OPS)})")
        for job, rank, _ in (*kills, *self.hangs):
            if rank < 0 or (job is not None and job < 0):
                raise ValueError(f"negative rank or job in {(job, rank)}")
        if any(rank < 0 for rank in (*self.poisoned, *self.muted)):
            raise ValueError("poison/mute ranks must be >= 0")
        for rank, mult in self.slow:
            if rank < 0 or mult < 1.0:
                raise ValueError(f"invalid slow-node entry ({rank}, {mult})")
        for src, dst, slowdown, extra in self.links:
            if src < 0 or dst < 0 or slowdown < 1.0 or extra < 0:
                raise ValueError(f"invalid link degradation ({src}, {dst}, {slowdown}, {extra})")

    # ------------------------------------------------------------ grammar

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse comma-separated ``key=value`` tokens into a plan::

            drop=0.02              message drop probability
            delay=0.05[:SPIKE]     delay-spike probability (+ spike seconds)
            kill=3@5-exchange[:J]  rank 3 dies entering step 5, first
                                   attempt only (of job J; STEP may be 1..6)
            poison=3               rank 3 dies entering step 1, every attempt
            hang=0@gather[:J]      rank 0 stalls before its first gather
            mute=0                 rank 0 sends no heartbeats
            slow=2x1.5             rank 2 computes 1.5x slower
            link=0-1:2.0[:EXTRA]   link 0->1 serializes 2x slower
                                   (+ EXTRA seconds of latency)

        Every key but ``drop`` and ``delay`` may repeat.
        """
        fields: dict = {"seed": seed}
        entries: dict[str, list] = {key: [] for key in ("kill", "poison", "hang", "mute", "slow", "link")}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            key, sep, value = (part.strip() for part in token.partition("="))
            if not sep:
                raise ValueError(f"fault spec token {token!r} is not key=value")
            if key == "drop":
                fields["drop_prob"] = float(value)
            elif key == "delay":
                prob, _, spike = value.partition(":")
                fields["delay_prob"] = float(prob)
                if spike:
                    fields["delay_spike"] = float(spike)
            elif key in ("kill", "hang"):
                shape = f"RANK@{'STEP' if key == 'kill' else 'OP'}[:JOB]"
                target, _, job = value.partition(":")
                rank, where = _pair(key, target, "@", shape)
                entries[key].append((int(job) if job else None, int(rank), where))
            elif key in ("poison", "mute"):
                entries[key].append(int(value))
            elif key == "slow":
                rank, mult = _pair(key, value, "x", "RANKxMULT")
                entries[key].append((int(rank), float(mult)))
            elif key == "link":
                shape = "SRC-DST:SLOWDOWN[:EXTRA]"
                ends, rest = _pair(key, value, ":", shape)
                src, dst = _pair(key, ends, "-", shape)
                slowdown, _, extra = rest.partition(":")
                entries[key].append((int(src), int(dst), float(slowdown), float(extra or 0.0)))
            else:
                raise ValueError(f"unknown fault spec key {key!r} (want one of {list(KEYS)})")
        fields.update((_FIELD[key], tuple(values)) for key, values in entries.items())
        return cls(**fields)

    def describe(self) -> str:
        """One-line summary (CLI banner, chaos artifacts); the part after the
        seed is a spec :meth:`from_spec` parses back into this plan."""

        def target(key: str, job: int | None, rank: int, where: str) -> str:
            return f"{key}={rank}@{where}" + ("" if job is None else f":{job}")

        parts = []
        if self.drop_prob:
            parts.append(f"drop={self.drop_prob!r}")
        if self.delay_prob:
            parts.append(f"delay={self.delay_prob!r}:{self.delay_spike!r}")
        parts.extend(target("kill", *entry) for entry in self.kills)
        parts.extend(f"poison={rank}" for rank in self.poisoned)
        parts.extend(target("hang", *entry) for entry in self.hangs)
        parts.extend(f"mute={rank}" for rank in self.muted)
        parts.extend(f"slow={r}x{m!r}" for r, m in self.slow)
        parts.extend(f"link={s}-{d}:{m!r}:{e!r}" for s, d, m, e in self.links)
        return f"FaultPlan(seed={self.seed}, {','.join(parts) or 'none'})"

    # ------------------------------------------------------------- checks

    def check_ranks(self, num_ranks: int) -> None:
        """Reject an entry naming a rank outside ``[0, num_ranks)``; both
        substrates call this before attempt 0 (:meth:`for_attempt` would
        drop such an entry silently)."""
        named = [
            *(("kill", rank) for _, rank, _ in self.kills),
            *(("poison", rank) for rank in self.poisoned),
            *(("hang", rank) for _, rank, _ in self.hangs),
            *(("mute", rank) for rank in self.muted),
            *(("slow", rank) for rank, _ in self.slow),
            *(("link", end) for src, dst, _, _ in self.links for end in (src, dst)),
        ]
        for key, rank in named:
            if rank >= num_ranks:
                raise ValueError(f"fault spec {key} names rank {rank}, outside [0, {num_ranks})")

    def check_substrate(self, substrate: str) -> None:
        """Reject a key ``substrate`` (``"simnet"`` or ``"process"``) cannot realise."""
        for key in UNREALISABLE[substrate]:
            if getattr(self, _FIELD[key]):
                raise ValueError(f"fault spec key {key!r} cannot be realised on the {substrate} substrate")

    # ------------------------------------------------------------ runtime

    def for_attempt(self, rank_ids: Sequence[int], attempt: int, job: int = 0) -> "FaultPlan":
        """The plan attempt ``attempt`` of job ``job`` runs under.

        ``rank_ids[slot]`` is the original rank that runs ``slot``: every
        entry follows its rank to its slot and leaves with it, kills and
        hangs stay only on attempt 0 and only for this job, and the stream
        is seeded from ``(seed, job, attempt)``.  The result is addressed by
        slot, and is job 0's first attempt as far as :meth:`kill_step` and
        :meth:`hang_op` are concerned.
        """
        slot = {rank: i for i, rank in enumerate(rank_ids)}

        def first(entries):
            return tuple(
                (None, slot[rank], where)
                for on, rank, where in entries
                if attempt == 0 and on in (None, job) and rank in slot
            )

        return replace(
            self,
            seed=int(np.random.SeedSequence([self.seed, job, attempt]).generate_state(1)[0]),
            kills=first(self.kills),
            poisoned=tuple(slot[r] for r in self.poisoned if r in slot),
            hangs=first(self.hangs),
            muted=tuple(slot[r] for r in self.muted if r in slot),
            slow=tuple((slot[r], m) for r, m in self.slow if r in slot),
            links=tuple(
                (slot[s], slot[d], m, e) for s, d, m, e in self.links if s in slot and d in slot
            ),
        )

    def kill_step(self, rank: int) -> str | None:
        """The step label ``rank`` dies entering, in job 0's first attempt."""
        if rank in self.poisoned:
            return _step_labels()[0]
        return next((step for job, r, step in self.kills if r == rank and job in (None, 0)), None)

    def hang_op(self, rank: int) -> str | None:
        """The collective ``rank`` stalls before, in job 0's first attempt."""
        return next((op for job, r, op in self.hangs if r == rank and job in (None, 0)), None)

    def slow_mult(self, rank: int) -> float:
        """How many times as long ``rank``'s compute takes."""
        return dict(self.slow).get(rank, 1.0)

    def begin_run(self, num_ranks: int) -> "FaultState":
        """Simnet's per-run state of this plan (a fresh seeded stream)."""
        self.check_ranks(num_ranks)
        self.check_substrate("simnet")
        return FaultState(self, num_ranks)


class FaultState:
    """Simnet's mutable per-run fault bookkeeping: the seeded wire stream,
    the link table, and each rank's kill step and compute multiplier."""

    __slots__ = ("plan", "drop_prob", "delay_prob", "kill_at", "slow_mult", "_rng_random", "_links", "_arrivals")

    def __init__(self, plan: FaultPlan, num_ranks: int) -> None:
        self.plan = plan
        self.drop_prob = plan.drop_prob
        self.delay_prob = plan.delay_prob
        #: rank -> the step label it dies entering.
        self.kill_at = {
            rank: step for rank in range(num_ranks) if (step := plan.kill_step(rank)) is not None
        }
        self.slow_mult = [plan.slow_mult(rank) for rank in range(num_ranks)]
        self._rng_random = np.random.default_rng(plan.seed).random
        self._links = {(s, d): (m, extra) for s, d, m, extra in plan.links}
        #: Latest arrival on each ``(src, dst)`` link: an in-order link
        #: delivers nothing before what it accepted earlier.
        self._arrivals: dict[tuple[int, int], float] = {}

    def fate(self, src: int, dst: int, delivered: float) -> tuple[int, float | None]:
        """One remote message's fate: ``(wire copies dropped, arrival)``.

        ``delivered`` is the fabric's arrival time; each dropped copy adds
        a :data:`RETRANSMIT_DELAY`, and the arrival is ``None`` once the
        last of :data:`MAX_RETRANSMITS` retransmissions dropped too.  Draws
        only for enabled fault classes, in a fixed order, so the stream is
        deterministic for a given plan.
        """
        rng = self._rng_random
        drops = 0
        if self.drop_prob > 0.0:
            while drops <= MAX_RETRANSMITS and rng() < self.drop_prob:
                drops += 1
            if drops > MAX_RETRANSMITS:
                return drops, None
        arrival = delivered + drops * RETRANSMIT_DELAY
        if self.delay_prob > 0.0 and rng() < self.delay_prob:
            arrival += self.plan.delay_spike * (1.0 + rng())
        link = (src, dst)
        arrival = max(arrival, self._arrivals.get(link, arrival))
        self._arrivals[link] = arrival
        return drops, arrival

    def degrade(self, src: int, dst: int, ser: float, latency: float) -> tuple[float, float]:
        """Apply per-link degradation to (serialization, latency) times."""
        entry = self._links.get((src, dst))
        if entry is not None:
            ser *= entry[0]
            latency += entry[1]
        return ser, latency


# ----------------------------------------------------------- ambient scope

_ACTIVE_PLANS: list[FaultPlan] = []


@contextmanager
def inject_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Attach ``plan`` to every simulator, sorter and process backend that
    runs inside the block without a ``faults=`` of its own (mirrors
    :func:`repro.simnet.sanitizer.sanitize`)."""
    _ACTIVE_PLANS.append(plan)
    try:
        yield plan
    finally:
        _ACTIVE_PLANS.pop()


def active_fault_plan() -> FaultPlan | None:
    """The innermost ambient fault plan, or None."""
    return _ACTIVE_PLANS[-1] if _ACTIVE_PLANS else None


# -------------------------------------------------------- chaos schedules


def chaos_schedules() -> list[tuple[str, FaultPlan]]:
    """The seeded simnet schedule matrix the chaos gates sweep.

    Shared by ``tests/integration/test_chaos.py`` and
    ``benchmarks/perf/chaos.py`` so both exercise the same schedules: each
    wire fault alone, a slow node, a worker killed entering the exchange
    and the Master entering splitter selection (both transient), a rank
    poisoned from its first step, and a mixed plan.
    """
    return [
        (name, FaultPlan.from_spec(spec, seed=seed))
        for name, spec, seed in (
            ("drops", "drop=0.05", 101),
            ("delay-spikes", "delay=0.05:5e-4", 104),
            ("slow-node", "slow=2x3.0", 105),
            ("link-degrade", "link=0-1:4.0:1e-5,link=1-0:4.0:1e-5", 106),
            ("crash-worker", "kill=3@5-exchange", 107),
            ("crash-coordinator", "kill=0@3-splitters", 108),
            ("crash-at-t0", "poison=5", 109),
            ("mixed", "drop=0.02,delay=0.02", 110),
        )
    ]


def kill_one_per_job(num_jobs: int, num_ranks: int, *, step: str = "5-exchange", seed: int = 0) -> FaultPlan:
    """Every job loses one rank, round-robin: job ``j`` kills rank
    ``j % num_ranks`` entering ``step`` on its first attempt, so each job
    must recover in one retry at full width (the pool's chaos gate)."""
    kills = tuple((job, job % num_ranks, step) for job in range(num_jobs))
    return FaultPlan(seed=seed, kills=kills)

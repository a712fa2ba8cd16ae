"""Deterministic fault injection for the simulated cluster.

A :class:`FaultPlan` describes *what can go wrong* in one run — message
drops, delay spikes, per-link degradation, rank crashes at virtual times,
slow-node compute multipliers — all driven by one seeded generator, so
the same plan + seed reproduces the same fault sequence event for event.

The fabric is the paper's reliable, in-order transport, so a wire fault
costs time and never data: a dropped message goes out again after
:data:`RETRANSMIT_DELAY` (up to :data:`MAX_RETRANSMITS` times; after that
it is lost and the run deadlocks into a typed error), and no message
overtakes an earlier one on its ``(src, dst)`` link.  A crash ends the
run with a :class:`~repro.simnet.errors.RankCrashedError` naming the
rank; :mod:`repro.core.retry` re-runs the job above the simulator.

The engine consults the plan through a single ``faults is not None`` guard
(the same discipline as the tracer and SimSan): with no plan attached the
run loop performs one pointer test per message and nothing else, so the
fault-free path stays bit-identical to the golden p=16 fingerprint.

Attachment mirrors the sanitizer: pass ``faults=plan`` to
:class:`~repro.simnet.engine.Simulator` (or up the stack:
``distributed_sort(..., faults=plan)``), or enter the ambient
:func:`inject_faults` scope so every simulator built inside picks the plan
up — which is what ``repro-experiments --faults SPEC --fault-seed N`` does.

Determinism contract: fault decisions are drawn from
``np.random.default_rng(plan.seed)`` in message-injection order, which the
engine already fixes.  One run draws exactly the same stream as its replay;
changing which fault classes are enabled changes the stream (each class
draws only when its probability is nonzero), changing the seed changes
everything.
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


# ------------------------------------------------------- the spec grammar
#
# One grammar for this module's FaultPlan and the process backend's
# RealFaultPlan (:mod:`repro.parallel.chaos`): comma-separated ``key=value``
# tokens, and the value shapes the two share.  Each plan keeps only its own
# key table.


def spec_tokens(spec: str, keys: Sequence[str]) -> Iterator[tuple[str, str]]:
    """``(key, value)`` per token of a fault spec, ``key`` one of ``keys``."""
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        key, sep, value = (part.strip() for part in token.partition("="))
        if not sep:
            raise ValueError(f"fault spec token {token!r} is not key=value")
        if key not in keys:
            raise ValueError(
                f"unknown fault spec key {key!r} (want one of {list(keys)})"
            )
        yield key, value


def split_pair(key: str, value: str, sep: str, shape: str) -> tuple[str, str]:
    """Both sides of ``value`` around its first ``sep``, which ``shape`` requires."""
    left, found, right = value.partition(sep)
    if not found:
        raise ValueError(f"fault spec {key} wants {shape}, got {value!r}")
    return left, right


def rank_times_mult(value: str) -> tuple[int, float]:
    """The ``RANKxMULT`` shape of a ``slow=`` entry."""
    rank, mult = split_pair("slow", value, "x", "RANKxMULT")
    return int(rank), float(mult)


def prob_and_extra(value: str) -> tuple[float, float | None]:
    """The ``P[:EXTRA]`` shape: a number and an optional second one."""
    prob, _, extra = value.partition(":")
    return float(prob), float(extra) if extra else None


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, declarative description of the faults to inject in a run.

    Probabilities are per *remote* message (self-sends are machine-local
    memcpys and cannot fault).  ``crashes`` / ``slow`` / ``links`` are
    rank- and link-addressed schedules, kept as tuples so plans stay
    hashable and safely shareable across runs.
    """

    #: Seed of the per-run fault stream (``begin_run`` derives a fresh
    #: generator from it, so repeated runs of one plan are identical).
    seed: int = 0
    #: Probability one wire copy of a message is dropped (and resent).
    drop_prob: float = 0.0
    #: Probability of a large delay spike on a message.
    delay_prob: float = 0.0
    #: Base delay-spike duration, seconds (scaled uniformly in [1, 2)).
    delay_spike: float = 1e-3
    #: ``(rank, virtual_time)`` pairs: the rank fail-stops at that time,
    #: which ends the run with a ``RankCrashedError``.
    crashes: tuple[tuple[int, float], ...] = ()
    #: ``(rank, multiplier)`` pairs: the rank's Compute calls take
    #: ``multiplier``× as long (slow node / straggler).
    slow: tuple[tuple[int, float], ...] = ()
    #: ``(src, dst, slowdown, extra_latency)`` tuples: directed-link
    #: degradation — serialization time is multiplied by ``slowdown`` and
    #: ``extra_latency`` seconds are added to the wire latency.
    links: tuple[tuple[int, int, float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_prob", "delay_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {p}")
        if self.delay_spike < 0:
            raise ValueError("delay_spike must be non-negative")
        for rank, t in self.crashes:
            if rank < 0 or t < 0:
                raise ValueError(f"invalid crash ({rank}, {t})")
        for rank, m in self.slow:
            if rank < 0 or m <= 0:
                raise ValueError(f"invalid slow-node entry ({rank}, {m})")
        for src, dst, slowdown, extra in self.links:
            if src < 0 or dst < 0 or slowdown < 1.0 or extra < 0:
                raise ValueError(
                    f"invalid link degradation ({src}, {dst}, {slowdown}, {extra})"
                )

    # ------------------------------------------------------------ factory

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a compact CLI spec into a plan.

        Comma-separated ``key=value`` tokens::

            drop=0.02              message drop probability
            delay=0.05[:SPIKE]     delay-spike probability (+ spike base)
            crash=3@0.01           rank 3 crashes at t=0.01 (repeatable)
            slow=2x1.5             rank 2 computes 1.5x slower (repeatable)
            link=0-1:2.0[:EXTRA]   link 0->1 serializes 2x slower
                                   (+ EXTRA seconds of latency)
        """
        fields: dict = {"seed": seed}
        crashes: list[tuple[int, float]] = []
        slow: list[tuple[int, float]] = []
        links: list[tuple[int, int, float, float]] = []
        for key, value in spec_tokens(spec, ("drop", "delay", "crash", "slow", "link")):
            if key == "drop":
                fields["drop_prob"] = float(value)
            elif key == "delay":
                fields["delay_prob"], spike = prob_and_extra(value)
                if spike is not None:
                    fields["delay_spike"] = spike
            elif key == "crash":
                rank, when = split_pair(key, value, "@", "RANK@TIME")
                crashes.append((int(rank), float(when)))
            elif key == "slow":
                slow.append(rank_times_mult(value))
            else:
                ends, rest = split_pair(key, value, ":", "SRC-DST:SLOWDOWN[:EXTRA]")
                src, dst = split_pair(key, ends, "-", "SRC-DST:SLOWDOWN[:EXTRA]")
                slowdown, extra = prob_and_extra(rest)
                links.append((int(src), int(dst), slowdown, extra or 0.0))
        return cls(
            crashes=tuple(crashes), slow=tuple(slow), links=tuple(links), **fields
        )

    def describe(self) -> str:
        """One-line summary (CLI banner, chaos artifact); the part after the
        seed is a spec :meth:`from_spec` parses back into this plan."""
        parts = []
        if self.drop_prob:
            parts.append(f"drop={self.drop_prob!r}")
        if self.delay_prob:
            parts.append(f"delay={self.delay_prob!r}:{self.delay_spike!r}")
        parts.extend(f"crash={r}@{t!r}" for r, t in self.crashes)
        parts.extend(f"slow={r}x{m!r}" for r, m in self.slow)
        parts.extend(f"link={s}-{d}:{m!r}:{e!r}" for s, d, m, e in self.links)
        body = ",".join(parts) or "none"
        return f"FaultPlan(seed={self.seed}, {body})"

    # ------------------------------------------------------------ runtime

    def check_ranks(self, num_ranks: int) -> None:
        """Reject a plan naming a rank outside ``[0, num_ranks)``."""
        for rank, _ in self.crashes:
            if rank >= num_ranks:
                raise ValueError(f"crash rank {rank} outside [0, {num_ranks})")
        for rank, _ in self.slow:
            if rank >= num_ranks:
                raise ValueError(f"slow rank {rank} outside [0, {num_ranks})")

    def begin_run(self, num_ranks: int) -> "FaultState":
        """Materialize the per-run mutable state (fresh seeded stream)."""
        self.check_ranks(num_ranks)
        return FaultState(self, num_ranks)

    def for_attempt(self, rank_ids: Sequence[int], attempt: int) -> "FaultPlan":
        """The plan one attempt of a retried job runs under.

        ``rank_ids[slot]`` is the original rank that runs ``slot``: every
        schedule entry follows its rank to its slot and leaves with it, so
        a crash is persistent, like the pool's ``poison=``, and the wire
        faults draw from ``(seed, attempt)``.
        """
        slot = {rank: i for i, rank in enumerate(rank_ids)}
        return replace(
            self,
            seed=int(np.random.SeedSequence([self.seed, attempt]).generate_state(1)[0]),
            crashes=tuple((slot[r], t) for r, t in self.crashes if r in slot),
            slow=tuple((slot[r], m) for r, m in self.slow if r in slot),
            links=tuple(
                (slot[s], slot[d], m, e)
                for s, d, m, e in self.links
                if s in slot and d in slot
            ),
        )


class FaultState:
    """Mutable per-run fault bookkeeping consumed by the engine: the
    seeded stream and the crash/slow/link tables."""

    __slots__ = (
        "plan",
        "drop_prob",
        "delay_prob",
        "crash_at",
        "slow_mult",
        "_rng_random",
        "_links",
        "_arrivals",
    )

    def __init__(self, plan: FaultPlan, num_ranks: int) -> None:
        self.plan = plan
        self.drop_prob = plan.drop_prob
        self.delay_prob = plan.delay_prob
        #: Crash schedule (rank -> virtual time).
        self.crash_at: dict[int, float] = dict(plan.crashes)
        self.slow_mult = [1.0] * num_ranks
        for rank, mult in plan.slow:
            self.slow_mult[rank] = mult
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
    """Attach ``plan`` to every :class:`Simulator` built inside the block
    (mirrors :func:`repro.simnet.sanitizer.sanitize`)."""
    _ACTIVE_PLANS.append(plan)
    try:
        yield plan
    finally:
        _ACTIVE_PLANS.pop()


def active_fault_plan() -> FaultPlan | None:
    """The innermost ambient fault plan, or None (engine-side lookup)."""
    return _ACTIVE_PLANS[-1] if _ACTIVE_PLANS else None


# -------------------------------------------------------- chaos schedules


def chaos_schedules() -> list[tuple[str, FaultPlan]]:
    """The seeded fault-schedule matrix swept by the chaos gates.

    Shared by ``tests/integration/test_chaos.py`` and
    ``benchmarks/perf/chaos.py`` (the CI artifact job) so both always
    exercise the same schedules.  Crash times sit at the end of the p=8
    smoke workload's exchange step; crash-at-t=0 covers a rank that
    never starts.
    """
    return [
        ("drops", FaultPlan(seed=101, drop_prob=0.05)),
        ("delay-spikes", FaultPlan(seed=104, delay_prob=0.05, delay_spike=5e-4)),
        ("slow-node", FaultPlan(seed=105, slow=((2, 3.0),))),
        ("link-degrade", FaultPlan(seed=106, links=((0, 1, 4.0, 1e-5), (1, 0, 4.0, 1e-5)))),
        ("crash-worker", FaultPlan(seed=107, crashes=((3, 5e-4),))),
        ("crash-coordinator", FaultPlan(seed=108, crashes=((0, 5e-4),))),
        ("crash-at-t0", FaultPlan(seed=109, crashes=((5, 0.0),))),
        ("mixed", FaultPlan(seed=110, drop_prob=0.02, delay_prob=0.02)),
    ]

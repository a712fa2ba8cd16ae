"""Fault-tolerant sample sort: recovery rounds over the reliable transport.

:func:`resilient_sort_program` replaces the lossless six-step pipeline when
a fault plan is attached to the run (``machine.proc.faults is not None``).
The algorithm is the same sample sort, restructured as *coordinated rounds*
so the surviving cluster can re-agree on membership and splitters after a
crash and still produce a fully sorted, provenance-correct result:

1. **Plan round** — every alive rank sends its regular samples to the
   coordinator (the lowest alive rank).  The coordinator gathers with a
   deadline, drops ranks whose samples never arrive (crash detection via
   missed traffic), selects splitters for the *surviving* membership, and
   broadcasts the plan ``(round, alive, splitters)``.  A peer that times
   out waiting for the plan declares the coordinator dead and starts the
   next round without it.
2. **Exchange round** — partitions are cut against the plan's splitters and
   streamed to the surviving peers in read-buffer-sized chunks over
   :class:`~repro.simnet.comm.ReliableComm` (sequence numbers, acks,
   capped-backoff retransmits, ``(src, seq)`` dedup).  Chunks carry their
   index because retransmission reorders arrival; a ``fin`` envelope per
   sender closes the stream.  The round is complete when every expected
   stream closed and every outgoing datagram is acked — or the deadline
   expires / a peer is declared dead, which marks suspects.
3. **Commit round** — ranks report ``(ok, suspects)`` to the coordinator,
   which either commits the exchange or aborts with a reduced membership;
   on abort everything above repeats (bounded by ``max_rounds``, so the
   worst case is a typed :class:`~repro.simnet.errors.ExchangeTimeoutError`
   rather than a hang).

The committed data goes through the lossless path's own step 6
(:func:`repro.core.sorter.merge_step`), with true origin ranks riding
along, so provenance indices remain valid against the *original* input
partitioning — dead ranks simply contribute nothing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from ..simnet.calls import Mark, Now
from ..simnet.comm import Envelope, ReliableComm, ResilienceConfig
from ..simnet.errors import ExchangeTimeoutError, MembershipError
from .provenance import Provenance
from .sorter import RankSortOutput, SortOptions, local_sort_step, merge_step
from .sorter_labels import STEP_LABELS
from .steps import agree_splitters, draw_samples, partition_block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pgxd.runtime import Machine


class _Inbox:
    """Demultiplexer over the reliable inbox, keyed ``(round, channel)``."""

    __slots__ = ("_store",)

    def __init__(self) -> None:
        self._store: dict[tuple[int, str], list[Envelope]] = {}

    def absorb(self, rc: ReliableComm) -> None:
        for env in rc.take():
            self._store.setdefault((env.round_no, env.channel), []).append(env)

    def take(self, round_no: int, channel: str) -> list[Envelope]:
        return self._store.pop((round_no, channel), [])

    def take_plan(self, min_round: int) -> Envelope | None:
        """Newest plan envelope for ``min_round`` or later (stale dropped)."""
        best: Envelope | None = None
        for key in sorted(self._store):
            if key[1] == "plan" and key[0] >= min_round:
                envs = self._store[key]
                if envs and (best is None or envs[-1].round_no > best.round_no):
                    best = envs[-1]
        return best

    def drop_before(self, min_round: int) -> None:
        for key in [k for k in sorted(self._store) if k[0] < min_round]:
            del self._store[key]


class _ExchangeOutcome:
    """What one exchange round produced on this rank."""

    __slots__ = (
        "ok",
        "suspects",
        "kparts",
        "iparts",
        "fins",
        "sent_counts",
        "local_k",
        "local_i",
    )

    def __init__(self) -> None:
        self.ok = True
        self.suspects: set[int] = set()
        #: src -> {chunk_index: key array}
        self.kparts: dict[int, dict[int, np.ndarray]] = {}
        #: src -> {chunk_index: origin-index array}
        self.iparts: dict[int, dict[int, np.ndarray]] = {}
        #: src -> (n_key_chunks, n_index_chunks, key_count)
        self.fins: dict[int, tuple[int, int, int]] = {}
        self.sent_counts: np.ndarray | None = None
        self.local_k: np.ndarray | None = None
        self.local_i: np.ndarray | None = None


def _bill(out: RankSortOutput, step: int, seconds: float) -> None:
    """Add ``seconds`` to a step that recovery rounds may run more than once."""
    label = STEP_LABELS[step]
    out.step_seconds[label] = out.step_seconds.get(label, 0.0) + seconds


def _stream_complete(src: int, exch: _ExchangeOutcome) -> bool:
    fin = exch.fins.get(src)
    if fin is None:
        return False
    nk, ni, _count = fin
    if len(exch.kparts.get(src, ())) != nk:
        return False
    return len(exch.iparts.get(src, ())) == ni


def _send_stream(machine: "Machine", rc: ReliableComm, dst: int, channel: str, arr: np.ndarray, round_no: int, read_buffer: int):
    """Stream ``arr`` to ``dst`` in read-buffer-sized chunks; returns the
    chunk count.  Chunks carry their index: retransmission reorders."""
    if len(arr) == 0:
        return 0
    per_chunk = max(1, read_buffer // max(1, arr.dtype.itemsize))
    n_chunks = 0
    for start in range(0, len(arr), per_chunk):
        chunk = arr[start : start + per_chunk]
        wire = machine.data.scaled(int(chunk.nbytes)) + 32
        yield from rc.send(dst, channel, (n_chunks, chunk), round_no, nbytes=wire)
        n_chunks += 1
    return n_chunks


def _pump(rc: ReliableComm, inbox: _Inbox, deadline: float):
    """One wait turn: drive the protocol, demux arrivals, return now."""
    yield from rc.step(deadline)
    inbox.absorb(rc)
    now = yield Now()
    return now


def _plan_round(machine: "Machine", rc: ReliableComm, inbox: _Inbox, sorted_keys: np.ndarray, alive: list[int], round_no: int, coord: int, options: "SortOptions", out: "RankSortOutput"):
    """Agree membership + splitters; returns (alive_r, splitters) or None
    when the coordinator is presumed dead."""
    rank = machine.rank
    cfg, cost = machine.config, machine.cost
    rcfg = rc.config
    yield Mark(f"recovery:plan:r{round_no}", event="instant")
    t_start = yield Now()

    samples = draw_samples(sorted_keys, cfg, len(alive), options.sample_factor)
    out.samples_sent = len(samples)
    yield machine.compute(cost.scan_seconds(int(samples.nbytes)), STEP_LABELS[1])

    if rank == coord:
        got: dict[int, np.ndarray] = {rank: samples}
        deadline = (yield Now()) + rcfg.phase_timeout
        expected = set(alive)
        while set(got) < expected - rc.dead:
            now = yield Now()
            if now >= deadline:
                break
            now = yield from _pump(rc, inbox, deadline)
            for env in inbox.take(round_no, "samples"):
                got[env.src] = env.payload
        missing = sorted(expected - set(got))
        if missing:
            machine.proc.metrics.timeouts += len(missing)
        t_mid = yield Now()
        _bill(out, 1, t_mid - t_start)
        alive_r = sorted(set(got) - rc.dead)
        gathered = [got[r] for r in alive_r]
        yield machine.compute(
            cost.sort_seconds(sum(map(len, gathered)), machine.threads),
            STEP_LABELS[2],
        )
        splitters = agree_splitters(gathered, len(alive_r))
        payload = (round_no, tuple(alive_r), splitters)
        for dst in alive:
            # Previous-membership ranks outside alive_r are told too, so a
            # live-but-excluded rank fails fast with MembershipError
            # instead of timing out.
            if dst != rank:
                yield from rc.send(dst, "plan", payload, round_no)
        t_end = yield Now()
        _bill(out, 2, t_end - t_mid)
        return list(alive_r), splitters

    yield from rc.send(coord, "samples", samples, round_no)
    t_mid = yield Now()
    _bill(out, 1, t_mid - t_start)
    # The coordinator spends up to one phase_timeout gathering before it
    # answers, so peers wait two.
    deadline = t_mid + 2.0 * rcfg.phase_timeout
    plan_env = inbox.take_plan(round_no)
    while plan_env is None:
        now = yield Now()
        if now >= deadline or coord in rc.dead:
            machine.proc.metrics.timeouts += 1
            t_end = yield Now()
            _bill(out, 2, t_end - t_mid)
            return None
        yield from _pump(rc, inbox, deadline)
        plan_env = inbox.take_plan(round_no)
    _prnd, alive_r, splitters = plan_env.payload
    t_end = yield Now()
    _bill(out, 2, t_end - t_mid)
    return list(alive_r), splitters


def _exchange_round(machine: "Machine", rc: ReliableComm, inbox: _Inbox, sorted_keys: np.ndarray, origin: np.ndarray, splitters: np.ndarray, alive: list[int], round_no: int, options: "SortOptions", out: "RankSortOutput"):
    """Cut against the splitters and stream partitions to the survivors."""
    rank, size = machine.rank, machine.size
    cfg, cost = machine.config, machine.cost
    rcfg = rc.config
    p_r = len(alive)
    exch = _ExchangeOutcome()

    # ---- step 4: partition against this round's splitters
    yield Mark(f"recovery:exchange:r{round_no}", event="instant")
    t4 = yield Now()
    part = partition_block(sorted_keys, splitters, p_r, options.investigator)
    out.searches += part.searches
    yield machine.compute(
        cost.binary_search_seconds(part.searches, int(len(sorted_keys) * cfg.data_scale)),
        STEP_LABELS[3],
    )
    t5 = yield Now()
    _bill(out, 3, t5 - t4)

    # ---- step 5: staged copy + reliable chunked sends
    slices = part.slices
    yield machine.compute(
        cost.copy_seconds(machine.data.scaled(int(sorted_keys.nbytes)), machine.threads),
        STEP_LABELS[4],
    )
    sent_counts = np.zeros(size, dtype=np.int64)
    my_pos = alive.index(rank)
    exch.local_k = sorted_keys[slices[my_pos]]
    exch.local_i = origin[slices[my_pos]]
    sent_counts[rank] = len(exch.local_k)
    read_buffer = max(1, cfg.read_buffer_bytes)
    for offset in range(1, p_r):
        pos = (my_pos + offset) % p_r
        dst = alive[pos]
        sl = slices[pos]
        seg = sorted_keys[sl]
        sent_counts[dst] = len(seg)
        nk = yield from _send_stream(machine, rc, dst, "k", seg, round_no, read_buffer)
        ni = yield from _send_stream(machine, rc, dst, "i", origin[sl], round_no, read_buffer)
        yield from rc.send(dst, "fin", (nk, ni, len(seg)), round_no)
    exch.sent_counts = sent_counts

    # ---- drain until every stream closes and every send is acked
    expected = [r for r in alive if r != rank]
    alive_set = frozenset(alive)
    deadline = (yield Now()) + rcfg.phase_timeout
    while True:
        progress = False
        for env in inbox.take(round_no, "k"):
            exch.kparts.setdefault(env.src, {})[env.payload[0]] = env.payload[1]
            progress = True
        for env in inbox.take(round_no, "i"):
            exch.iparts.setdefault(env.src, {})[env.payload[0]] = env.payload[1]
            progress = True
        for env in inbox.take(round_no, "fin"):
            exch.fins[env.src] = env.payload
            progress = True
        now = yield Now()
        if progress:
            deadline = now + rcfg.phase_timeout
        done_recv = all(_stream_complete(r, exch) or r in rc.dead for r in expected)
        done_send = rc.pending_to(alive_set - rc.dead) == 0
        if done_recv and done_send:
            break
        if now >= deadline:
            machine.proc.metrics.timeouts += 1
            break
        yield from _pump(rc, inbox, deadline)

    for r in expected:
        if r in rc.dead or not _stream_complete(r, exch):
            exch.suspects.add(r)
    rc.failed.clear()  # peer deaths are handled via suspects, not raises
    exch.ok = not exch.suspects
    t6 = yield Now()
    _bill(out, 4, t6 - t5)
    return exch


def _commit_round(machine: "Machine", rc: ReliableComm, inbox: _Inbox, alive: list[int], round_no: int, coord: int, exch: _ExchangeOutcome, out: "RankSortOutput"):
    """Two-phase outcome agreement; returns (committed, new_alive) or None
    when the coordinator is presumed dead."""
    rank = machine.rank
    rcfg = rc.config
    status = (exch.ok, tuple(sorted(exch.suspects)))
    t_begin = yield Now()
    if rank == coord:
        statuses: dict[int, tuple[bool, tuple[int, ...]]] = {rank: status}
        deadline = t_begin + rcfg.phase_timeout
        expected = set(alive)
        while set(statuses) < expected - rc.dead:
            now = yield Now()
            if now >= deadline:
                machine.proc.metrics.timeouts += 1
                break
            yield from _pump(rc, inbox, deadline)
            for env in inbox.take(round_no, "done"):
                statuses[env.src] = env.payload
        bad: set[int] = set(rc.dead) & expected
        bad.update(r for r in alive if r not in statuses)
        for _r, (ok, suspects) in sorted(statuses.items()):
            if not ok:
                bad.update(suspects)
        bad.discard(rank)  # the coordinator trusts its own liveness
        if bad:
            verdict = (False, tuple(r for r in alive if r not in bad))
        else:
            verdict = (True, tuple(alive))
        for dst in alive:
            if dst != rank:
                yield from rc.send(dst, "verdict", verdict, round_no)
        if verdict[0]:
            # Make sure every survivor holds the commit before finishing,
            # or a dropped verdict would strand peers in a retry spiral.
            target = frozenset(verdict[1])
            while rc.pending_to(target - rc.dead):
                yield from rc.step()
                inbox.absorb(rc)
        t_end = yield Now()
        _bill(out, 4, t_end - t_begin)
        return verdict[0], list(verdict[1])

    yield from rc.send(coord, "done", status, round_no)
    deadline = t_begin + 2.0 * rcfg.phase_timeout
    while True:
        envs = inbox.take(round_no, "verdict")
        if envs:
            committed, new_alive = envs[-1].payload
            t_end = yield Now()
            _bill(out, 4, t_end - t_begin)
            return committed, list(new_alive)
        now = yield Now()
        if now >= deadline or coord in rc.dead:
            machine.proc.metrics.timeouts += 1
            t_end = yield Now()
            _bill(out, 4, t_end - t_begin)
            return None
        yield from _pump(rc, inbox, deadline)


def resilient_sort_program(machine: "Machine", local_keys: np.ndarray, options: "SortOptions"):
    """Fault-tolerant variant of the six-step sort (see module docstring)."""
    keys = np.ascontiguousarray(local_keys)
    rank, size = machine.rank, machine.size
    cfg = machine.config
    out = RankSortOutput(keys=keys, provenance=Provenance.empty())

    # ---- step 1: local sort (the lossless program's own step)
    local, _t1 = yield local_sort_step(machine, keys, options, out)

    rcfg = options.resilience if isinstance(options.resilience, ResilienceConfig) else ResilienceConfig()
    # Resilience budgets are specified in *unscaled* fabric time.  Under an
    # experiment data_scale every modeled transfer and compute stretches by
    # the same factor, so the protocol deadlines must stretch with them —
    # otherwise samples still on the (scaled) wire read as dead peers and
    # the cluster splits into singleton survivor sets.
    tscale = max(1.0, float(cfg.data_scale))
    if tscale > 1.0:
        rcfg = replace(
            rcfg,
            ack_timeout=rcfg.ack_timeout * tscale,
            poll_interval=rcfg.poll_interval * tscale,
            phase_timeout=rcfg.phase_timeout * tscale,
        )
    rc = ReliableComm(machine.proc, rcfg)
    inbox = _Inbox()

    alive = list(range(size))
    round_no = 0
    max_rounds = rcfg.max_rounds or size + 1
    committed_alive: list[int] | None = None
    exch: _ExchangeOutcome | None = None

    while committed_alive is None:
        if round_no >= max_rounds:
            raise ExchangeTimeoutError(
                rank, rc.failed, reason=f"no committed exchange after {round_no} round(s)"
            )
        if rank not in alive:
            raise MembershipError(rank, alive, round_no)
        coord = min(alive)
        plan = yield from _plan_round(
            machine, rc, inbox, local.keys, alive, round_no, coord, options, out
        )
        if plan is None:
            alive = [r for r in alive if r != coord]
            round_no += 1
            continue
        alive_r, splitters = plan
        if rank not in alive_r:
            raise MembershipError(rank, alive_r, round_no)
        alive = alive_r
        exch = yield from _exchange_round(
            machine, rc, inbox, local.keys, local.perm, splitters, alive, round_no,
            options, out,
        )
        verdict = yield from _commit_round(
            machine, rc, inbox, alive, round_no, coord, exch, out
        )
        if verdict is None:
            alive = [r for r in alive if r != coord]
            round_no += 1
            continue
        committed, new_alive = verdict
        if committed:
            committed_alive = new_alive
            break
        rc.cancel_stale(round_no + 1)
        inbox.drop_before(round_no + 1)
        alive = new_alive
        round_no += 1

    # ---- step 6: the committed streams, back to back in survivor order, go
    # through the lossless program's own merge step (true origin ranks ride
    # along).  A survivor that sent nothing contributes no parts, so every
    # stream keeps the dtype step 1 gave it.
    assert exch is not None
    received_counts = np.zeros(size, dtype=np.int64)
    key_parts: list[np.ndarray] = []
    idx_parts: list[np.ndarray] = []
    for src in committed_alive:
        if src == rank:
            received_counts[src] = len(exch.local_k)
            key_parts.append(exch.local_k)
            idx_parts.append(exch.local_i)
            continue
        nk, ni, count = exch.fins[src]
        received_counts[src] = count
        kparts, iparts = exch.kparts.get(src, {}), exch.iparts.get(src, {})
        key_parts.extend(kparts[i] for i in range(nk))
        idx_parts.extend(iparts[i] for i in range(ni))
    yield merge_step(
        machine,
        options,
        out,
        np.concatenate(key_parts),
        np.concatenate(idx_parts),
        [int(received_counts[src]) for src in committed_alive],
        sources=committed_alive,
    )
    out.sent_counts = exch.sent_counts
    out.received_counts = received_counts
    out.survivors = tuple(committed_alive)
    out.recovery_rounds = round_no
    return out

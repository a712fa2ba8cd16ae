"""The splitter/sample cache protocol, driver and worker halves together.

The driver's :class:`SplitterCache` remembers committed epochs as
``(fingerprint, splitters)`` pairs and ships them on each
:class:`~repro.parallel.worker.JobSpec` as candidates.  Every rank still
draws its regular samples, but instead of gathering the sample *arrays* it
gathers a per-rank sample digest (:func:`probe_candidates`); the Master
combines the digests into the job's distribution fingerprint and, on an
exact match, broadcasts the candidate index — the splitter selection is
skipped entirely.  Because the fingerprint hashes the exact sample bytes, a
cache hit *guarantees* the cached splitters equal what fresh selection
would produce, so the output stays bit-identical to the oracle on every
path; a miss or a forced fallback rejoins the classic
gather-samples/bcast-splitters path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..core.sorter import MASTER
from .collectives import WorkerLink


@dataclass
class SplitterCache:
    """Driver-side memory of committed epochs: fingerprints → splitters.

    Keyed by ``(key dtype, cluster size)``; each key holds a tiny LRU of
    ``(distribution fingerprint, splitters)`` pairs (newest last, capacity
    :attr:`capacity_per_key`), so a pool alternating between a few
    recurring datasets keeps them all warm.  The fingerprint is exact
    (sha1 over the per-rank sample bytes — see
    :func:`combine_sample_fingerprint`), which is what makes a hit safe:
    matching fingerprint ⇒ the cached splitters are byte-equal to what
    fresh selection would return.
    """

    capacity_per_key: int = 4
    hits: int = 0
    misses: int = 0
    fallbacks: int = 0
    cold: int = 0
    _entries: dict[tuple[str, int], list[tuple[str, np.ndarray]]] = field(
        default_factory=dict
    )

    def candidates(
        self, dtype, size: int
    ) -> tuple[tuple[str, np.ndarray], ...]:
        return tuple(self._entries.get((np.dtype(dtype).str, size), ()))

    def commit(
        self, dtype, size: int, fingerprint: str | None, splitters
    ) -> None:
        if fingerprint is None or splitters is None:
            return
        entries = self._entries.setdefault((np.dtype(dtype).str, size), [])
        entries[:] = [e for e in entries if e[0] != fingerprint]
        entries.append((fingerprint, np.asarray(splitters).copy()))
        del entries[: -self.capacity_per_key]

    def note(self, verdict: str) -> None:
        if verdict == "hit":
            self.hits += 1
        elif verdict == "cold":
            self.cold += 1
        elif verdict == "miss":
            self.misses += 1
        else:
            self.fallbacks += 1

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fallbacks": self.fallbacks,
            "cold": self.cold,
            "entries": sum(len(v) for v in self._entries.values()),
        }


def sample_digest(samples: np.ndarray) -> str:
    """Exact digest of one rank's regular sample (bytes, not values)."""
    return hashlib.sha1(
        np.ascontiguousarray(samples).tobytes()
    ).hexdigest()


def combine_sample_fingerprint(
    digests: list[str], dtype: np.dtype, size: int
) -> str:
    """Combine per-rank digests into the job's distribution fingerprint.

    The fingerprint pins everything the splitter selection consumes: key
    dtype, cluster size, and the exact per-rank sample bytes in rank
    order.  Equal fingerprint ⇒ identical merged sample ⇒ identical
    splitters — which is what lets a cache hit skip selection without
    risking the bit-identity contract.
    """
    acc = hashlib.sha1(f"{np.dtype(dtype).str}|p{size}".encode())
    for digest in digests:
        acc.update(digest.encode())
    return acc.hexdigest()


def probe_candidates(
    link: WorkerLink,
    rank: int,
    size: int,
    samples: np.ndarray,
    candidates: tuple[tuple[str, np.ndarray], ...],
    force_resample: bool,
) -> tuple[str, np.ndarray | None, str | None]:
    """One rank's half of the cache probe: two collectives, one verdict.

    Returns ``(verdict, splitters, fingerprint)``: the verdict every rank
    agrees on (``hit``/``miss``/``fallback-forced``), the cached splitters
    on a hit (``None`` otherwise, which sends the job down the classic
    sampling path), and — on the Master only — the job's exact fingerprint.
    """
    digests = link.gather(sample_digest(samples), root=MASTER)
    fingerprint = decision = None
    if rank == MASTER:
        assert digests is not None
        fingerprint = combine_sample_fingerprint(digests, samples.dtype, size)
        chosen = next(
            (
                i
                for i, (cand_fp, _s) in enumerate(candidates)
                if cand_fp == fingerprint
            ),
            None,
        )
        if chosen is None:
            decision = ("miss", None)
        elif force_resample:
            decision = ("fallback-forced", None)
        else:
            decision = ("hit", chosen)
    verdict, chosen = link.bcast(decision, root=MASTER)
    splitters = candidates[chosen][1] if chosen is not None else None
    return verdict, splitters, fingerprint

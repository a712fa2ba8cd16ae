"""The splitter/sample cache protocol, driver and worker halves together.

The driver's :class:`SplitterCache` remembers committed epochs as
``(fingerprint, splitters)`` pairs and ships them on each
:class:`~repro.parallel.worker.JobSpec` as the candidates of the job's
:class:`SplitterProbe`, a sub-program of the sort's step 2
(:mod:`repro.core.program`).  Every rank still draws its regular
samples, but instead of gathering the sample *arrays* it gathers a
per-rank sample digest (:meth:`SplitterProbe.probe_candidates`); the Master
combines the digests into the job's distribution fingerprint and, on an
exact match, broadcasts the candidate index — the splitter selection is
skipped entirely.  Because the fingerprint hashes the exact sample bytes, a
cache hit *guarantees* the cached splitters equal what fresh selection
would produce, so the output stays bit-identical to the oracle on every
path; a miss rejoins the classic gather-samples/bcast-splitters path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..core.program import MASTER


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
        splitters = np.asarray(splitters)
        # The entries of a key share one (structured) dtype object, so a
        # job's spec pickles it once, not once per candidate.
        shared = next((s.dtype for _, s in entries if s.dtype == splitters.dtype), splitters.dtype)
        entries.append((fingerprint, splitters.astype(shared)))
        del entries[: -self.capacity_per_key]

    def note(self, verdict: str) -> None:
        if verdict == "hit":
            self.hits += 1
        elif verdict == "cold":
            self.cold += 1
        else:
            self.misses += 1

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
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


@dataclass(frozen=True)
class SplitterProbe:
    """A job's splitter cache, shipped on its
    :class:`~repro.parallel.worker.JobSpec` and probed by the sort program
    (:func:`~repro.core.program.six_steps`) between steps 2 and 3 over the
    rank's own ``gather``/``bcast``."""

    #: Prior-epoch ``(fingerprint, splitters)`` pairs, newest last.
    candidates: tuple[tuple[str, np.ndarray], ...]

    def probe_candidates(self, host, samples: np.ndarray):
        """One rank's half of the cache probe, a sub-program: two
        collectives, one ``(verdict, splitters, fingerprint)``.  Every rank
        agrees on the verdict (``cold`` without candidates, no message;
        else ``hit``/``miss``); splitters are the cached
        ones on a hit, else ``None``: the classic path.  The fingerprint is
        the Master's (a cold job's comes from :meth:`fingerprint`)."""
        if not self.candidates:
            return "cold", None, None
        digests = yield host.gather(sample_digest(samples))
        fingerprint = decision = None
        if host.rank == MASTER:
            fingerprint = combine_sample_fingerprint(digests, samples.dtype, host.size)
            fingerprints = [cand_fp for cand_fp, _s in self.candidates]
            if fingerprint not in fingerprints:
                decision = ("miss", None)
            else:
                decision = ("hit", fingerprints.index(fingerprint))
        verdict, chosen = yield host.bcast(decision)
        splitters = self.candidates[chosen][1] if chosen is not None else None
        return verdict, splitters, fingerprint

    @staticmethod
    def fingerprint(gathered: list[np.ndarray], size: int) -> str:
        """The Master's fingerprint of a cold job, from the gathered samples."""
        digests = [sample_digest(samples) for samples in gathered]
        return combine_sample_fingerprint(digests, gathered[0].dtype, size)

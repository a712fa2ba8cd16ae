"""SortResult: the user-facing view of a completed distributed sort.

Wraps the per-rank outputs with the analysis the paper's evaluation needs —
per-processor counts/ratios (Table II), value ranges (Table III), per-step
timings (Figure 7), communication overhead (Figure 9), peak memory
(Figure 11) — plus the library API the paper advertises: global binary
search, top-k retrieval, and provenance lookups on the sorted data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simnet.metrics import ClusterMetrics
from .provenance import Provenance
from .sorter import STEP_LABELS, RankSortOutput


@dataclass
class SortResult:
    """Distributed sort output across ``p`` simulated processors."""

    #: Sorted keys held by each processor (ascending across processors).
    per_processor: list[np.ndarray]
    #: Provenance aligned with each processor's keys.
    provenance: list[Provenance]
    #: Elapsed virtual seconds per step, per rank.
    step_seconds: list[dict[str, float]]
    #: Cluster metrics of the run (network traffic, memory, makespan).
    metrics: ClusterMetrics
    #: Full counts matrix: sent_counts[src][dst].
    counts_matrix: np.ndarray
    #: Ranks that sorted the whole input after the retry layer
    #: (:mod:`repro.core.retry`) dropped one that kept crashing; None when
    #: every rank took part.  Every input key comes back either way: a
    #: dropped rank keeps its slot in ``per_processor`` with an empty
    #: partition, so every query API stays rank-aligned.
    survivors: tuple[int, ...] | None = None
    #: Survivor re-plans the job needed (ranks dropped; 0 = none).
    recovery_rounds: int = 0

    # ------------------------------------------------------------ basics

    @property
    def num_processors(self) -> int:
        return len(self.per_processor)

    @property
    def total_keys(self) -> int:
        return sum(len(a) for a in self.per_processor)

    @property
    def input_offsets(self) -> np.ndarray:
        """Start offset of each rank's block in the driver's input: the
        block starts every :class:`Provenance` carries (read-only)."""
        offsets = self.provenance[0].block_starts[:-1].astype(np.int64, copy=False)
        offsets.flags.writeable = False
        return offsets

    @property
    def elapsed_seconds(self) -> float:
        """Total virtual execution time of the sort."""
        return self.metrics.makespan

    def counts(self) -> np.ndarray:
        """Keys per processor after the sort (Table II's raw data)."""
        return np.array([len(a) for a in self.per_processor], dtype=np.int64)

    def ratios(self) -> np.ndarray:
        """Fraction of all keys on each processor (Table II)."""
        total = self.total_keys
        if total == 0:
            return np.zeros(self.num_processors)
        return self.counts() / total

    def imbalance(self) -> float:
        """Max over mean processor load; 1.0 is perfect balance."""
        c = self.counts()
        if c.sum() == 0:
            return 1.0
        return float(c.max() / c.mean())

    def load_spread(self) -> int:
        """Max minus min processor load (the Figure 10 metric)."""
        c = self.counts()
        return int(c.max() - c.min()) if len(c) else 0

    def ranges(self) -> list[tuple | None]:
        """(min, max) key per processor in the key dtype, None for empty
        ones (Table III)."""
        return [(a[0], a[-1]) if len(a) else None for a in self.per_processor]

    def step_breakdown(self) -> dict[str, float]:
        """Max-over-ranks elapsed time per step (Figure 7 series)."""
        return {
            label: max((s.get(label, 0.0) for s in self.step_seconds), default=0.0)
            for label in STEP_LABELS
        }

    def communication_seconds(self) -> float:
        """Figure 9's communication-overhead metric for this run."""
        return self.metrics.communication_seconds()

    def communication_fraction(self) -> float:
        """Share of the makespan spent on communication."""
        return self.metrics.communication_fraction()

    def peak_memory_bytes(self) -> tuple[int, int]:
        """(resident, temporary) peak bytes over ranks (Figure 11)."""
        return self.metrics.peak_memory()

    # ----------------------------------------------------------- queries

    def to_array(self) -> np.ndarray:
        """The fully sorted data, concatenated across processors."""
        if not self.per_processor:
            return np.empty(0)
        return np.concatenate(self.per_processor)

    def is_globally_sorted(self) -> bool:
        """True iff the keys ascend across processors in numpy's sort
        order: NaN and NaT last, −0.0 equal to 0.0, structured keys field
        by field.  A stable argsort of ascending keys leaves them in place."""
        keys = self.to_array()
        return bool(np.all(np.argsort(keys, kind="stable") == np.arange(len(keys))))

    def _position(self, value, side: str = "left") -> tuple[int, int]:
        """``(processor, local_index)`` of ``value``'s ``side`` insertion
        point in numpy's sort order (see :meth:`is_globally_sorted`)."""
        held = [r for r, a in enumerate(self.per_processor) if len(a)]
        if not held:
            return 0, 0
        keys = self.per_processor[held[0]]
        if keys.dtype.names is not None:
            value = np.array(value, dtype=keys.dtype)
        maxima = np.array([self.per_processor[r][-1] for r in held], dtype=keys.dtype)
        # Every processor before the first whose maximum passes the value
        # lies wholly before the insertion point.
        pos = int(np.searchsorted(maxima, value, side=side))
        if pos == len(held):
            return held[-1], len(self.per_processor[held[-1]])
        r = held[pos]
        return r, int(np.searchsorted(self.per_processor[r], value, side=side))

    def searchsorted(self, value) -> tuple[int, int]:
        """Locate ``value`` in the distributed sorted data.

        Returns ``(processor, local_index)`` of the first element >= value
        in numpy's sort order — the paper's "binary search on data" API.
        If the value exceeds every key the position one past the last
        element of the last non-empty processor is returned.
        """
        return self._position(value)

    def global_index(self, processor: int, local_index: int) -> int:
        """Rank of ``(processor, local_index)`` in the global sorted order."""
        if not 0 <= processor < self.num_processors:
            raise IndexError("processor out of range")
        before = sum(len(self.per_processor[r]) for r in range(processor))
        return before + local_index

    def top_k(self, k: int, *, largest: bool = True) -> np.ndarray:
        """The ``k`` largest (or smallest) keys — the paper's "retrieving
        top values from their graph data" use case.  Walks processors from
        the boundary inward, so only edge processors are touched."""
        if k < 0:
            raise ValueError("k must be >= 0")
        collected: list[np.ndarray] = []
        remaining = k
        order = reversed(range(self.num_processors)) if largest else range(self.num_processors)
        for r in order:
            if remaining <= 0:
                break
            a = self.per_processor[r]
            if len(a) == 0:
                continue
            take = min(remaining, len(a))
            collected.append(a[-take:] if largest else a[:take])
            remaining -= take
        if not collected:
            return np.empty(0, self.per_processor[0].dtype)
        # Pieces were gathered boundary-inward; restore ascending order.
        return np.concatenate(collected[::-1] if largest else collected)

    def select(self, global_rank: int):
        """The key at ``global_rank`` in the global sorted order.

        Walks the per-processor counts (O(p)) instead of materializing the
        concatenation — the distributed selection primitive behind
        :meth:`quantiles` and median queries.
        """
        if not 0 <= global_rank < self.total_keys:
            raise IndexError(
                f"rank {global_rank} outside [0, {self.total_keys})"
            )
        remaining = global_rank
        for a in self.per_processor:
            if remaining < len(a):
                return a[remaining]
            remaining -= len(a)
        raise AssertionError("unreachable: counts sum to total_keys")

    def quantiles(self, qs) -> np.ndarray:
        """Global quantile values at fractions ``qs`` (nearest-rank).

        Part of the "more analysis on sorted data" story: quantiles over a
        distributed sorted dataset cost O(p) per query, no data movement.
        """
        qs = np.atleast_1d(np.asarray(qs, dtype=np.float64))
        if np.any((qs < 0) | (qs > 1)):
            raise ValueError("quantile fractions must be within [0, 1]")
        if self.total_keys == 0:
            raise ValueError("no data to take quantiles of")
        ranks = np.minimum(
            (qs * self.total_keys).astype(np.int64), self.total_keys - 1
        )
        return np.array([self.select(int(r)) for r in ranks])

    def range_count(self, lo, hi) -> int:
        """Number of keys in ``[lo, hi)``, by two distributed searches."""
        return self.global_index(*self._position(hi)) - self.global_index(*self._position(lo))

    def count(self, value) -> int:
        """Multiplicity of ``value`` in the sorted data.  Tied values may
        span several processors (the investigator splits them
        deliberately); the count is the distance between their two ends."""
        end = self.global_index(*self._position(value, "right"))
        return end - self.global_index(*self._position(value))

    def origin_of(self, processor: int, local_index: int) -> tuple[int, int]:
        """(previous processor, previous local index) of a sorted entry."""
        prov = self.provenance[processor]
        entry = Provenance(prov.origin[[local_index]], prov.block_starts)
        return int(entry.origin_proc[0]), int(entry.origin_index[0])

    def gather_values(self, values: np.ndarray) -> np.ndarray:
        """Reorder a driver-side payload column into sorted-key order.

        ``values`` must align with the driver's original input array; the
        result aligns with :meth:`to_array`.  This is how "sort multiple
        different data simultaneously" is served from one provenance pass.
        """
        values = np.asarray(values)
        if len(values) != self.total_keys:
            raise ValueError(
                f"payload has {len(values)} entries, sort moved {self.total_keys}"
            )
        parts = []
        for rank, prov in enumerate(self.provenance):
            if len(prov) != len(self.per_processor[rank]):
                raise ValueError(f"provenance does not cover partition {rank}")
            parts.append(values[prov.origin])
        return np.concatenate(parts) if parts else values[:0]

    # ------------------------------------------------------- persistence

    def save(self, path) -> None:
        """Persist the sorted partitions, provenance and run summary.

        Stores a single ``.npz`` with the per-processor arrays, provenance
        (each key's origin processor and index), counts matrix and step
        timings; full per-rank metrics are summarized
        (makespan, traffic) rather than serialized.  Reload with
        :meth:`SortResult.load` to resume analytics without re-sorting.
        """
        import json

        payload: dict = {
            "num_processors": np.array(self.num_processors),
            "input_offsets": self.input_offsets,
            "counts_matrix": self.counts_matrix,
            "makespan": np.array(self.metrics.makespan),
            "remote_bytes": np.array(self.metrics.remote_bytes),
            "step_seconds_json": np.bytes_(
                json.dumps(self.step_seconds).encode("utf-8")
            ),
        }
        for r in range(self.num_processors):
            payload[f"keys_{r}"] = self.per_processor[r]
            payload[f"origin_proc_{r}"] = self.provenance[r].origin_proc
            payload[f"origin_index_{r}"] = self.provenance[r].origin_index
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path) -> "SortResult":
        """Reload a result written by :meth:`save`.

        The reloaded object supports every query API; its metrics carry the
        saved summary (makespan, traffic) with empty per-rank detail.
        """
        import json

        from ..simnet.metrics import ClusterMetrics

        with np.load(path, allow_pickle=False) as data:
            p = int(data["num_processors"])
            per_processor = [data[f"keys_{r}"] for r in range(p)]
            procs = [data[f"origin_proc_{r}"] for r in range(p)]
            offsets = data["input_offsets"]
            starts = np.append(offsets, sum(map(len, per_processor))).astype(np.int64)
            origins = [starts[proc] + data[f"origin_index_{r}"] for r, proc in enumerate(procs)]
            # A block no key came from is empty: it starts where the next
            # one does (older files saved 0 for a rank a degraded run dropped).
            held = np.zeros(p + 1, dtype=bool)
            held[np.concatenate([*procs, [p]]).astype(np.int64)] = True
            starts[~held] = starts[-1]
            starts = np.minimum.accumulate(starts[::-1])[::-1]
            provenance = [Provenance(origin, starts) for origin in origins]
            step_seconds = json.loads(bytes(data["step_seconds_json"]).decode("utf-8"))
            metrics = ClusterMetrics(
                processes=[],
                makespan=float(data["makespan"]),
                remote_bytes=int(data["remote_bytes"]),
                local_bytes=0,
                messages=0,
            )
            return cls(
                per_processor=per_processor,
                provenance=provenance,
                step_seconds=step_seconds,
                metrics=metrics,
                counts_matrix=data["counts_matrix"],
            )

    # --------------------------------------------------------- assembly

    @classmethod
    def from_rank_outputs(
        cls,
        outputs: list["RankSortOutput | None"],
        metrics: ClusterMetrics,
    ) -> "SortResult":
        """Assemble the cluster-wide result from per-rank outputs.

        A rank the retry layer dropped reports ``None``: it keeps its slot
        with an empty partition so indices stay rank-aligned.
        """
        p = len(outputs)
        empty_counts = np.zeros(p, dtype=np.int64)
        counts_matrix = np.stack(
            [o.sent_counts if o is not None else empty_counts for o in outputs]
        )
        first = next(o for o in outputs if o is not None)
        empty_keys = first.keys[:0]
        nothing = Provenance(first.provenance.origin[:0], first.provenance.block_starts)
        return cls(
            per_processor=[o.keys if o is not None else empty_keys for o in outputs],
            provenance=[o.provenance if o is not None else nothing for o in outputs],
            step_seconds=[o.step_seconds if o is not None else {} for o in outputs],
            metrics=metrics,
            counts_matrix=counts_matrix,
        )

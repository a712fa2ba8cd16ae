"""SortResult: the user-facing view of a completed distributed sort.

Wraps the per-rank outputs with the analysis the paper's evaluation needs —
per-processor counts/ratios (Table II), value ranges (Table III), per-step
timings (Figure 7), communication overhead (Figure 9), peak memory
(Figure 11) — plus the library API the paper advertises: global binary
search, top-k retrieval, and provenance lookups on the sorted data.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..simnet.metrics import ClusterMetrics
from .provenance import Provenance
from .sorter import STEP_LABELS, RankSortOutput


def _lexicographic_le(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise ``x <= y`` for plain *or structured* arrays.

    Structured dtypes sort lexicographically but numpy exposes no ordering
    ufunc for them, so multi-field keys compare field by field here.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.dtype.names is None:
        return x <= y
    result = np.ones(len(x), dtype=bool)
    undecided = np.ones(len(x), dtype=bool)
    for field in x.dtype.names:
        less = x[field] < y[field]
        greater = x[field] > y[field]
        result[undecided & greater] = False
        undecided &= ~(less | greater)
        if not undecided.any():
            break
    return result


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
    #: Start offset of each rank's original block in the driver's input.
    input_offsets: np.ndarray
    #: Full counts matrix: sent_counts[src][dst].
    counts_matrix: np.ndarray
    #: Ranks that survived a fault-injected run (None on fault-free runs,
    #: where the whole cluster survives by construction).  Crashed ranks
    #: keep their slot in ``per_processor`` with an empty partition, so
    #: every query API stays rank-aligned.
    survivors: tuple[int, ...] | None = None
    #: Recovery rounds the committing exchange needed (0 = first attempt).
    recovery_rounds: int = 0

    # ------------------------------------------------------------ basics

    @property
    def num_processors(self) -> int:
        return len(self.per_processor)

    @property
    def total_keys(self) -> int:
        return sum(len(a) for a in self.per_processor)

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

    def ranges(self) -> list[tuple[float, float] | None]:
        """(min, max) key per processor, None for empty ones (Table III)."""
        out: list[tuple[float, float] | None] = []
        for a in self.per_processor:
            out.append((float(a[0]), float(a[-1])) if len(a) else None)
        return out

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
        """True iff every processor is sorted and boundaries are ordered."""
        prev_last = None
        for a in self.per_processor:
            if len(a) == 0:
                continue
            if not np.all(_lexicographic_le(a[:-1], a[1:])):
                return False
            if prev_last is not None and not _lexicographic_le(
                np.atleast_1d(prev_last), a[:1]
            )[0]:
                return False
            prev_last = a[-1]
        return True

    def searchsorted(self, value) -> tuple[int, int]:
        """Locate ``value`` in the distributed sorted data.

        Returns ``(processor, local_index)`` of the first element >= value
        — the paper's "binary search on data" API.  If the value exceeds
        every key the position one past the last element of the last
        non-empty processor is returned.
        """
        non_empty = [r for r, a in enumerate(self.per_processor) if len(a)]
        if not non_empty:
            return 0, 0
        lasts = [self.per_processor[r][-1] for r in non_empty]
        # First processor whose maximum reaches the value holds the first
        # element >= value: all earlier processors top out below it.
        pos = bisect_left(lasts, value)
        if pos == len(non_empty):
            r = non_empty[-1]
            return r, len(self.per_processor[r])
        r = non_empty[pos]
        return r, int(np.searchsorted(self.per_processor[r], value, side="left"))

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
            return np.empty(0)
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
        lo_proc, lo_idx = self.searchsorted(lo)
        hi_proc, hi_idx = self.searchsorted(hi)
        return self.global_index(hi_proc, hi_idx) - self.global_index(lo_proc, lo_idx)

    def count(self, value) -> int:
        """Multiplicity of ``value`` in the sorted data.

        Tied values may span several processors (the investigator splits
        them deliberately), so the count walks from the first candidate
        processor until keys exceed the value.
        """
        proc, _ = self.searchsorted(value)
        total = 0
        for r in range(proc, self.num_processors):
            a = self.per_processor[r]
            if len(a) == 0:
                continue
            if a[0] > value:
                break
            total += int(np.searchsorted(a, value, side="right")) - int(
                np.searchsorted(a, value, side="left")
            )
        return total

    def origin_of(self, processor: int, local_index: int) -> tuple[int, int]:
        """(previous processor, previous local index) of a sorted entry."""
        prov = self.provenance[processor]
        return int(prov.origin_proc[local_index]), int(prov.origin_index[local_index])

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
            parts.append(values[prov.global_indices(self.input_offsets)])
        return np.concatenate(parts) if parts else values[:0]

    # ------------------------------------------------------- persistence

    def save(self, path) -> None:
        """Persist the sorted partitions, provenance and run summary.

        Stores a single ``.npz`` with the per-processor arrays, provenance,
        counts matrix and step timings; full per-rank metrics are summarized
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
            provenance = [
                Provenance(data[f"origin_proc_{r}"], data[f"origin_index_{r}"])
                for r in range(p)
            ]
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
                input_offsets=data["input_offsets"],
                counts_matrix=data["counts_matrix"],
            )

    # --------------------------------------------------------- assembly

    @classmethod
    def from_rank_outputs(
        cls,
        outputs: list["RankSortOutput | None"],
        metrics: ClusterMetrics,
        input_offsets: np.ndarray,
    ) -> "SortResult":
        """Assemble the cluster-wide result from per-rank outputs.

        Crashed ranks (fault injection) report ``None``: they keep their
        slot with an empty partition so indices stay rank-aligned.  The
        survivor sets committed by the recovery protocol must agree across
        all live outputs — a disagreement is split-brain and raises
        :class:`~repro.simnet.errors.MembershipError` rather than quietly
        concatenating inconsistent data.
        """
        p = len(outputs)
        live = {rank: o for rank, o in enumerate(outputs) if o is not None}
        if not live:
            from ..simnet.errors import MembershipError

            raise MembershipError(-1, [], 0, reason="every rank crashed before producing output")
        survivor_sets = {o.survivors for o in live.values()}
        if survivor_sets == {None}:
            survivors = None  # fault-free fast path: nobody voted
        else:
            from ..simnet.errors import MembershipError

            if len(survivor_sets) != 1 or None in survivor_sets:
                raise MembershipError(
                    -1,
                    sorted(live),
                    0,
                    reason=f"split-brain survivor sets {sorted(map(str, survivor_sets))}",
                )
            (survivors,) = survivor_sets
            if set(survivors) != set(live):
                raise MembershipError(
                    -1,
                    sorted(live),
                    0,
                    reason=(
                        f"committed survivors {sorted(survivors)} disagree with "
                        f"ranks that produced output {sorted(live)}"
                    ),
                )
        empty_counts = np.zeros(p, dtype=np.int64)
        counts_matrix = np.stack(
            [o.sent_counts if o is not None else empty_counts for o in outputs]
        )
        first = next(iter(live.values()))
        empty_keys = first.keys[:0]
        return cls(
            per_processor=[o.keys if o is not None else empty_keys for o in outputs],
            provenance=[
                o.provenance if o is not None else Provenance.empty() for o in outputs
            ],
            step_seconds=[o.step_seconds if o is not None else {} for o in outputs],
            metrics=metrics,
            input_offsets=np.asarray(input_offsets, dtype=np.int64),
            counts_matrix=counts_matrix,
            survivors=survivors,
            recovery_rounds=max(o.recovery_rounds for o in live.values()),
        )

"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper — these quantify each claimed mechanism by
switching it off:

* **investigator** (Figure 3c) — load balance on duplicate-heavy data;
* **balanced-merge handler** (Figure 2) — merge time vs a sequential fold;
* **asynchronous messaging** — exchange time vs blocking sends;
* **buffer granularity** — the 256KB read buffer vs much smaller/larger.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.api import DistributedSorter
from ..workloads import generate
from .common import ExperimentScale, current_scale, format_table

PROCESSORS = 16


@dataclass
class AblationResult:
    #: name -> (on_value, off_value); semantics per metric column.
    rows: dict[str, tuple[float, float]]

    def improvement(self, name: str) -> float:
        on, off = self.rows[name]
        return off / on if on else float("inf")


def _sorter(scale: ExperimentScale, p: int, **overrides) -> DistributedSorter:
    return DistributedSorter(
        num_processors=p,
        threads_per_machine=scale.threads,
        data_scale=scale.data_scale,
        **overrides,
    )


def run(scale: ExperimentScale | None = None) -> AblationResult:
    scale = scale or current_scale()
    p = min(PROCESSORS, max(scale.processors))
    skewed = generate("right-skewed", scale.real_keys, seed=scale.seed)
    uniform = generate("uniform", scale.real_keys, seed=scale.seed)
    rows: dict[str, tuple[float, float]] = {}

    # Investigator: imbalance on duplicate-heavy data.
    inv_on = _sorter(scale, p).sort(skewed)
    inv_off = _sorter(scale, p, investigator=False).sort(skewed)
    rows["investigator (imbalance)"] = (inv_on.imbalance(), inv_off.imbalance())

    # Balanced merge handler: total time on uniform data.
    bm_on = _sorter(scale, p).sort(uniform)
    bm_off = _sorter(scale, p, balanced_merge=False).sort(uniform)
    rows["balanced merge (total s)"] = (bm_on.elapsed_seconds, bm_off.elapsed_seconds)

    # Asynchronous messaging: exchange-step elapsed time.
    as_on = _sorter(scale, p).sort(uniform)
    as_off = _sorter(scale, p, async_messaging=False).sort(uniform)
    label = "5-exchange"
    rows["async messaging (exchange s)"] = (
        as_on.step_breakdown()[label],
        as_off.step_breakdown()[label],
    )

    # Merge strategy: the handler's parallel pairwise levels vs a
    # sequential k-way heap merge over the same received runs.
    from ..core.balanced_merge import (
        kway_merge_cost_seconds,
        merge_levels,
        merge_levels_cost_seconds,
    )
    from ..pgxd import TaskManager

    run_lengths = [scale.real_keys // p] * p
    cost = scale.cost()
    tasks = TaskManager(scale.threads, cost)
    handler = merge_levels_cost_seconds(
        merge_levels(run_lengths), tasks, cost, scale=scale.data_scale
    )
    kway = kway_merge_cost_seconds(
        sum(run_lengths), p, cost, scale=scale.data_scale
    )
    rows["handler vs k-way (merge s)"] = (handler, kway)

    # Buffer granularity: total time with 256KB vs 4KB request buffers.
    buf_on = _sorter(scale, p).sort(uniform)
    buf_off = _sorter(scale, p, read_buffer_bytes=4 * 1024).sort(uniform)
    rows["256KB buffers (total s)"] = (buf_on.elapsed_seconds, buf_off.elapsed_seconds)
    return AblationResult(rows)


def main(scale: ExperimentScale | None = None) -> str:
    result = run(scale)
    rows = [
        [name, on, off, off / on if on else float("inf")]
        for name, (on, off) in result.rows.items()
    ]
    return format_table(
        ["mechanism (metric)", "on", "off", "off/on"],
        rows,
        title=f"Ablations — each mechanism on vs off (p={PROCESSORS})",
    )


if __name__ == "__main__":  # pragma: no cover
    print(main())

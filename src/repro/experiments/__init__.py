"""One module per paper table/figure, plus ablations (see DESIGN.md §4).

Every module exposes ``run(scale) -> Result`` (structured data for tests)
and ``main(scale) -> str`` (the paper-shaped text table).  The registry
below drives the CLI and the benchmark harness.
"""

from . import (
    ablations,
    baselines_comparison,
    buffer_sweep,
    fig4_distributions,
    fig5_total_time,
    fig6_strong_scaling,
    fig7_step_breakdown,
    fig8_twitter,
    fig9_sample_size,
    fig10_sample_balance,
    fig11_memory,
    ghost_ablation,
    network_sensitivity,
    presorted,
    straggler,
    table2_ratios,
    table3_ranges,
    weak_scaling,
)
from .common import (
    PAPER_KEYS,
    PAPER_PROCESSORS,
    PAPER_THREADS,
    ExperimentScale,
    current_scale,
    format_table,
)

#: Registry of every reproducible table/figure, in paper order.
EXPERIMENTS = {
    "fig4": fig4_distributions,
    "fig5": fig5_total_time,
    "fig6": fig6_strong_scaling,
    "fig7": fig7_step_breakdown,
    "table2": table2_ratios,
    "fig8": fig8_twitter,
    "table3": table3_ranges,
    "fig9": fig9_sample_size,
    "fig10": fig10_sample_balance,
    "fig11": fig11_memory,
    "ablations": ablations,
    "baselines": baselines_comparison,
    "buffer-sweep": buffer_sweep,
    "weak-scaling": weak_scaling,
    "ghost-ablation": ghost_ablation,
    "straggler": straggler,
    "presorted": presorted,
    "network-sensitivity": network_sensitivity,
}

__all__ = [
    "EXPERIMENTS",
    "PAPER_KEYS",
    "PAPER_PROCESSORS",
    "PAPER_THREADS",
    "ExperimentScale",
    "current_scale",
    "format_table",
]

"""Tests for the experiment modules: each must reproduce its paper claim.

These run at smoke scale (tiny real data, paper-scale virtual costs) and
assert the *qualitative shape* the paper reports — who wins, what stays
flat, what collapses — not absolute numbers.
"""

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, ExperimentScale, current_scale
from repro.experiments import (
    ablations,
    baselines_comparison,
    fig4_distributions,
    fig5_total_time,
    fig6_strong_scaling,
    fig7_step_breakdown,
    fig8_twitter,
    fig9_sample_size,
    fig10_sample_balance,
    fig11_memory,
    table2_ratios,
    table3_ranges,
)

SMOKE = ExperimentScale(real_keys=1 << 14, processors=(4, 8))
MEDIUM = ExperimentScale(real_keys=1 << 15, processors=(4, 8, 16))


class TestScalePresets:
    def test_current_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().real_keys == 1 << 18

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale().real_keys == 1 << 14

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            current_scale("huge")

    def test_data_scale_maps_to_paper(self):
        s = ExperimentScale(real_keys=1000, modeled_keys=1_000_000)
        assert s.data_scale == 1000.0


class TestFig4:
    def test_stats_cover_all_distributions(self):
        result = fig4_distributions.run(SMOKE)
        assert set(result.stats) == {"uniform", "normal", "right-skewed", "exponential"}

    def test_skewed_have_dominant_value(self):
        result = fig4_distributions.run(SMOKE)
        assert result.stats["right-skewed"]["top_value_mass"] > 0.5
        assert result.stats["exponential"]["top_value_mass"] > 0.5
        assert result.stats["uniform"]["top_value_mass"] < 0.05


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5_total_time.run(MEDIUM)

    def test_time_decreases_with_processors(self, result):
        for series in result.series.values():
            assert series.y[-1] < series.y[0]

    def test_distribution_insensitive(self, result):
        """Figure 5's claim: PGX.D sorts efficiently regardless of the
        input distribution — curves within ~40% of each other."""
        for p in MEDIUM.processors:
            assert result.spread_at(p) < 1.4


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6_strong_scaling.run(MEDIUM)

    def test_pgxd_beats_spark_everywhere(self, result):
        for pg, sp in zip(result.pgxd_seconds.y, result.spark_seconds.y):
            assert pg < sp

    def test_headline_ratio_2x_3x(self, result):
        ratios = [result.ratio_at(p) for p in result.processors]
        assert 1.5 < max(ratios) < 4.5
        assert min(ratios) > 1.2

    def test_pgxd_scales(self, result):
        speedups = result.speedups(result.pgxd_seconds)
        assert speedups[-1] > 2.0  # 4 -> 16 processors


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7_step_breakdown.run(MEDIUM)

    def test_exchange_cheaper_than_local_sort(self, result):
        for kind in ("normal", "right-skewed"):
            assert result.exchange_is_cheap(kind)

    def test_local_sort_dominates(self, result):
        for steps in result.breakdown.values():
            assert steps["1-local-sort"] == max(steps.values())

    def test_skew_does_not_blow_up_any_step(self, result):
        for label in result.breakdown["normal"]:
            normal = result.breakdown["normal"][label]
            skewed = result.breakdown["right-skewed"][label]
            if normal > 1e-6:
                assert skewed < 3 * normal


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2_ratios.run(MEDIUM)

    def test_all_rows_near_ten_percent(self, result):
        for kind in result.ratios:
            assert result.max_deviation(kind) < 0.035, kind

    def test_tied_block_exactly_equal_for_skewed(self, result):
        assert result.tied_block_equal("right-skewed")
        assert result.tied_block_equal("exponential")


class TestFig8:
    def test_pgxd_beats_spark_on_twitter(self):
        result = fig8_twitter.run(SMOKE)
        for p in result.processors:
            assert 1.2 < result.ratio_at(p) < 5.0


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3_ranges.run(SMOKE)

    @pytest.mark.parametrize("p", [8, 12, 16])
    def test_ranges_ordered_and_in_key_range(self, result, p):
        assert result.boundaries_ordered(p)
        assert result.covers_key_range(p)

    def test_smaller_values_on_smaller_ids(self, result):
        spans = [r for r in result.ranges[8] if r is not None]
        starts = [s[0] for s in spans]
        assert starts == sorted(starts)


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return fig9_sample_size.run(MEDIUM)

    def test_tiny_samples_hurt(self, result):
        assert result.tiny_samples_hurt()

    def test_x_near_optimal(self, result):
        assert result.x_is_near_optimal()


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10_sample_balance.run(MEDIUM)

    def test_tiny_samples_spread_loads(self, result):
        for p in result.processors:
            assert result.spread(0.004, p) > result.spread(1.0, p)

    def test_x_balances_everywhere(self, result):
        assert result.x_balances_everywhere()


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11_memory.run(MEDIUM)

    def test_memory_shrinks_with_processors(self, result):
        assert result.shrinks_with_processors()

    def test_roughly_inverse_scaling(self, result):
        assert -1.35 < result.scaling_exponent() < -0.6


class TestAblations:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run(MEDIUM)

    def test_every_mechanism_helps(self, result):
        for name in result.rows:
            assert result.improvement(name) > 1.0, name

    def test_investigator_is_the_big_win_on_duplicates(self, result):
        assert result.improvement("investigator (imbalance)") > 2.0


class TestBaselinesComparison:
    @pytest.fixture(scope="class")
    def result(self):
        return baselines_comparison.run(MEDIUM)

    def test_bitonic_moves_more_data(self, result):
        assert result.bitonic_moves_more()

    def test_radix_suffers_on_duplicates(self, result):
        assert result.radix_skew_penalty() > 2.0


class TestMainsAndRegistry:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig4", "fig5", "fig6", "fig7", "table2", "fig8", "table3",
            "fig9", "fig10", "fig11", "ablations", "baselines",
            "buffer-sweep", "weak-scaling", "ghost-ablation", "straggler",
            "presorted", "network-sensitivity",
        }

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_main_renders_table(self, name):
        text = EXPERIMENTS[name].main(SMOKE)
        assert isinstance(text, str)
        assert len(text.splitlines()) >= 3


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "table2" in out

    def test_run_single(self, capsys):
        from repro.experiments.cli import main

        assert main(["fig4", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out

    def test_unknown_experiment(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["bogus"])


class TestCliJson:
    def test_json_output_parses(self, capsys):
        import json

        from repro.experiments.cli import main

        assert main(["fig4", "table2", "--scale", "smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"fig4", "table2"}
        assert "ratios" in payload["table2"]
        assert "uniform" in payload["table2"]["ratios"]
        # numpy arrays became plain lists.
        assert isinstance(payload["table2"]["ratios"]["uniform"], list)

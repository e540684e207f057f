"""Tests for confidence intervals, formatting, and the harness."""

import pytest

import repro.perf.runner as runner_mod
from repro.analysis.ci import confidence_interval, t_quantile_975
from repro.analysis.experiments import (
    FIGURE5_VARIANTS,
    figure_speedups,
    measure_table5,
    run_cell,
    run_variants,
    table6_row,
)
from repro.analysis.tables import (
    format_bar_chart,
    format_speedup_figure,
    format_table,
    format_table1,
)
from repro.workloads import barnes, cholesky
from repro.workloads.base import SyntheticTxnWorkload


class TestCI:
    def test_single_sample(self):
        est = confidence_interval([3.0])
        assert est.mean == 3.0
        assert est.half_width == 0.0

    def test_symmetric_interval(self):
        est = confidence_interval([1.0, 2.0, 3.0])
        assert est.mean == 2.0
        assert est.low == pytest.approx(2.0 - est.half_width)
        assert est.high == pytest.approx(2.0 + est.half_width)

    def test_more_samples_tighter(self):
        wide = confidence_interval([1.0, 3.0])
        tight = confidence_interval([1.0, 3.0] * 10)
        assert tight.half_width < wide.half_width

    def test_t_quantiles(self):
        assert t_quantile_975(1) == pytest.approx(12.706)
        assert t_quantile_975(100) == pytest.approx(1.96)
        with pytest.raises(ValueError):
            t_quantile_975(0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([])


class TestFormatting:
    def test_format_table_aligns(self):
        text = format_table(["Name", "Value"],
                            [("a", 1), ("bb", 22.5)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "Name" in lines[1]
        assert "22.50" in text

    def test_bar_chart_scales(self):
        text = format_bar_chart(
            {"g": {"x": 1.0, "y": 0.5}}, "chart", width=10
        )
        assert "##########" in text  # full bar for the max
        assert "#####" in text

    def test_table1_formatting(self):
        rows = [{"benchmark": "Apache", "avg_lcs_ms": 49.6,
                 "max_lcs_ms": 70.5, "lcs_time_percent": 1.4}]
        text = format_table1(rows)
        assert "Apache" in text and "49.6" in text


class TestHarness:
    def test_run_cell(self):
        cell = run_cell(cholesky(), "TokenTM", scale=0.001, seed=1)
        assert cell.variant == "TokenTM"
        assert cell.stats.commits > 0
        assert cell.stats.makespan > 0

    def test_run_variants_share_trace(self):
        cells = run_variants(cholesky(), ("TokenTM", "LogTM-SE_Perf"),
                             scale=0.001, seed=1)
        commits = {c.stats.commits for c in cells.values()}
        assert len(commits) == 1  # same workload on both machines

    def test_run_variants_generates_once(self, monkeypatch):
        generate = SyntheticTxnWorkload.generate
        calls = []

        def counting(self, **kwargs):
            calls.append(kwargs)
            return generate(self, **kwargs)

        # Start from an empty trace memo so the count is this run's.
        runner_mod._trace.cache_clear()
        monkeypatch.setattr(SyntheticTxnWorkload, "generate", counting)
        variants = ("TokenTM", "LogTM-SE_Perf")
        cells = run_variants(cholesky(), variants, scale=0.001, seed=1)
        assert len(calls) == 1
        for variant in variants:
            alone = run_cell(cholesky(), variant, scale=0.001, seed=1)
            assert cells[variant] == alone

    def test_figure_speedups_normalized(self):
        series = figure_speedups(cholesky(),
                                 variants=("TokenTM", "LogTM-SE_Perf"),
                                 scale=0.001, runs=2, seed=1)
        assert series.baseline == "LogTM-SE_Perf"
        assert series.speedups["LogTM-SE_Perf"].mean == pytest.approx(1.0)
        assert 0.3 < series.speedups["TokenTM"].mean < 2.0
        text = format_speedup_figure([series], "Figure")
        assert "Cholesky" in text

    def test_measure_table5(self):
        row = measure_table5(barnes(), scale=0.2)
        assert row.benchmark == "Barnes"
        assert row.num_txns > 0
        assert row.avg_read_set > 0

    def test_table6_row(self):
        row = table6_row(barnes(), scale=0.05, seed=2)
        assert row.benchmark == "Barnes"
        assert 0 <= row.fast_pct <= 100
        assert row.fast_avg_duration > 0

    def test_figure5_variant_list(self):
        assert "TokenTM" in FIGURE5_VARIANTS
        assert "LogTM-SE_Perf" in FIGURE5_VARIANTS

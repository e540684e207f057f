"""Figure 1: Effect of False Positives.

Four STAMP workloads on LogTM-SE_2xH3 and LogTM-SE_4xH3, speedup
normalized to the perfect-signature baseline LogTM-SE_Perf.  The
paper's reading: false positives significantly degrade performance
for applications with larger and more frequent transactions
(Delaunay worst, Vacation substantial, Genome mild).
"""

from repro.analysis.experiments import FIGURE1_VARIANTS, FIGURE1_WORKLOADS
from repro.analysis.tables import format_bar_chart

from benchmarks.conftest import BENCH_SEED, cached_cell, emit


def _run(cell_cache, workloads):
    chart = {}
    fp_counts = {}
    for name in FIGURE1_WORKLOADS:
        base = cached_cell(cell_cache, workloads, name, "LogTM-SE_Perf")
        bars = {}
        for variant in FIGURE1_VARIANTS:
            cell = cached_cell(cell_cache, workloads, name, variant)
            bars[variant] = (base.stats.makespan
                             / max(1, cell.stats.makespan))
            fp_counts[(name, variant)] = cell.stats.machine[
                "false_positive_conflicts"]
        chart[name] = bars
    return chart, fp_counts


def test_figure1_false_positives(benchmark, capsys, cell_cache, workloads):
    chart, fp_counts = benchmark.pedantic(
        _run, args=(cell_cache, workloads), rounds=1, iterations=1
    )
    emit(capsys, format_bar_chart(
        chart,
        "Figure 1. Effect of False Positives "
        f"(speedup vs LogTM-SE_Perf, seed {BENCH_SEED})",
    ))
    fp_lines = [f"  {n} / {v}: {c} false-positive conflicts"
                for (n, v), c in sorted(fp_counts.items()) if c]
    emit(capsys, "\n".join(fp_lines))

    for name in FIGURE1_WORKLOADS:
        bars = chart[name]
        # Perfect signatures are the normalization baseline.
        assert abs(bars["LogTM-SE_Perf"] - 1.0) < 1e-9
        # Bloom variants never beat perfect by more than noise.
        assert bars["LogTM-SE_2xH3"] <= 1.1
        assert bars["LogTM-SE_4xH3"] <= 1.1

    # The paper's headline: Delaunay collapses under false positives.
    assert chart["Delaunay"]["LogTM-SE_2xH3"] < 0.6
    assert chart["Delaunay"]["LogTM-SE_4xH3"] < 0.6
    # Vacation degrades visibly; 2xH3 is worse than (or close to) 4xH3.
    assert chart["Vacation-High"]["LogTM-SE_2xH3"] < 0.9
    assert (chart["Vacation-High"]["LogTM-SE_2xH3"]
            <= chart["Vacation-High"]["LogTM-SE_4xH3"] + 0.05)
    # Genome's small write sets barely saturate: mild degradation.
    assert chart["Genome"]["LogTM-SE_4xH3"] > 0.7

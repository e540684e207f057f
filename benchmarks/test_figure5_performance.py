"""Figure 5: TokenTM Performance.

The paper's main result: all eight workloads on the five HTM
variants, execution time as speedup normalized to LogTM-SE_Perf.

Expected shapes (Section 6.2):

* SPLASH (small transactions): every variant within a few percent of
  the perfect baseline — "do no harm";
* Genome / Vacation: TokenTM comparable to the best implementable
  LogTM-SE, within ~8% of the unimplementable perfect baseline;
* Delaunay: TokenTM several times faster than LogTM-SE_4xH3 (the
  paper measures 5.7x) because 2Kbit signatures saturate under its
  giant read/write sets.
"""

from repro.analysis.experiments import FIGURE5_VARIANTS, GRID_SCALES
from repro.analysis.tables import format_bar_chart

from benchmarks.conftest import cached_cell, emit

SPLASH = ("Barnes", "Cholesky", "Radiosity", "Raytrace")


def _run(cell_cache, workloads):
    chart = {}
    for name in GRID_SCALES:
        base = cached_cell(cell_cache, workloads, name, "LogTM-SE_Perf")
        chart[name] = {
            variant: (base.stats.makespan
                      / max(1, cached_cell(cell_cache, workloads, name,
                                           variant).stats.makespan))
            for variant in FIGURE5_VARIANTS
        }
    return chart


def test_figure5_performance(benchmark, capsys, cell_cache, workloads):
    chart = benchmark.pedantic(_run, args=(cell_cache, workloads),
                               rounds=1, iterations=1)
    scale_note = ", ".join(f"{n} x{s}" for n, s in GRID_SCALES.items())
    emit(capsys, format_bar_chart(
        chart, "Figure 5. TokenTM Performance "
               "(speedup normalized to LogTM-SE_Perf)"))
    emit(capsys, f"(workload scales: {scale_note})")

    # --- do no harm on small transactions (SPLASH) ---
    for name in SPLASH:
        assert chart[name]["TokenTM"] > 0.75, name
        # TokenTM tracks the implementable LogTM-SE closely.
        gap = abs(chart[name]["TokenTM"] - chart[name]["LogTM-SE_4xH3"])
        assert gap < 0.3, name

    # --- do some good on large transactions (STAMP) ---
    delaunay_ratio = (chart["Delaunay"]["TokenTM"]
                      / chart["Delaunay"]["LogTM-SE_4xH3"])
    assert delaunay_ratio > 2.0, (
        f"TokenTM only {delaunay_ratio:.1f}x over 4xH3 on Delaunay; "
        "the paper reports 5.7x"
    )
    emit(capsys, f"TokenTM / LogTM-SE_4xH3 on Delaunay: "
                 f"{delaunay_ratio:.1f}x (paper: 5.7x)")

    for name in ("Genome", "Vacation-Low", "Vacation-High"):
        # TokenTM within ~20% of the perfect baseline (paper: ~8%;
        # extra slack for the scaled-down runs' noise).
        assert chart[name]["TokenTM"] > 0.75, name

    # TokenTM never falls catastrophically below perfect anywhere.
    for name in GRID_SCALES:
        assert chart[name]["TokenTM"] > 0.7, name
        assert abs(chart[name]["LogTM-SE_Perf"] - 1.0) < 1e-9

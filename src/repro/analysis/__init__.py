"""Analysis: LCS study, experiment harness, table/figure formatting."""

from repro.analysis.ci import Estimate, confidence_interval, t_quantile_975
from repro.analysis.contention import (
    BlockProfile,
    ConflictRecorder,
    instrument,
    profile_report,
)
from repro.analysis.experiments import (
    FIGURE1_VARIANTS,
    FIGURE5_VARIANTS,
    Cell,
    SpeedupSeries,
    Table5Row,
    Table6Row,
    figure_speedups,
    measure_table5,
    run_trace,
    run_variants,
    table6_row,
)
from repro.analysis.lcs import (
    CriticalSection,
    LcsReport,
    analyze_lock_trace,
    table1,
)
from repro.analysis.tables import (
    format_bar_chart,
    format_speedup_figure,
    format_table,
    format_table1,
    format_table5,
    format_table6,
)

__all__ = [
    "BlockProfile",
    "Cell",
    "ConflictRecorder",
    "CriticalSection",
    "instrument",
    "profile_report",
    "Estimate",
    "FIGURE1_VARIANTS",
    "FIGURE5_VARIANTS",
    "LcsReport",
    "SpeedupSeries",
    "Table5Row",
    "Table6Row",
    "analyze_lock_trace",
    "confidence_interval",
    "figure_speedups",
    "format_bar_chart",
    "format_speedup_figure",
    "format_table",
    "format_table1",
    "format_table5",
    "format_table6",
    "measure_table5",
    "run_trace",
    "run_variants",
    "t_quantile_975",
    "table1",
    "table6_row",
]

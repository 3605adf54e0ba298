"""Result assembly and reporting for the paper's tables and figures."""

from repro.analysis.report import render_table
from repro.analysis.speedup import (
    Table2Row,
    Table3Row,
    Table4Row,
    table2_row,
    table3_row,
    table4_row,
)
from repro.analysis.utilization import (
    StrategyUtilization,
    strategy_utilization,
    utilization_report,
)
from repro.analysis.histograms import (
    ascii_histogram,
    load_profile,
    neighbor_variation,
    sorted_profile,
)
from repro.analysis.projection import (
    ProjectedTimes,
    project_tracking_times,
    segment_executed,
)

__all__ = [
    "render_table",
    "Table2Row",
    "Table3Row",
    "Table4Row",
    "table2_row",
    "table3_row",
    "table4_row",
    "StrategyUtilization",
    "strategy_utilization",
    "utilization_report",
    "ascii_histogram",
    "load_profile",
    "sorted_profile",
    "neighbor_variation",
    "ProjectedTimes",
    "project_tracking_times",
    "segment_executed",
]

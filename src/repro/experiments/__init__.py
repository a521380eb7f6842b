"""Experiment harness: scenarios, runner, figure reproductions, reports."""

from .ablations import ABLATIONS, run_ablations
from .figures import (
    AGGRESSIVENESS_LEVELS,
    CONFIDENCE_LEVELS,
    FigureResult,
    fig06_prediction_error,
    fig07_utilization,
    fig08_utilization_vs_slo,
    fig09_slo_vs_confidence,
    fig10_overhead,
)
from .mixed import mixed_scenario, run_mixed_workload
from .plot import render_line_chart, save_figure_svg
from .report import format_series_table, format_table, shape_check
from .runner import (
    METHOD_ORDER,
    PredictorCache,
    default_schedulers,
    run_scenario,
)
from .scenarios import (
    FAULT_INTENSITIES,
    JOB_COUNTS,
    Scenario,
    cluster_scenario,
    ec2_scenario,
    fault_sweep_scenarios,
)
from .table2 import render_table2, table2_rows

__all__ = [
    "ABLATIONS",
    "run_ablations",
    "mixed_scenario",
    "run_mixed_workload",
    "AGGRESSIVENESS_LEVELS",
    "CONFIDENCE_LEVELS",
    "FigureResult",
    "fig06_prediction_error",
    "fig07_utilization",
    "fig08_utilization_vs_slo",
    "fig09_slo_vs_confidence",
    "fig10_overhead",
    "format_series_table",
    "format_table",
    "shape_check",
    "METHOD_ORDER",
    "PredictorCache",
    "default_schedulers",
    "run_scenario",
    "FAULT_INTENSITIES",
    "JOB_COUNTS",
    "Scenario",
    "cluster_scenario",
    "ec2_scenario",
    "fault_sweep_scenarios",
    "render_line_chart",
    "save_figure_svg",
    "render_table2",
    "table2_rows",
]

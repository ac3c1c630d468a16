"""Experiment harness: per-figure reproductions, shared runner, reporting."""

from . import experiments
from .charts import bar_chart, series_chart, sparkline
from .export import export_experiment, read_json, write_csv, write_json, write_markdown
from .report import format_table, geometric_mean, print_experiment
from .runner import default_config, get_trace, run_cells, run_design_matrix, trace_length
from .stats import SampleSummary, SeededComparison, compare_over_seeds
from .summary import generate_report

__all__ = [
    "SampleSummary",
    "SeededComparison",
    "bar_chart",
    "compare_over_seeds",
    "default_config",
    "export_experiment",
    "generate_report",
    "read_json",
    "series_chart",
    "sparkline",
    "write_csv",
    "write_json",
    "write_markdown",
    "experiments",
    "format_table",
    "geometric_mean",
    "get_trace",
    "print_experiment",
    "run_cells",
    "run_design_matrix",
    "trace_length",
]

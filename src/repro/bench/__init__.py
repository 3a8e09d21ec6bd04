"""Benchmark harness: per-table experiment drivers and reporting."""

from . import experiments
from .harness import corpus_graph, run_coarsening, run_partition, space_for
from .report import (
    baseline_entry,
    format_table,
    geomean,
    median,
    merge_baseline_file,
    ratio,
    wallclock_key,
    write_results,
    write_trace,
)

__all__ = [
    "experiments",
    "run_coarsening",
    "run_partition",
    "corpus_graph",
    "space_for",
    "geomean",
    "median",
    "ratio",
    "format_table",
    "write_trace",
    "write_results",
    "wallclock_key",
    "baseline_entry",
    "merge_baseline_file",
]

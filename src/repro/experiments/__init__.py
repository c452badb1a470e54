"""Experiment harness shared by the benchmarks/ suite."""

from .harness import (
    KNN_METHOD_ORDER,
    ConstructionReport,
    ExactMatchReport,
    KnnReport,
    build_dpisax_with_report,
    build_tardis_with_report,
    evaluate_exact_match,
    evaluate_knn,
    get_dataset_and_queries,
    get_dpisax,
    get_tardis,
)
from .reporting import banner, fmt_bytes, fmt_seconds, render_table, results_dir, save_csv
from .scale import ScaleProfile, active_profile
from .workloads import (
    ExactQuery,
    dataset_with_heldout_queries,
    exact_match_workload,
)

__all__ = [
    "ConstructionReport",
    "ExactMatchReport",
    "KnnReport",
    "KNN_METHOD_ORDER",
    "build_tardis_with_report",
    "build_dpisax_with_report",
    "evaluate_exact_match",
    "evaluate_knn",
    "get_dataset_and_queries",
    "get_tardis",
    "get_dpisax",
    "ScaleProfile",
    "active_profile",
    "ExactQuery",
    "exact_match_workload",
    "dataset_with_heldout_queries",
    "render_table",
    "fmt_seconds",
    "fmt_bytes",
    "banner",
    "save_csv",
    "results_dir",
]

"""repro.experiments — experiment harness behind the paper's tables/figures.

Shared runner (method × split AL grids with CI aggregation), on-disk
dataset cache, canonical bench configurations, and plain-text reporting.
"""

from .analysis import (
    PerClassReport,
    confusion_pairs,
    hardest_anomaly,
    per_class_report,
    query_efficiency,
)
from .cache import (
    config_fingerprint,
    dataset_fingerprint,
    get_or_build,
    load_dataset,
    save_dataset,
)
from .configs import (
    CACHE_DIR,
    K_FEATURES,
    N_JOBS,
    N_QUERIES,
    N_SPLITS,
    OUT_DIR,
    RF_PARAMS,
    SPLITTER,
    bench_dataset,
    bench_eclipse_config,
    bench_volta_config,
)
from .report import (
    curve_table,
    distribution_table,
    format_table,
    sparkline,
    table5_row,
)
from .runner import (
    ALL_METHODS,
    BASELINE_METHODS,
    STRATEGY_METHODS,
    CurveStats,
    ExperimentResult,
    aggregate,
    default_model_factory,
    run_methods,
)

__all__ = [
    "ALL_METHODS",
    "BASELINE_METHODS",
    "CACHE_DIR",
    "CurveStats",
    "ExperimentResult",
    "K_FEATURES",
    "N_JOBS",
    "N_QUERIES",
    "N_SPLITS",
    "OUT_DIR",
    "PerClassReport",
    "confusion_pairs",
    "hardest_anomaly",
    "per_class_report",
    "query_efficiency",
    "RF_PARAMS",
    "SPLITTER",
    "STRATEGY_METHODS",
    "aggregate",
    "bench_dataset",
    "bench_eclipse_config",
    "bench_volta_config",
    "config_fingerprint",
    "curve_table",
    "dataset_fingerprint",
    "default_model_factory",
    "distribution_table",
    "format_table",
    "get_or_build",
    "load_dataset",
    "run_methods",
    "save_dataset",
    "sparkline",
    "table5_row",
]

"""Framework configuration (the knobs of Fig. 1 / Sec. IV-E).

One dataclass gathers every choice the paper makes so an experiment is
fully described by (dataset, FrameworkConfig): feature-extraction method,
chi-square feature count, model family and hyperparameters, query strategy,
and the stopping rule of Sec. III-E (query budget and/or target score).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["FrameworkConfig", "default_model_params", "MODEL_FAMILIES"]

MODEL_FAMILIES = ("random_forest", "lgbm", "logistic_regression", "mlp")


def default_model_params(model: str) -> dict[str, Any]:
    """The paper's tuned hyperparameters (Table IV, starred entries).

    Eclipse winners are used as defaults; the Table IV grid itself lives in
    :func:`repro.core.framework.table4_grid` for re-running the search.
    """
    defaults: dict[str, dict[str, Any]] = {
        "random_forest": {"n_estimators": 100, "max_depth": 8, "criterion": "entropy"},
        "lgbm": {
            "num_leaves": 31,
            "learning_rate": 0.1,
            "max_depth": -1,
            "colsample_bytree": 1.0,
        },
        "logistic_regression": {"penalty": "l1", "C": 1.0},
        "mlp": {
            "max_iter": 100,
            "hidden_layer_sizes": (50, 100, 50),
            "alpha": 1e-4,
        },
    }
    if model not in defaults:
        raise ValueError(f"unknown model {model!r}; available: {MODEL_FAMILIES}")
    return defaults[model]


@dataclass(frozen=True)
class FrameworkConfig:
    """Every tunable of the ALBADross pipeline.

    Parameters
    ----------
    feature_method:
        ``"mvts"`` or ``"tsfresh"`` (the paper picks per dataset: MVTS on
        Eclipse, TSFRESH on Volta — Table V).
    n_features:
        Chi-square top-k (paper sweeps 250…all; best 2000 at full scale).
    model:
        One of :data:`MODEL_FAMILIES`.
    model_params:
        Hyperparameters for the model; empty dict → the Table IV defaults.
    query_strategy:
        ``"uncertainty"`` / ``"margin"`` / ``"entropy"``.
    max_queries:
        Sec. III-E stopping rule: maximum number of allowed queries.
    target_f1:
        Optional second stopping rule: stop as soon as this test/validation
        F1 is reached.
    splitter:
        Forest split search for ``random_forest``: ``"exact"`` (default,
        the paper-faithful reference path) or ``"hist"`` (histogram-binned,
        much faster; see ``docs/mlcore.md``). Ignored by the other
        families.
    n_jobs:
        Worker processes shared by the data plane and the forest: drives
        chunk-wise parallel feature extraction (any model family) and
        forest fitting (``random_forest``); 1 = serial, the default.
        Results are bit-identical at every worker count.
    warm_start:
        Incremental refits for the AL loop and online retrains: trees
        survive across rounds, each refit regrows only a seeded
        ``refresh_fraction`` subset and folds new rows into the kept
        trees' leaf counts (see ``docs/mlcore.md``). Requires
        ``splitter="hist"``.
    refresh_fraction:
        Fraction of trees regrown per warm refit; ``1.0`` is bit-exact
        to retraining from scratch.
    random_state:
        Seed threaded through every stochastic component.
    """

    feature_method: str = "mvts"
    n_features: int = 500
    model: str = "random_forest"
    model_params: dict[str, Any] = field(default_factory=dict)
    query_strategy: str = "uncertainty"
    max_queries: int = 250
    target_f1: float | None = None
    splitter: str = "exact"
    n_jobs: int = 1
    warm_start: bool = False
    refresh_fraction: float = 0.25
    random_state: int = 0

    def __post_init__(self) -> None:
        if self.feature_method not in ("mvts", "tsfresh"):
            raise ValueError(f"unknown feature_method {self.feature_method!r}")
        if self.model not in MODEL_FAMILIES:
            raise ValueError(f"unknown model {self.model!r}")
        if self.query_strategy not in ("uncertainty", "margin", "entropy"):
            raise ValueError(f"unknown query_strategy {self.query_strategy!r}")
        if self.n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {self.n_features}")
        if self.max_queries < 0:
            raise ValueError(f"max_queries must be >= 0, got {self.max_queries}")
        if self.target_f1 is not None and not 0.0 < self.target_f1 <= 1.0:
            raise ValueError(f"target_f1 must be in (0, 1], got {self.target_f1}")
        if self.splitter not in ("exact", "hist"):
            raise ValueError(f"splitter must be 'exact' or 'hist', got {self.splitter!r}")
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if not 0.0 < self.refresh_fraction <= 1.0:
            raise ValueError(
                f"refresh_fraction must be in (0, 1], got {self.refresh_fraction}"
            )
        if self.warm_start and self.splitter != "hist":
            raise ValueError(
                "warm_start needs splitter='hist' (warm refits run on the "
                "binned training path)"
            )

    def resolved_model_params(self) -> dict[str, Any]:
        """Model parameters with Table IV defaults filled in.

        The ``splitter`` / ``n_jobs`` performance knobs are injected for
        ``random_forest``; an explicit entry in ``model_params`` always
        wins.
        """
        params = default_model_params(self.model)
        params.update(self.model_params)
        if self.model == "random_forest":
            params.setdefault("splitter", self.splitter)
            params.setdefault("n_jobs", self.n_jobs)
        return params

"""Experiment runner: many (method × split) active-learning runs, aggregated.

Every curve figure in the paper (Figs. 3, 5, 6, 8) is the same experiment
shape: for each query-selection *method* (three AL strategies + three
baselines) and each of several train/test *splits*, run the AL loop and
record F1 / false-alarm / anomaly-miss curves; then report per-method means
with a 95% confidence band across splits. This module implements that shape
once, with optional process-level fan-out over the (method, split) grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from ..active.baselines import EqualAppSelector, ProctorModel, RandomSelector
from ..active.loop import ALResult, queries_to_reach, run_active_learning
from ..datasets.splits import PreparedSplit
from ..mlcore.forest import RandomForestClassifier
from ..parallel import map_blocks

__all__ = [
    "CurveStats",
    "ExperimentResult",
    "default_model_factory",
    "STRATEGY_METHODS",
    "BASELINE_METHODS",
    "ALL_METHODS",
    "run_methods",
    "aggregate",
]

STRATEGY_METHODS = ("uncertainty", "margin", "entropy")
BASELINE_METHODS = ("random", "equal_app", "proctor")
ALL_METHODS = STRATEGY_METHODS + BASELINE_METHODS


def default_model_factory(seed: int) -> RandomForestClassifier:
    """The paper's production model: a random forest (Table IV tuned)."""
    return RandomForestClassifier(
        n_estimators=16, max_depth=8, criterion="entropy", random_state=seed
    )


@dataclass
class CurveStats:
    """Across-split mean and 95% CI of one method's learning curves."""

    n_labeled: np.ndarray
    f1_mean: np.ndarray
    f1_ci: np.ndarray
    far_mean: np.ndarray
    far_ci: np.ndarray
    amr_mean: np.ndarray
    amr_ci: np.ndarray
    n_splits: int

    def f1_at(self, n_additional: int) -> float:
        """Mean F1 after ``n_additional`` queries (nearest curve point)."""
        target = self.n_labeled[0] + n_additional
        i = int(np.argmin(np.abs(self.n_labeled - target)))
        return float(self.f1_mean[i])


@dataclass
class ExperimentResult:
    """All runs of one experiment: method → per-split ALResults."""

    runs: dict[str, list[ALResult]] = field(default_factory=dict)

    def stats(self, method: str) -> CurveStats:
        """Aggregate a method's splits into mean ± CI curves."""
        return aggregate(self.runs[method])

    def queries_to_reach(self, method: str, target_f1: float) -> int | None:
        """Additional samples until the *mean* curve first hits the target."""
        stats = self.stats(method)
        hit = np.flatnonzero(stats.f1_mean >= target_f1)
        if len(hit) == 0:
            return None
        return int(stats.n_labeled[hit[0]] - stats.n_labeled[0])

    def per_split_queries_to_reach(
        self, method: str, target_f1: float
    ) -> list[int | None]:
        """Per-split counts (the paper's shaded-band variability)."""
        return [queries_to_reach(r, target_f1) for r in self.runs[method]]


def aggregate(results: Sequence[ALResult]) -> CurveStats:
    """Mean and 95% CI across splits, truncated to the shortest curve."""
    if not results:
        raise ValueError("no results to aggregate")
    L = min(len(r.f1) for r in results)
    f1 = np.stack([r.f1[:L] for r in results])
    far = np.stack([r.far[:L] for r in results])
    amr = np.stack([r.amr[:L] for r in results])
    n = len(results)
    z = 1.96 / np.sqrt(n) if n > 1 else 0.0

    def ci(mat: np.ndarray) -> np.ndarray:
        return z * mat.std(axis=0, ddof=1) if n > 1 else np.zeros(L)

    return CurveStats(
        n_labeled=results[0].n_labeled[:L].copy(),
        f1_mean=f1.mean(axis=0),
        f1_ci=ci(f1),
        far_mean=far.mean(axis=0),
        far_ci=ci(far),
        amr_mean=amr.mean(axis=0),
        amr_ci=ci(amr),
        n_splits=n,
    )


def _make_strategy(method: str, prep: PreparedSplit) -> Any:
    if method in STRATEGY_METHODS:
        return method
    if method == "random":
        return RandomSelector()
    if method == "equal_app":
        return EqualAppSelector(prep.pool_apps)
    if method == "proctor":
        # Proctor acquires labels at random; the model swap happens in
        # _run_single via the ProctorModel estimator
        return RandomSelector()
    raise ValueError(f"unknown method {method!r}; available: {ALL_METHODS}")


def _run_single(job: tuple) -> tuple[str, int, ALResult]:
    """One (method, split) cell."""
    (method, split_id, prep, n_queries, model_params, proctor_params, seed) = job
    if method == "proctor":
        model: Any = ProctorModel(random_state=seed, **proctor_params)
    else:
        model = default_model_factory(seed)
        if model_params:
            model.set_params(**model_params)
    strategy = _make_strategy(method, prep)
    result = run_active_learning(
        model,
        strategy,
        prep.X_seed,
        prep.y_seed,
        prep.X_pool,
        prep.y_pool,
        prep.X_test,
        prep.y_test,
        n_queries=n_queries,
        pool_apps=prep.pool_apps,
        random_state=seed,
    )
    # only the curves and query logs are aggregated: don't ship or keep
    # one fitted forest per (method, split) cell
    return method, split_id, replace(result, model=None)


def _run_jobs(jobs: list[tuple]) -> list[tuple[str, int, ALResult]]:
    """A block of (method, split) cells: the worker body of :func:`run_methods`."""
    return [_run_single(job) for job in jobs]


def run_methods(
    preps: Sequence[PreparedSplit],
    methods: Sequence[str] = ALL_METHODS,
    n_queries: int = 100,
    model_params: dict[str, Any] | None = None,
    proctor_params: dict[str, Any] | None = None,
    n_workers: int = 1,
    base_seed: int = 0,
) -> ExperimentResult:
    """Run every method on every prepared split.

    Parameters
    ----------
    preps:
        One :class:`PreparedSplit` per train/test replicate (the paper
        repeats five times).
    methods:
        Subset of :data:`ALL_METHODS`.
    model_params:
        Overrides for the default random-forest model.
    proctor_params:
        Overrides for the Proctor baseline (code size, epochs, …).
    n_workers:
        Workers for the (method × split) grid (see
        :func:`repro.parallel.map_blocks`); 1 = serial.
    """
    unknown = set(methods) - set(ALL_METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    proctor_defaults: dict[str, Any] = {
        "code_size": 32,
        "hidden_layer_sizes": (64,),
        "ae_epochs": 40,
    }
    if proctor_params:
        proctor_defaults.update(proctor_params)
    jobs = [
        (
            method,
            split_id,
            prep,
            n_queries,
            model_params or {},
            proctor_defaults,
            base_seed + split_id,
        )
        for method in methods
        for split_id, prep in enumerate(preps)
    ]
    outputs = [
        out for part in map_blocks(_run_jobs, jobs, n_jobs=n_workers) for out in part
    ]
    result = ExperimentResult(runs={m: [] for m in methods})
    for method, split_id, run in sorted(
        outputs, key=lambda t: (t[0], t[1])
    ):
        result.runs[method].append(run)
    return result

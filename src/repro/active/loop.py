"""The active-learning experiment loop (Fig. 1 steps 2–4, Sec. V-A protocol).

``run_active_learning`` drives the full cycle the paper evaluates: start
from the labeled seed set, repeatedly (query strategy → oracle label →
teach/re-train), and score F1 / false-alarm / anomaly-miss on a held-out
test set after every query. It handles pool bookkeeping (selected samples
leave the pool), supports both real strategies and the Random / Equal App /
Proctor baselines, and stops at the query budget or a target F1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..mlcore.base import BaseEstimator, check_random_state, clone
from ..mlcore.metrics import (
    HEALTHY_LABEL,
    anomaly_miss_rate,
    f1_score,
    false_alarm_rate,
)
from .baselines import EqualAppSelector, ProctorModel, clone_with_representation
from .learner import ActiveLearner
from .oracle import Oracle
from .strategies import DeltaPoolScorer, StrategyFn, select_from_proba, strategy_name

__all__ = ["ALResult", "run_active_learning", "queries_to_reach"]


@dataclass
class ALResult:
    """Learning curves and query log from one active-learning run.

    ``n_labeled[i]`` is the labeled-set size after the i-th evaluation
    (index 0 is the seed set, before any query). The metric arrays are
    aligned with ``n_labeled``.

    ``model`` is the loop's final model when it is exactly what a fresh
    clone's ``fit`` on the seed plus every taught row gives: at least one
    query, and refits that were plain cold ``fit`` calls (no bin cache,
    no warm refit, no shared representation). Otherwise it is ``None``.
    """

    n_labeled: np.ndarray
    f1: np.ndarray
    far: np.ndarray
    amr: np.ndarray
    oracle: Oracle
    queried_labels: list = field(default_factory=list)
    queried_apps: list = field(default_factory=list)
    model: BaseEstimator | None = None

    @property
    def initial_f1(self) -> float:
        """F1 of the seed-trained model (Table V "Starting F1-score")."""
        return float(self.f1[0])

    @property
    def final_f1(self) -> float:
        """F1 after the last query."""
        return float(self.f1[-1])


def queries_to_reach(result: ALResult, target_f1: float) -> int | None:
    """Minimum *additional* labeled samples to first reach ``target_f1``.

    Returns 0 if the seed model already passes (Table V "Already Passed"),
    or ``None`` if the target was never reached within the budget.
    """
    hit = np.flatnonzero(result.f1 >= target_f1)
    if len(hit) == 0:
        return None
    return int(result.n_labeled[hit[0]] - result.n_labeled[0])


def run_active_learning(
    estimator: BaseEstimator,
    strategy: str | StrategyFn,
    X_seed: np.ndarray,
    y_seed: np.ndarray,
    X_pool: np.ndarray,
    y_pool: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
    *,
    n_queries: int = 100,
    target_f1: float | None = None,
    pool_apps: np.ndarray | None = None,
    healthy_label: object = HEALTHY_LABEL,
    eval_every: int = 1,
    oracle_noise: float = 0.0,
    warm_start: bool | str = False,
    refresh_fraction: float = 0.25,
    random_state: int | np.random.Generator | None = None,
    seed_model: BaseEstimator | None = None,
) -> ALResult:
    """Run one full query→label→re-train→evaluate experiment.

    Parameters
    ----------
    estimator:
        Classifier prototype. A :class:`ProctorModel` gets its autoencoder
        pretrained on the unlabeled pool here (its defining behaviour) and
        keeps that representation across refits.
    strategy:
        ``"uncertainty"`` / ``"margin"`` / ``"entropy"``, a custom callable,
        or a baseline selector (``RandomSelector()`` /
        ``EqualAppSelector(pool_apps)``).
    n_queries:
        Query budget; also bounded by the pool size.
    target_f1:
        Optional early stop once the test F1 reaches this value.
    pool_apps:
        Per-pool-sample application names; required by Equal App and used
        for the Fig. 4 drill-down log.
    eval_every:
        Evaluate metrics every k-th query (curves stay aligned via
        ``n_labeled``); 1 reproduces the paper's per-query curves.
    warm_start:
        Incremental refits. ``"auto"`` activates when the bin cache is on
        and the estimator supports ``refit`` (a ``splitter="hist"``
        forest): trees survive across rounds, each refit regrows only a
        seeded ``refresh_fraction`` subset and folds the new row into the
        kept trees' leaf counts. Named strategies then also use **delta
        pool scoring** — only replaced trees re-descend the pool each
        round, and the maintained scores are bitwise-equal to full
        re-scoring. ``True`` forces it (raises without cache/refit
        support), ``False`` (default) keeps cold per-round refits.
    refresh_fraction:
        Fraction of trees regrown per warm refit. ``1.0`` makes every
        round bit-identical to the cold path (same queries, same curves);
        smaller fractions trade fidelity for refit cost.
    seed_model:
        A clone of ``estimator`` already fit on ``(X_seed, y_seed)``. The
        learner starts from it instead of refitting when its own seed fit
        would be that same plain ``fit`` (no bin cache, no Proctor
        representation); otherwise it is ignored. It is never mutated.

    Returns
    -------
    ALResult with metric curves, the oracle (query accounting), the
    per-query label/app log and, for plain cold refits, the final model.
    """
    rng = check_random_state(random_state)
    X_pool = np.asarray(X_pool, dtype=np.float64)
    y_pool = np.asarray(y_pool)
    if len(X_pool) != len(y_pool):
        raise ValueError("X_pool and y_pool length mismatch")
    if pool_apps is not None and len(pool_apps) != len(X_pool):
        raise ValueError("pool_apps and X_pool length mismatch")
    if eval_every < 1:
        raise ValueError(f"eval_every must be >= 1, got {eval_every}")

    oracle = Oracle(
        y_true=y_pool,
        apps=None if pool_apps is None else np.asarray(pool_apps),
        noise_rate=oracle_noise,
        random_state=rng,
    )

    clone_fn: Callable[[BaseEstimator], BaseEstimator] = clone
    if isinstance(estimator, ProctorModel):
        estimator.fit_unlabeled(X_pool)
        clone_fn = clone_with_representation

    # cross-refit bin cache, on for estimators that train from bin codes
    # (a splitter="hist" forest): seed + pool are quantile-binned once up
    # front, every refit row-stacks cached codes, and each queried
    # sample's codes are looked up instead of recomputed
    use_cache = getattr(estimator, "splitter", None) == "hist" and hasattr(
        estimator, "fit_binned"
    )
    binner = seed_codes = pool_codes = None
    if use_cache:
        from ..mlcore.binning import DEFAULT_MAX_BINS, Binner

        X_seed = np.asarray(X_seed, dtype=np.float64)
        # bin seed + pool together so every sample the loop can ever teach
        # already has its code row — refits never re-quantize anything
        binner = Binner(getattr(estimator, "max_bins", DEFAULT_MAX_BINS))
        codes_all = binner.fit_transform(np.vstack([X_seed, X_pool]))
        seed_codes = codes_all[: len(X_seed)]
        pool_codes = codes_all[len(X_seed) :]

    if warm_start not in (True, False, "auto"):
        raise ValueError(
            f"warm_start must be True/False/'auto', got {warm_start!r}"
        )
    use_warm = warm_start is True or (
        warm_start == "auto" and use_cache and hasattr(estimator, "refit")
    )
    if warm_start is True:
        if not use_cache:
            raise TypeError(
                "warm_start=True needs the bin cache; use a hist-splitter "
                "estimator with fit_binned"
            )
        if not hasattr(estimator, "refit"):
            raise TypeError(
                f"warm_start=True needs an estimator with refit; "
                f"{type(estimator).__name__} has none"
            )

    learner = ActiveLearner(
        estimator,
        strategy,
        X_seed,
        y_seed,
        random_state=rng,
        clone_fn=clone_fn,
        binner=binner,
        initial_codes=seed_codes,
        warm_start=use_warm,
        refresh_fraction=refresh_fraction,
        initial_model=seed_model if binner is None and clone_fn is clone else None,
    )

    # delta pool scoring: only meaningful under warm refits (the model
    # object persists) and only for named strategies whose selection rule
    # we can apply to a maintained probability matrix
    sel_name = strategy_name(strategy) if use_warm else None
    scorer = DeltaPoolScorer(learner.model, X_pool) if sel_name else None

    def evaluate() -> tuple[float, float, float]:
        pred = learner.predict(X_test)
        return (
            f1_score(y_test, pred, average="macro"),
            false_alarm_rate(y_test, pred, healthy_label),
            anomaly_miss_rate(y_test, pred, healthy_label),
        )

    # live pool state; indices into the *original* pool for oracle lookups
    alive = np.arange(len(X_pool))
    n_labeled = [learner.n_labeled]
    f1_curve, far_curve, amr_curve = [], [], []
    f1_0, far_0, amr_0 = evaluate()
    f1_curve.append(f1_0)
    far_curve.append(far_0)
    amr_curve.append(amr_0)
    queried_labels: list = []
    queried_apps: list = []

    budget = min(n_queries, len(X_pool))
    equal_app = strategy if isinstance(strategy, EqualAppSelector) else None

    for q in range(budget):
        if target_f1 is not None and f1_curve[-1] >= target_f1:
            break
        if scorer is not None:
            local_idx = select_from_proba(sel_name, scorer.proba())
        else:
            local_idx = learner.query(X_pool[alive])
        orig_idx = int(alive[local_idx])
        label = oracle.label(orig_idx)
        queried_labels.append(label)
        if pool_apps is not None:
            queried_apps.append(str(np.asarray(pool_apps)[orig_idx]))
        learner.teach(
            X_pool[orig_idx],
            label,
            codes=None if pool_codes is None else pool_codes[orig_idx],
        )
        alive = np.delete(alive, local_idx)
        if scorer is not None:
            scorer.drop(local_idx)
            scorer.apply(learner.take_refit_report(), X_pool[alive])
        if equal_app is not None:
            equal_app.remove(local_idx)
        if (q + 1) % eval_every == 0 or q == budget - 1:
            learner.flush()
            if scorer is not None:
                scorer.apply(learner.take_refit_report(), X_pool[alive])
            f1_q, far_q, amr_q = evaluate()
            n_labeled.append(learner.n_labeled)
            f1_curve.append(f1_q)
            far_curve.append(far_q)
            amr_curve.append(amr_q)

    return ALResult(
        n_labeled=np.array(n_labeled),
        f1=np.array(f1_curve),
        far=np.array(far_curve),
        amr=np.array(amr_curve),
        oracle=oracle,
        queried_labels=queried_labels,
        queried_apps=queried_apps,
        model=(
            learner.model
            if queried_labels and binner is None and clone_fn is clone
            else None
        ),
    )

"""The ALBADross framework — the paper's public-facing pipeline (Fig. 1).

``ALBADross`` glues the substrates together end to end:

1. feature extraction + selection on raw telemetry runs,
2. initial supervised training on the labeled seed,
3. the active-learning query loop against the unlabeled pool,
4. a deployable diagnosis model (label + confidence per sample).

It is the class a downstream operator would actually use; the benchmark
harness drives the lower-level :func:`repro.active.run_active_learning`
directly when it needs per-query curves for several methods at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..active.loop import ALResult, run_active_learning
from ..active.strategies import get_strategy
from ..features.pipeline import FeatureExtractor
from ..mlcore.base import BaseEstimator
from ..mlcore.feature_selection import SelectKBest
from ..mlcore.forest import RandomForestClassifier
from ..mlcore.gbm import LGBMClassifier
from ..mlcore.linear import LogisticRegression
from ..mlcore.mlp import MLPClassifier
from ..mlcore.model_selection import GridSearchCV
from ..mlcore.preprocessing import MinMaxScaler
from ..telemetry.catalog import MetricCatalog
from ..telemetry.collector import RunRecord
from ..telemetry.corpus import RunCorpus
from .config import FrameworkConfig

__all__ = ["ALBADross", "Diagnosis", "build_model", "table4_grid"]


def build_model(
    name: str, params: dict[str, Any], random_state: int | None = None
) -> BaseEstimator:
    """Instantiate a model family by its paper name."""
    if name == "random_forest":
        return RandomForestClassifier(random_state=random_state, **params)
    if name == "lgbm":
        return LGBMClassifier(random_state=random_state, **params)
    if name == "logistic_regression":
        return LogisticRegression(**params)
    if name == "mlp":
        return MLPClassifier(random_state=random_state, **params)
    raise ValueError(f"unknown model {name!r}")


def table4_grid(model: str) -> dict[str, list]:
    """The hyperparameter search space of Table IV, verbatim."""
    grids: dict[str, dict[str, list]] = {
        "logistic_regression": {
            "penalty": ["l1", "l2"],
            "C": [0.001, 0.01, 0.1, 1.0, 10.0],
        },
        "random_forest": {
            "n_estimators": [8, 10, 20, 100, 200],
            "max_depth": [None, 4, 8, 10, 20],
            "criterion": ["gini", "entropy"],
        },
        "lgbm": {
            "num_leaves": [2, 8, 31, 128],
            "learning_rate": [0.01, 0.1, 0.3],
            "max_depth": [-1, 2, 8],
            "colsample_bytree": [0.5, 1.0],
        },
        "mlp": {
            "max_iter": [100, 200, 500, 1000],
            "hidden_layer_sizes": [(10, 10, 10), (50, 100, 50), (100,)],
            "alpha": [0.0001, 0.001, 0.01],
        },
    }
    if model not in grids:
        raise ValueError(f"unknown model {model!r}")
    return grids[model]


class _CorpusRows:
    """Raw kept-feature rows of a ``fit_features`` corpus, by run identity.

    Holds strong references to the runs and to the arrays their ``.data``
    pointed at, so an ``id()`` can never be reused by another run while
    the rows are held. A run matches only if it is the very record that
    was extracted and still carries the very same ``.data`` array.
    """

    def __init__(self, runs: Sequence[RunRecord], X: np.ndarray):
        self.runs = list(runs)
        self.data = [run.data for run in self.runs]
        self.index = {id(run): i for i, run in enumerate(self.runs)}
        self.X = X
        self.support: np.ndarray | None = None  # the kept features X holds

    def narrow(self, support: np.ndarray) -> "_CorpusRows | None":
        """Cut to the ``support`` columns, the ones :meth:`ALBADross.learn`
        reads; None when an earlier cut dropped some of them."""
        if self.support is None:
            self.X, self.support = self.X[:, support], support
        return self if np.array_equal(support, self.support) else None

    def gather(
        self, runs: Sequence[RunRecord] | RunCorpus, support: np.ndarray | None
    ) -> np.ndarray | None:
        """The rows of ``runs`` narrowed to ``support`` (None: every kept
        feature), or None unless every run matches.

        The column gather is the same integer-array index that
        :meth:`FeatureExtractor.transform` applies to its C-ordered raw
        rows, so the result has its memory layout as well as its bytes:
        BLAS-backed consumers (the chi-square matmul) round by layout.
        """
        if isinstance(runs, RunCorpus) or len(runs) == 0:
            return None
        if self.support is not None:
            if support is None or not np.array_equal(support, self.support):
                return None
            support = None  # X holds exactly these columns
        idx = []
        for run in runs:
            i = self.index.get(id(run))
            if i is None or self.runs[i] is not run or self.data[i] is not run.data:
                return None
            idx.append(i)
        columns = np.arange(self.X.shape[1]) if support is None else support
        return np.ascontiguousarray(self.X[idx])[:, columns]


@dataclass(frozen=True)
class Diagnosis:
    """One diagnosed sample: the predicted label and its confidence."""

    label: str
    confidence: float


class ALBADross:
    """Active-learning-based anomaly diagnosis, end to end.

    Typical use::

        framework = ALBADross(catalog, FrameworkConfig(...))
        framework.fit_features(seed_runs + pool_runs)       # extraction corpus
        framework.fit_initial(seed_runs, seed_labels)       # Fig. 1 step 1
        result = framework.learn(pool_runs, oracle_labels,  # Fig. 1 steps 2-4
                                 validation_runs, validation_labels)
        framework.diagnose(new_runs)                        # deployment

    The validation set plays the role of the paper's monitored score for
    the Sec. III-E stopping criterion (budget or target F1).
    """

    def __init__(self, catalog: MetricCatalog, config: FrameworkConfig | None = None):
        self.catalog = catalog
        self.config = config or FrameworkConfig()
        self.extractor = FeatureExtractor(
            catalog,
            method=self.config.feature_method,
            n_jobs=self.config.n_jobs,
        )
        self.scaler: MinMaxScaler | None = None
        self.selector: SelectKBest | None = None
        self.model: BaseEstimator | None = None
        self._X_seed: np.ndarray | None = None
        self._y_seed: np.ndarray | None = None
        self._train_rows: _CorpusRows | None = None
        # fit_initial's model while it still is the fit of (_X_seed,
        # _y_seed) under the current config; learn hands it to the learner
        self._seed_model: BaseEstimator | None = None

    def __getstate__(self) -> dict:
        # the training-row cache holds run records and raw feature rows;
        # it never enters a pickle, so saved frameworks stay the same
        # bytes as those of a framework without one
        state = self.__dict__.copy()
        state.pop("_train_rows", None)
        state.pop("_seed_model", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._train_rows = None
        self._seed_model = None

    # ------------------------------------------------------------------
    def fit_features(self, runs: Sequence[RunRecord] | RunCorpus) -> "ALBADross":
        """Learn the feature space: extraction drop-mask + Min-Max scaling.

        Call with the full training corpus (labeled + unlabeled runs); the
        chi-square selector is fit later, in :meth:`fit_initial`, because it
        needs labels. Extraction is run-batched — a whole campaign is one
        kernel pass per run-length group, not one per run.

        Given a list of records, the framework keeps the corpus's raw
        feature rows for its training lifetime: :meth:`fit_initial`,
        :meth:`tune` and :meth:`learn` gather the rows of runs from this
        corpus instead of extracting them again. :meth:`fit_initial`
        narrows the rows to the selected features, and :meth:`learn`
        releases them when it returns. Runs are matched by identity —
        the same record object carrying the same ``.data`` array — so a
        copied record or a reassigned ``.data`` is extracted afresh, but
        a run mutated *in place* between this call and :meth:`learn`
        would be served its old rows: don't. The rows are never pickled.
        """
        ds = self.extractor.fit_transform(runs)
        self.scaler = MinMaxScaler(clip=True).fit(ds.X)
        self._train_rows = None if isinstance(runs, RunCorpus) else _CorpusRows(runs, ds.X)
        return self

    def _features(
        self,
        runs: Sequence[RunRecord] | RunCorpus,
        support: np.ndarray | None,
        gather: bool = False,
    ) -> np.ndarray:
        # Scaled kept features of ``runs``, narrowed to ``support`` (None:
        # every kept feature). Extract only the metric columns those
        # features read and scale just those columns: every step is per
        # column, so this is bit-identical to extract -> drop -> scale ->
        # select. The plan is derived from fitted state on each call,
        # never stored, so older pickles featurize unchanged. With
        # ``gather``, runs of the fit_features corpus reuse its rows,
        # which are the same bits.
        if self.scaler is None:
            raise RuntimeError("call fit_features first")
        cache = self._train_rows if gather else None
        rows = None if cache is None else cache.gather(runs, support)
        if rows is None:
            X = self.extractor.transform(runs, self.extractor.plan(support)).X
        else:
            # the extractor zero-fills test-time NaNs the same way
            X = np.nan_to_num(rows, copy=False)
        scaler = self.scaler if support is None else self.scaler.subset(support)
        return scaler.transform(X)

    def _featurize(
        self, runs: Sequence[RunRecord] | RunCorpus, gather: bool = False
    ) -> np.ndarray:
        support = None if self.selector is None else self.selector.support_
        return self._features(runs, support, gather)

    def fit_initial(
        self, seed_runs: Sequence[RunRecord], seed_labels: Sequence[str]
    ) -> "ALBADross":
        """Fig. 1 step 1: chi-square selection + initial supervised model."""
        if self.scaler is None:
            raise RuntimeError("call fit_features first")
        if len(seed_runs) != len(seed_labels):
            raise ValueError("seed runs / labels length mismatch")
        X = self._features(seed_runs, None, gather=True)
        y = np.asarray(seed_labels)
        self.selector = SelectKBest(k=self.config.n_features).fit(X, y)
        X = self.selector.transform(X)
        self.model = build_model(
            self.config.model,
            self.config.resolved_model_params(),
            random_state=self.config.random_state,
        )
        self.model.fit(X, y)
        self._seed_model = self.model
        self._X_seed, self._y_seed = X, y
        if self._train_rows is not None:
            self._train_rows = self._train_rows.narrow(self.selector.support_)
        return self

    def tune(
        self, runs: Sequence[RunRecord], labels: Sequence[str], cv: int = 5
    ) -> dict[str, Any]:
        """Grid-search the Table IV space on a labeled corpus (Sec. III-C).

        Returns the best parameters; subsequent :meth:`fit_initial` calls
        use them.
        """
        X = self._features(runs, None, gather=True)
        y = np.asarray(labels)
        selector = SelectKBest(k=self.config.n_features).fit(X, y)
        X = selector.transform(X)
        proto = build_model(self.config.model, {}, random_state=self.config.random_state)
        search = GridSearchCV(proto, table4_grid(self.config.model), cv=cv)
        search.fit(X, y)
        import dataclasses

        self.config = dataclasses.replace(
            self.config, model_params=dict(search.best_params_)
        )
        self._seed_model = None  # fit under the old params
        return search.best_params_

    def learn(
        self,
        pool_runs: Sequence[RunRecord],
        pool_labels: Sequence[str],
        validation_runs: Sequence[RunRecord],
        validation_labels: Sequence[str],
        pool_apps: Sequence[str] | None = None,
    ) -> ALResult:
        """Fig. 1 steps 2–4: the query loop, up to the stopping criterion.

        ``pool_labels`` stands in for the human annotator: labels are
        revealed one at a time, only for queried samples.
        """
        if self.model is None or self._X_seed is None:
            raise RuntimeError("call fit_initial first")
        X_pool = self._featurize(pool_runs, gather=True)
        X_val = self._featurize(validation_runs, gather=True)
        seed_model = self._seed_model
        result = run_active_learning(
            build_model(
                self.config.model,
                self.config.resolved_model_params(),
                random_state=self.config.random_state,
            ),
            get_strategy(self.config.query_strategy),
            self._X_seed,
            self._y_seed,
            X_pool,
            np.asarray(pool_labels),
            X_val,
            np.asarray(validation_labels),
            n_queries=self.config.max_queries,
            target_f1=self.config.target_f1,
            pool_apps=None if pool_apps is None else np.asarray(pool_apps),
            warm_start="auto" if self.config.warm_start else False,
            refresh_fraction=self.config.refresh_fraction,
            random_state=self.config.random_state,
            seed_model=seed_model,
        )
        self._seed_model = None
        taught = result.oracle.history
        # adopt the final model, fit on seed + every queried sample: the
        # loop's last cold refit already is that fit, and with no query
        # fit_initial's model is (unless tune changed the params since);
        # binned and warm refits are not, so those learns fit it here
        if result.model is not None:
            self.model = result.model
        elif taught or seed_model is None:
            X_final, y_final = self._X_seed, self._y_seed
            if taught:
                X_final = np.vstack([X_final, X_pool[[r.pool_index for r in taught]]])
                y_final = np.concatenate([y_final, [r.label for r in taught]])
            self.model = build_model(
                self.config.model,
                self.config.resolved_model_params(),
                random_state=self.config.random_state,
            )
            self.model.fit(X_final, y_final)
        self._train_rows = None
        return result

    def featurize(self, runs: Sequence[RunRecord] | RunCorpus) -> np.ndarray:
        """Map raw runs through the fitted extractor→scaler→selector stack.

        The serving engine uses this to featurize a coalesced micro-batch
        once, then score it with :meth:`predict_features` in a single
        vectorized model call. Record lists route through the run-batched
        corpus path inside the extractor, so coalescing buys one kernel
        pass over the whole micro-batch — extraction throughput scales
        with batch size instead of paying per-run dispatch overhead B
        times. Accepts a pre-packed
        :class:`~repro.telemetry.corpus.RunCorpus` too.
        """
        return self._featurize(runs)

    def predict_features(self, X: np.ndarray) -> list[Diagnosis]:
        """Diagnose already-featurized samples (one model call for all rows)."""
        if self.model is None:
            raise RuntimeError("framework is not trained")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        proba = self.model.predict_proba(X)
        best = np.argmax(proba, axis=1)
        return [
            Diagnosis(label=str(self.model.classes_[b]), confidence=float(p[b]))
            for b, p in zip(best, proba)
        ]

    def diagnose(self, runs: Sequence[RunRecord]) -> list[Diagnosis]:
        """Deployment-time diagnosis: label + confidence for each run.

        Extracts and scales only what the model reads: for a forest, the
        selected features its trees split on (``split_features_``). The
        other columns of the k-wide matrix are zero-filled, since no tree
        compares them, so the diagnoses are bit-identical to
        ``predict_features(featurize(runs))``. Other models, and a forest
        that never split, read all k features and take that path. The
        read set is derived from the fitted model on every call, so warm
        refits, hot swaps and older pickles need nothing invalidated.
        """
        if self.model is None:
            raise RuntimeError("framework is not trained")
        read = getattr(self.model, "split_features_", None)
        if self.selector is None or read is None or not len(read):
            return self.predict_features(self._featurize(runs))
        support = self.selector.support_
        X = np.zeros((len(runs), len(support)))
        X[:, read] = self._features(runs, support[read])
        return self.predict_features(X)

    def absorb(
        self,
        runs: Sequence[RunRecord],
        labels: Sequence[str],
        warm: bool | None = None,
    ) -> "ALBADross":
        """Fold newly annotated runs into the labeled set and refit.

        This is the online continuation of the paper's loop: samples the
        serving path escalated to the annotator come back here, grow the
        seed matrix, and produce the model the registry publishes as the
        next version.

        ``warm`` selects the incremental path (``None`` defers to
        ``config.warm_start``): when the current model supports ``refit``
        and was trained on the binned path, the new rows fold into the
        existing forest instead of rebuilding it — the seeded schedule
        regrows ``config.refresh_fraction`` of the trees. Falls back to
        a cold rebuild otherwise. ``last_absorb_warm`` records which path
        actually ran (the serving stats read it).
        """
        if self.model is None or self._X_seed is None:
            raise RuntimeError("call fit_initial first")
        if len(runs) != len(labels):
            raise ValueError("runs / labels length mismatch")
        if not runs:
            return self
        if warm is None:
            warm = self.config.warm_start
        X_new = self._featurize(runs)
        y_new = np.asarray(labels)
        self._seed_model = None
        self._X_seed = np.vstack([self._X_seed, X_new])
        self._y_seed = np.concatenate([self._y_seed, y_new])
        if (
            warm
            and hasattr(self.model, "refit")
            and getattr(self.model, "binned_dataset_", None) is not None
        ):
            self.model.refit(
                X_new, y_new, refresh_fraction=self.config.refresh_fraction
            )
            self.last_absorb_warm = True
            return self
        self.model = build_model(
            self.config.model,
            self.config.resolved_model_params(),
            random_state=self.config.random_state,
        )
        self.model.fit(self._X_seed, self._y_seed)
        self.last_absorb_warm = False
        return self

"""Pool-based active learner (modAL's ``ActiveLearner`` stand-in).

Wraps any :mod:`repro.mlcore` classifier with the query/teach cycle of
Fig. 1: ``query`` asks the strategy for the most informative unlabeled
sample, ``teach`` appends the newly labeled sample and re-trains the model
on the grown labeled set (the paper re-trains incrementally rather than
from scratch; for our estimators a refit on the grown set is the exact
equivalent and stays cheap at experiment scale).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..mlcore.base import BaseEstimator, check_random_state, check_X_y, clone
from .strategies import StrategyFn, get_strategy

__all__ = ["ActiveLearner"]


class ActiveLearner:
    """A classifier plus a query strategy over an unlabeled pool.

    Parameters
    ----------
    estimator:
        Prototype classifier; a clone is (re)fit on every ``teach``.
    query_strategy:
        Strategy name (``"uncertainty"`` / ``"margin"`` / ``"entropy"``) or
        a callable ``(model, X_pool, rng) -> int``.
    X_initial, y_initial:
        The labeled seed set — in the paper, one sample per
        (application, anomaly) pair.
    refit_every:
        Re-train after every ``refit_every`` teaches (1 = paper behaviour).
    clone_fn:
        How to produce a fresh model for each refit. Defaults to
        :func:`repro.mlcore.base.clone`; Proctor passes
        :func:`repro.active.baselines.clone_with_representation` so the
        pretrained autoencoder survives refits.
    binner:
        Optional fitted :class:`repro.mlcore.binning.Binner`. When given,
        the learner keeps a growable :class:`BinnedDataset` of code rows
        alongside the labeled samples and refits via the estimator's
        ``fit_binned`` — re-training on a grown labeled set then costs an
        amortized O(1) code append instead of a fresh quantization (the
        cross-refit bin cache).
    initial_codes:
        Pre-binned codes for ``X_initial`` (skips one ``transform`` when
        the caller binned seed and pool together).
    warm_start:
        When true, refits go through the estimator's ``refit`` — trees
        survive across rounds, a seeded schedule regrows a
        ``refresh_fraction`` subset, kept trees absorb the new rows into
        their leaf counts. Requires the bin cache and a ``refit``-capable
        estimator. The :class:`RefitReport` of the latest warm refit is
        exposed via :meth:`take_refit_report` for delta pool scoring.
    refresh_fraction:
        Fraction of trees regrown per warm refit (``1.0`` is bit-exact
        to a cold refit on the stacked data).
    initial_model:
        A model already fit by the call the seed fit would make,
        ``clone_fn(estimator).fit(X_initial, y_initial)``; it becomes the
        first :attr:`model` instead of a second, identical fit. Only the
        plain ``fit`` path takes one (no ``binner``), and since cold
        refits replace :attr:`model` with a fresh clone, the learner never
        mutates it.
    """

    def __init__(
        self,
        estimator: BaseEstimator,
        query_strategy: str | StrategyFn,
        X_initial: np.ndarray,
        y_initial: np.ndarray,
        refit_every: int = 1,
        random_state: int | np.random.Generator | None = None,
        clone_fn: Callable[[BaseEstimator], BaseEstimator] = clone,
        binner=None,
        initial_codes: np.ndarray | None = None,
        warm_start: bool = False,
        refresh_fraction: float = 0.25,
        initial_model: BaseEstimator | None = None,
    ):
        if refit_every < 1:
            raise ValueError(f"refit_every must be >= 1, got {refit_every}")
        X_initial, y_initial = check_X_y(X_initial, y_initial)
        self._strategy: StrategyFn = (
            get_strategy(query_strategy)
            if isinstance(query_strategy, str)
            else query_strategy
        )
        self._rng = check_random_state(random_state)
        self._prototype = estimator
        self._clone_fn = clone_fn
        self.refit_every = refit_every
        self._X = [row for row in X_initial]
        self._y = list(y_initial)
        self._y_initial = y_initial
        self._binner = binner
        self._binned = None
        if binner is not None:
            if not hasattr(estimator, "fit_binned"):
                raise TypeError(
                    f"{type(estimator).__name__} has no fit_binned; "
                    "the bin cache needs a binned-training estimator"
                )
            if initial_codes is None:
                initial_codes = binner.transform(X_initial)
            from ..mlcore.binning import BinnedDataset

            self._binned = BinnedDataset(
                np.ascontiguousarray(np.asarray(initial_codes, dtype=np.uint8)),
                binner,
            )
        if warm_start:
            if binner is None:
                raise TypeError("warm_start needs the bin cache (binner=...)")
            if not hasattr(estimator, "refit"):
                raise TypeError(
                    f"{type(estimator).__name__} has no refit; "
                    "warm_start needs a warm-refittable estimator"
                )
            if not 0.0 < refresh_fraction <= 1.0:
                raise ValueError(
                    f"refresh_fraction must be in (0, 1], got {refresh_fraction}"
                )
        self.warm_start = warm_start
        self.refresh_fraction = refresh_fraction
        # rows taught since the last warm refit: (x, y, code_row) triples
        self._pending_warm: list[tuple[np.ndarray, object, np.ndarray]] = []
        self._last_report = None
        self._pending = 0
        if initial_model is None:
            self.model = clone_fn(estimator)
            self._fit_model()
        elif binner is not None:
            raise ValueError("initial_model needs the plain fit path, not the bin cache")
        else:
            self.model = initial_model

    def _fit_model(self) -> None:
        if self._binned is not None:
            self.model.fit_binned(self._binned, self.y_labeled)
        else:
            self.model.fit(self.X_labeled, self.y_labeled)

    # ------------------------------------------------------------------
    @property
    def X_labeled(self) -> np.ndarray:
        """Current labeled feature matrix (seed + taught samples)."""
        return np.vstack(self._X)

    @property
    def y_labeled(self) -> np.ndarray:
        """Current labeled targets.

        Once samples are taught this is ``np.concatenate([y_initial,
        taught])`` — the array a caller stacking the seed labels and the
        taught labels builds, down to its dtype — so a model refit here is
        interchangeable with that caller's own fit.
        """
        taught = self._y[len(self._y_initial) :]
        if not taught:
            return np.asarray(self._y)
        return np.concatenate([self._y_initial, taught])

    @property
    def n_labeled(self) -> int:
        """Number of labeled samples the model has seen."""
        return len(self._y)

    def query(self, X_pool: np.ndarray) -> int:
        """Index (into ``X_pool``) of the next sample to label."""
        if len(X_pool) == 0:
            raise ValueError("cannot query an empty pool")
        return self._strategy(self.model, X_pool, self._rng)

    def teach(
        self, x: np.ndarray, y: object, codes: np.ndarray | None = None
    ) -> "ActiveLearner":
        """Add one labeled sample and re-train (respecting ``refit_every``).

        ``codes`` is the sample's pre-binned row when the caller already
        holds it (the AL loop bins the whole pool up front); without it a
        cache-enabled learner bins the single new row — still O(log bins)
        per feature, never a re-quantization of the labeled set.
        """
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.shape[0] != self._X[0].shape[0]:
            raise ValueError(
                f"sample has {x.shape[0]} features, expected {self._X[0].shape[0]}"
            )
        self._X.append(x)
        self._y.append(y)
        if self._binned is not None:
            if codes is None:
                codes = self._binner.transform(x[None, :])[0]
            codes = np.asarray(codes, dtype=np.uint8).ravel()
            if self.warm_start:
                # the forest owns dataset growth inside refit; only stash
                # the row until the next warm refit folds it in
                self._pending_warm.append((x, y, codes))
            else:
                self._binned = self._binned.append_codes(codes[None, :])
        self._pending += 1
        if self._pending >= self.refit_every:
            self._refit()
        return self

    def _refit(self) -> None:
        if self.warm_start:
            self._last_report = self.model.refit(
                np.vstack([p[0] for p in self._pending_warm]),
                np.asarray([p[1] for p in self._pending_warm]),
                codes=np.vstack([p[2] for p in self._pending_warm]),
                refresh_fraction=self.refresh_fraction,
            )
            self._binned = self.model.binned_dataset_
            self._pending_warm.clear()
        else:
            self.model = self._clone_fn(self._prototype)
            self._fit_model()
            self._last_report = None
        self._pending = 0

    def flush(self) -> None:
        """Force a refit if any taught samples are pending."""
        if self._pending:
            self._refit()

    def take_refit_report(self):
        """Pop the :class:`RefitReport` of the latest warm refit (or None).

        Consumed by the AL loop's delta pool scorer; a cold refit (or no
        refit since the last call) yields ``None``.
        """
        report, self._last_report = self._last_report, None
        return report

    # convenience passthroughs -----------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict with the current model."""
        return self.model.predict(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities from the current model."""
        return self.model.predict_proba(X)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy of the current model."""
        return self.model.score(X, y)


# re-export for type hints in user code
QueryStrategy = Callable[[BaseEstimator, np.ndarray, np.random.Generator | None], int]

"""Tests for the cross-refit bin cache in the active-learning loop."""

import numpy as np
import pytest

from repro.active.learner import ActiveLearner
from repro.active.loop import run_active_learning
from repro.mlcore.binning import Binner
from repro.mlcore.forest import RandomForestClassifier


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(0)
    n, f = 260, 10
    X = rng.normal(size=(n, f))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int) + (X[:, 2] > 1.2)
    return (
        X[:24], y[:24],  # seed
        X[24:180], y[24:180],  # pool
        X[180:], y[180:],  # test
    )


def _hist_rf(**kw):
    kw.setdefault("n_estimators", 10)
    kw.setdefault("max_depth", 6)
    kw.setdefault("splitter", "hist")
    kw.setdefault("random_state", 3)
    return RandomForestClassifier(**kw)


class TestLoopBinCache:
    def test_auto_enables_for_hist_and_is_deterministic(self, problem):
        Xs, ys, Xp, yp, Xt, yt = problem
        kw = dict(n_queries=12, random_state=5)
        r1 = run_active_learning(_hist_rf(), "uncertainty", Xs, ys, Xp, yp, Xt, yt, **kw)
        r2 = run_active_learning(_hist_rf(), "uncertainty", Xs, ys, Xp, yp, Xt, yt, **kw)
        assert r1.queried_labels == r2.queried_labels
        assert np.array_equal(r1.f1, r2.f1)


class TestLearnerBinCache:
    def test_teach_appends_cached_codes(self, problem):
        Xs, ys, Xp, yp, _, _ = problem
        binner = Binner(64)
        codes_all = binner.fit_transform(np.vstack([Xs, Xp]))
        learner = ActiveLearner(
            _hist_rf(), "uncertainty", Xs, ys,
            random_state=0, binner=binner, initial_codes=codes_all[: len(Xs)],
        )
        learner.teach(Xp[4], yp[4], codes=codes_all[len(Xs) + 4])
        assert learner.n_labeled == len(Xs) + 1
        assert np.array_equal(learner._binned.codes[-1], codes_all[len(Xs) + 4])

    def test_teach_bins_row_when_codes_missing(self, problem):
        Xs, ys, Xp, yp, _, _ = problem
        binner = Binner(64)
        binner.fit(np.vstack([Xs, Xp]))
        learner = ActiveLearner(
            _hist_rf(), "uncertainty", Xs, ys, random_state=0, binner=binner
        )
        learner.teach(Xp[0], yp[0])
        assert np.array_equal(
            learner._binned.codes[-1], binner.transform(Xp[0][None, :])[0]
        )

    def test_rejects_estimator_without_fit_binned(self, problem):
        Xs, ys, Xp, _, _, _ = problem
        from repro.mlcore.linear import LogisticRegression

        binner = Binner(64).fit(np.vstack([Xs, Xp]))
        with pytest.raises(TypeError, match="fit_binned"):
            ActiveLearner(
                LogisticRegression(), "uncertainty", Xs, ys, binner=binner
            )

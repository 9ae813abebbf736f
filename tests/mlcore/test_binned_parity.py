"""Exact-vs-binned parity and determinism suite.

Parity between ``splitter="exact"`` and ``splitter="hist"`` is only
guaranteed when every feature's distinct-value count fits inside
``max_bins`` — then the binner places an edge at *every* midpoint between
adjacent distinct values and both splitters see the same candidate set
(see docs/mlcore.md). The fixtures here construct exactly that regime.
"""

import numpy as np
import pytest

from repro.mlcore.binning import Binner
from repro.mlcore.forest import RandomForestClassifier
from repro.mlcore.tree import DecisionTreeClassifier


def _low_cardinality_problem(seed=0, n=300, f=8, levels=40):
    """Classification data whose per-feature cardinality is <= levels."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, f)).astype(float) / 7.0
    y = (X[:, 0] + X[:, 1] - X[:, 2] > X[:, 3]).astype(int) + (X[:, 4] > 3.0)
    return X, y


class TestTreeParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("max_depth", [None, 6])
    def test_training_set_predictions_match(self, seed, criterion, max_depth):
        X, y = _low_cardinality_problem(seed)
        kw = dict(criterion=criterion, max_depth=max_depth, random_state=0)
        exact = DecisionTreeClassifier(splitter="exact", **kw).fit(X, y)
        hist = DecisionTreeClassifier(splitter="hist", max_bins=64, **kw).fit(X, y)
        assert np.array_equal(exact.predict(X), hist.predict(X))

    def test_importances_match(self):
        X, y = _low_cardinality_problem(3)
        exact = DecisionTreeClassifier(random_state=0).fit(X, y)
        hist = DecisionTreeClassifier(
            splitter="hist", max_bins=64, random_state=0
        ).fit(X, y)
        assert np.allclose(
            exact.feature_importances_, hist.feature_importances_, atol=1e-12
        )


class TestForestParity:
    def test_training_set_predictions_match(self):
        # deterministic trees only: feature subsampling consumes the tree
        # RNG in growth order (depth-first vs level-wise differ), and
        # bootstrap duplicates empty some bins so score-*tied* cuts can
        # resolve to a different feature. Without those two, the forest
        # pipeline (binning, shared codes, stacked predict) must agree
        # with exact bit-for-bit.
        X, y = _low_cardinality_problem(1)
        kw = dict(
            n_estimators=5,
            max_depth=8,
            max_features=None,
            bootstrap=False,
            random_state=7,
        )
        exact = RandomForestClassifier(splitter="exact", **kw).fit(X, y)
        hist = RandomForestClassifier(splitter="hist", max_bins=64, **kw).fit(X, y)
        assert np.allclose(exact.predict_proba(X), hist.predict_proba(X))

    def test_bootstrap_predictions_close(self):
        # with bootstrap on, ties may resolve differently (see above) but
        # the ensembles must still agree on almost every training sample
        X, y = _low_cardinality_problem(1)
        kw = dict(n_estimators=20, max_depth=8, random_state=7)
        exact = RandomForestClassifier(splitter="exact", **kw).fit(X, y)
        hist = RandomForestClassifier(splitter="hist", max_bins=64, **kw).fit(X, y)
        agree = (exact.predict(X) == hist.predict(X)).mean()
        assert agree >= 0.97

    def test_hist_accuracy_close_on_continuous_data(self):
        # continuous features exceed max_bins: parity no longer holds,
        # but quantization must not cost real accuracy
        rng = np.random.default_rng(5)
        X = rng.normal(size=(600, 10))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        tr, te = slice(0, 400), slice(400, None)
        kw = dict(n_estimators=30, max_depth=8, random_state=0)
        acc_e = RandomForestClassifier(**kw).fit(X[tr], y[tr]).score(X[te], y[te])
        acc_h = (
            RandomForestClassifier(splitter="hist", **kw)
            .fit(X[tr], y[tr])
            .score(X[te], y[te])
        )
        assert abs(acc_e - acc_h) < 0.05

    def test_fit_binned_equals_fit(self):
        X, y = _low_cardinality_problem(2)
        kw = dict(n_estimators=10, splitter="hist", max_bins=32, random_state=3)
        via_fit = RandomForestClassifier(**kw).fit(X, y)
        ds = Binner(32).fit_dataset(X)
        via_binned = RandomForestClassifier(**kw).fit_binned(ds, y)
        assert np.array_equal(via_fit.predict_proba(X), via_binned.predict_proba(X))

    def test_fit_binned_requires_hist(self):
        X, y = _low_cardinality_problem(0, n=60)
        ds = Binner(32).fit_dataset(X)
        with pytest.raises(ValueError, match="splitter='hist'"):
            RandomForestClassifier(splitter="exact").fit_binned(ds, y)


class TestForestDeterminism:
    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    def test_bit_identical_across_n_jobs(self, splitter):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(200, 6))
        y = (X[:, 0] > 0).astype(int)
        probas = []
        for n_jobs in (1, 2, 4):
            m = RandomForestClassifier(
                n_estimators=8,
                max_depth=6,
                splitter=splitter,
                n_jobs=n_jobs,
                random_state=42,
            ).fit(X, y)
            probas.append(m.predict_proba(X))
        assert np.array_equal(probas[0], probas[1])
        assert np.array_equal(probas[0], probas[2])

    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    def test_bit_identical_forced_process_backend(self, splitter, fan_out):
        """The shared-memory transport must not move a single bit.

        A fit this small stays in-process on its own, so force the
        process pool: workers attach the code matrices (hist) or the
        rank matrix and its value table (exact) from ``/dev/shm`` and
        every segment must be gone afterwards.
        """
        from repro.parallel import active_segments

        before = set(active_segments())
        rng = np.random.default_rng(11)
        X = rng.normal(size=(200, 6))
        y = (X[:, 0] > 0).astype(int)
        probas = []
        for n_jobs in (1, 2, 4):
            m = RandomForestClassifier(
                n_estimators=8,
                max_depth=6,
                splitter=splitter,
                n_jobs=n_jobs,
                random_state=42,
            ).fit(X, y)
            probas.append(m.predict_proba(X))
        assert np.array_equal(probas[0], probas[1])
        assert np.array_equal(probas[0], probas[2])
        assert set(active_segments()) == before

    def test_stacked_predict_matches_per_tree_average(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(150, 5))
        y = rng.integers(0, 3, size=150)
        m = RandomForestClassifier(n_estimators=12, random_state=0).fit(X, y)
        manual = np.zeros((len(X), len(m.classes_)))
        for tree, cmap in zip(m.estimators_, m._tree_class_maps):
            manual[:, cmap] += tree.predict_proba(X)
        manual /= len(m.estimators_)
        assert np.allclose(m.predict_proba(X), manual, atol=1e-12)

"""Tests for the random forest classifier."""

import numpy as np
import pytest

from repro.mlcore.forest import RandomForestClassifier


class TestFit:
    def test_learns_blobs(self, blobs):
        X, y = blobs
        rf = RandomForestClassifier(n_estimators=15, random_state=0).fit(X, y)
        assert rf.score(X, y) > 0.97

    def test_n_estimators_respected(self, blobs):
        X, y = blobs
        rf = RandomForestClassifier(n_estimators=7, random_state=0).fit(X, y)
        assert len(rf.estimators_) == 7

    def test_invalid_n_estimators(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError, match="n_estimators"):
            RandomForestClassifier(n_estimators=0).fit(X, y)

    def test_string_labels(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 1, (30, 4)), rng.normal(5, 1, (30, 4))])
        y = np.array(["healthy"] * 30 + ["membw"] * 30)
        rf = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert set(rf.predict(X)) <= {"healthy", "membw"}
        assert rf.score(X, y) == 1.0

    def test_no_bootstrap_mode(self, blobs):
        X, y = blobs
        rf = RandomForestClassifier(
            n_estimators=5, bootstrap=False, random_state=0
        ).fit(X, y)
        assert rf.score(X, y) > 0.97


class TestProba:
    def test_rows_sum_to_one(self, blobs):
        X, y = blobs
        rf = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        proba = rf.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert proba.shape == (len(y), 4)

    def test_columns_follow_classes_order(self, blobs):
        X, y = blobs
        rf = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        proba = rf.predict_proba(X[:20])
        hard = rf.classes_[np.argmax(proba, axis=1)]
        assert np.array_equal(hard, rf.predict(X[:20]))

    def test_probabilities_softer_than_single_tree(self, blobs):
        """Averaging makes the ensemble's confidence less extreme on average."""
        X, y = blobs
        rng = np.random.default_rng(1)
        Xn = X + rng.normal(scale=2.0, size=X.shape)  # heavy overlap
        one = RandomForestClassifier(n_estimators=1, random_state=0).fit(Xn, y)
        many = RandomForestClassifier(n_estimators=40, random_state=0).fit(Xn, y)
        assert many.predict_proba(Xn).max(axis=1).mean() < one.predict_proba(
            Xn
        ).max(axis=1).mean()

    @pytest.mark.parametrize("width", [3, 12])
    def test_feature_count_mismatch_raises(self, width):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 8))
        y = (X[:, 0] > 0).astype(int)
        rf = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        with pytest.raises(ValueError, match=f"X has {width} features, expected 8"):
            rf.predict_proba(np.ones((2, width)))


class TestDeterminism:
    def test_same_seed_same_predictions(self, blobs):
        X, y = blobs
        p1 = RandomForestClassifier(n_estimators=8, random_state=3).fit(X, y).predict_proba(X)
        p2 = RandomForestClassifier(n_estimators=8, random_state=3).fit(X, y).predict_proba(X)
        assert np.array_equal(p1, p2)

    def test_different_seed_different_forest(self, blobs):
        X, y = blobs
        p1 = RandomForestClassifier(n_estimators=8, random_state=1).fit(X, y).predict_proba(X)
        p2 = RandomForestClassifier(n_estimators=8, random_state=2).fit(X, y).predict_proba(X)
        assert not np.array_equal(p1, p2)


class TestHyperparameters:
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_table4_criteria(self, blobs, criterion):
        X, y = blobs
        rf = RandomForestClassifier(
            n_estimators=8, criterion=criterion, random_state=0
        ).fit(X, y)
        assert rf.score(X, y) > 0.9

    @pytest.mark.parametrize("max_depth", [None, 4, 8])
    def test_table4_depths(self, blobs, max_depth):
        X, y = blobs
        rf = RandomForestClassifier(
            n_estimators=8, max_depth=max_depth, random_state=0
        ).fit(X, y)
        assert rf.score(X, y) > 0.85

    def test_rare_class_keeps_probability_mass(self):
        """Bootstrap retry keeps minority classes present in most trees."""
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 0.5, (95, 3)), rng.normal(6, 0.5, (5, 3))])
        y = np.array([0] * 95 + [1] * 5)
        rf = RandomForestClassifier(n_estimators=20, random_state=0).fit(X, y)
        minority_proba = rf.predict_proba(X[95:])[:, 1]
        assert minority_proba.mean() > 0.5

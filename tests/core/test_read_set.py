"""Read-set diagnosis: ``ALBADross.diagnose`` extracts only the selected
features its forest splits on and zero-fills the rest.

Every test holds ``diagnose`` to the k-wide path it replaces,
``predict_features(featurize(runs))``: the same labels and confidences,
and the same ``predict_proba`` bits from the matrix it builds. Forests
here are kept shallow so they split on far fewer than k features and
the narrowed path really narrows.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import ALBADross, build_model
from repro.mlcore.forest import RandomForestClassifier
from repro.serving.registry import ModelRegistry
from repro.serving.service import DiagnosisService
from repro.telemetry.catalog import build_catalog
from tests.core.test_pushdown import _records, _unnamed

_TRAIN_LENGTHS = [64, 80, 64, 96, 80, 64] * 3
_SHALLOW = {"n_estimators": 3, "max_depth": 2}


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(n_cores=1, n_nics=1, n_extra_cray=2)


@pytest.fixture(scope="module")
def train(catalog):
    return _records(catalog, _TRAIN_LENGTHS, seed=21)


def _fit(catalog, train, method="mvts", n_features=40, model_params=_SHALLOW, **config):
    fw = ALBADross(catalog, FrameworkConfig(
        feature_method=method, n_features=n_features,
        model_params=dict(model_params), random_state=0, **config,
    ))
    fw.fit_features(train)
    fw.fit_initial(train, [r.label for r in train])
    return fw


def _walked_split_features(forest):
    """Every internal node's feature, found by walking each tree from
    its root."""
    found = set()
    for tree in forest.estimators_:
        stack = [0]
        while stack:
            node = stack.pop()
            feature = int(tree.tree_feature_[node])
            if feature != -1:
                found.add(feature)
                stack += [int(tree.tree_left_[node]), int(tree.tree_right_[node])]
    return np.array(sorted(found), dtype=np.int64)


def _assert_parity(fw, runs, monkeypatch):
    """``diagnose(runs)`` against the k-wide path; returns the selected
    features it extracted."""
    wide = fw.featurize(runs)
    expected = fw.predict_features(wide)
    built, extracted = [], []
    real_predict, real_features = fw.predict_features, fw._features

    def predict_spy(X):
        built.append(X)
        return real_predict(X)

    def features_spy(runs, support, gather=False):
        extracted.append(support)
        return real_features(runs, support, gather)

    with monkeypatch.context() as m:
        m.setattr(fw, "predict_features", predict_spy)
        m.setattr(fw, "_features", features_spy)
        got = fw.diagnose(runs)
    assert got == expected  # labels and confidences, bit for bit
    (X,), (support,) = built, extracted
    assert X.shape == wide.shape
    read = np.searchsorted(fw.selector.support_, support)
    assert np.array_equal(fw.selector.support_[read], support)
    assert np.array_equal(X[:, read], wide[:, read])
    assert not np.delete(X, read, axis=1).any()
    assert np.array_equal(fw.model.predict_proba(X), fw.model.predict_proba(wide))
    return support


def _assert_narrowed(fw, runs, monkeypatch):
    support = _assert_parity(fw, runs, monkeypatch)
    split = fw.model.split_features_
    assert 0 < len(split) < len(fw.selector.support_)
    assert np.array_equal(support, fw.selector.support_[split])


class TestSplitFeatures:
    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    def test_matches_a_walk_of_every_tree(self, blobs, splitter):
        X, y = blobs
        forest = RandomForestClassifier(
            n_estimators=6, max_depth=3, splitter=splitter, random_state=0
        ).fit(X, y)
        split = forest.split_features_
        assert np.array_equal(split, _walked_split_features(forest))
        assert 0 < len(split) <= X.shape[1]

    def test_follows_a_warm_refit(self, blobs):
        X, y = blobs
        forest = RandomForestClassifier(
            n_estimators=6, max_depth=2, splitter="hist", random_state=0
        ).fit(X[:120], y[:120])
        forest.refit(X[120:], y[120:], refresh_fraction=0.5)
        assert np.array_equal(forest.split_features_, _walked_split_features(forest))

    def test_forest_of_leaves_splits_on_nothing(self, blobs):
        X, y = blobs
        forest = RandomForestClassifier(n_estimators=3, max_depth=0, random_state=0)
        forest.fit(X, y)
        assert forest.split_features_.size == 0
        assert _walked_split_features(forest).size == 0

    def test_unfitted_forest_has_none(self):
        assert getattr(RandomForestClassifier(), "split_features_", None) is None


class TestParity:
    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    def test_fitted_forest(self, catalog, train, method, splitter, monkeypatch):
        fw = _fit(catalog, train, method, splitter=splitter)
        runs = _records(catalog, [64, 96, 80, 64, 112], seed=22)
        _assert_narrowed(fw, runs, monkeypatch)
        # the cells narrow with the features
        plan = fw.extractor.plan
        read = fw.selector.support_[fw.model.split_features_]
        assert len(plan(read).columns) <= len(plan(fw.selector.support_).columns)

    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_supports(self, catalog, train, method, seed, monkeypatch):
        """Any k kept features, not just chi-square's: a forest refit on
        a random support still diagnoses bit for bit."""
        fw = _fit(catalog, train, method)
        rng = np.random.default_rng(seed)
        n_kept = fw.scaler.n_features_in_
        k = int(rng.integers(8, 40))
        fw.selector.support_ = np.sort(rng.choice(n_kept, size=k, replace=False))
        fw.model = build_model(
            "random_forest", dict(_SHALLOW, n_estimators=int(rng.integers(1, 4))),
            random_state=seed,
        ).fit(fw.featurize(train), [r.label for r in train])
        runs = _records(catalog, rng.choice([64, 80, 96], size=4).tolist(), seed=30 + seed)
        _assert_parity(fw, runs, monkeypatch)

    def test_one_split_feature(self, catalog, train, monkeypatch):
        fw = _fit(catalog, train, model_params={"n_estimators": 1, "max_depth": 1})
        assert len(fw.model.split_features_) == 1
        _assert_narrowed(fw, _records(catalog, [64, 96], seed=23), monkeypatch)

    def test_warm_refit_forest(self, catalog, train, monkeypatch):
        fw = _fit(catalog, train, splitter="hist", warm_start=True)
        before = fw.model.split_features_
        new = _records(catalog, [64, 96, 80, 64, 80, 96], seed=24)
        fw.absorb(new, [r.label for r in new], warm=True)
        assert fw.last_absorb_warm is True
        after = fw.model.split_features_
        assert np.array_equal(after, _walked_split_features(fw.model))
        assert not np.array_equal(before, after)  # the read set followed the refit
        _assert_narrowed(fw, _records(catalog, [64, 80, 96], seed=25), monkeypatch)

    def test_logistic_regression_reads_all_k(self, catalog, train, monkeypatch):
        fw = _fit(catalog, train, model="logistic_regression", model_params={})
        support = _assert_parity(fw, _records(catalog, [64, 96, 80], seed=26), monkeypatch)
        assert np.array_equal(support, fw.selector.support_)

    def test_forest_of_leaves_reads_all_k(self, catalog, train, monkeypatch):
        fw = _fit(catalog, train, model_params={"n_estimators": 2, "max_depth": 0})
        assert fw.model.split_features_.size == 0
        support = _assert_parity(fw, _records(catalog, [64, 80], seed=27), monkeypatch)
        assert np.array_equal(support, fw.selector.support_)

    def test_pickled_then_loaded(self, catalog, train, monkeypatch):
        fw = _fit(catalog, train, "tsfresh")
        loaded = pickle.loads(pickle.dumps(fw))
        runs = _records(catalog, [64, 96, 80], seed=28)
        _assert_narrowed(loaded, runs, monkeypatch)
        assert loaded.diagnose(runs) == fw.diagnose(runs)

    def test_diagnose_stores_nothing(self, catalog, train):
        fw = _fit(catalog, train)
        owners = (fw, fw.model, fw.selector, fw.scaler, fw.extractor)
        keys = [set(vars(o)) for o in owners]
        fw.diagnose(_records(catalog, [64], seed=29))
        assert keys == [set(vars(o)) for o in owners]

    def test_registry_hot_swap(self, catalog, train, tmp_path, monkeypatch):
        """Each published version diagnoses by its own forest's read set,
        and a hot-swapped service serves what that version diagnoses."""
        registry = ModelRegistry(tmp_path / "reg")
        first = _fit(catalog, train, splitter="hist", warm_start=True)
        v1 = registry.publish(first, tag="v1")
        second = pickle.loads(pickle.dumps(first))
        second.config = dataclasses.replace(second.config, random_state=5)
        new = _records(catalog, [64, 80, 96, 64], seed=31)
        second.absorb(new, [r.label for r in new], warm=False)
        v2 = registry.publish(second, tag="v2")
        runs = _records(catalog, [64, 96, 80, 64], seed=32)
        loaded = {}
        for version in (v1, v2):
            fw, _ = registry.load(version.version_id)
            _assert_narrowed(fw, runs, monkeypatch)
            loaded[version.version_id] = fw
        assert not np.array_equal(
            loaded[v1.version_id].model.split_features_,
            loaded[v2.version_id].model.split_features_,
        )
        with DiagnosisService(registry, max_linger_s=0.01, cache_size=0) as service:
            for version in (v1, v2, v1):
                service.swap(version.version_id)
                served = [service.submit(run).result(timeout=30.0) for run in runs]
                assert served == loaded[version.version_id].diagnose(runs)


class TestInputValidation:
    """A malformed run fails the narrowed path with the k-wide error."""

    @staticmethod
    def _message(fn, runs):
        with pytest.raises(ValueError) as info:
            fn(runs)
        return str(info.value)

    @pytest.fixture(scope="class")
    def fw(self, catalog, train):
        fw = _fit(catalog, train)
        assert 0 < len(fw.model.split_features_) < len(fw.selector.support_)
        return fw

    def _same_error(self, fw, runs, match):
        wide = self._message(lambda r: fw.predict_features(fw.featurize(r)), runs)
        assert self._message(fw.diagnose, runs) == wide
        assert match in wide

    def test_too_short_run(self, catalog, fw):
        self._same_error(fw, _records(catalog, [64, 7], seed=33), "too short")

    def test_wider_run(self, catalog, fw):
        run = _records(catalog, [64], seed=34)[0]
        wide = _unnamed(run, np.hstack([run.data, run.data[:, :1]]))
        self._same_error(fw, [wide], "column mismatch")

    def test_narrower_run(self, catalog, fw):
        run = _records(catalog, [64], seed=35)[0]
        self._same_error(fw, [_unnamed(run, run.data[:, :-1])], "column mismatch")

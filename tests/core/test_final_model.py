"""``ALBADross.learn`` fits no forest twice.

The loop's last cold refit is already a fit on the seed plus every queried
sample, so ``learn`` adopts it as its model; the adopted model must be
byte-for-byte the forest a fresh final fit gives, inside a pickled
framework too. Binned and warm-start learns keep their own final fit.
Likewise the learner starts from ``fit_initial``'s model instead of fitting
the same seed forest again, with the same queries and predictions as a
learner that fits its own, and without ever mutating that model. A learn
that makes no query keeps ``fit_initial``'s model as its final one.
"""

import pickle

import numpy as np
import pytest

from repro.active.learner import ActiveLearner
from repro.core.config import FrameworkConfig
from repro.core.framework import ALBADross, build_model
from repro.mlcore.binning import Binner
from repro.mlcore.forest import RandomForestClassifier
from tests.core.test_extract_once import _records


@pytest.fixture(scope="module")
def catalog():
    from repro.telemetry.catalog import build_catalog

    return build_catalog(n_cores=1, n_nics=1, n_extra_cray=2)


@pytest.fixture(scope="module")
def split(catalog):
    runs = _records(catalog, 36, seed=11)
    return runs[:6], runs[6:24], runs[24:30]


def _learn(catalog, split, monkeypatch, adopt_seed=True, **config):
    seed, pool, val = split
    fw = ALBADross(catalog, FrameworkConfig(
        feature_method="mvts", n_features=12, max_queries=5,
        model_params={"n_estimators": 5}, random_state=0, **config,
    ))
    fw.fit_features(seed + pool)
    fw.fit_initial(seed, [r.label for r in seed])
    if not adopt_seed:
        # what absorb() leaves behind: the learner fits its own seed model
        fw._seed_model = None
    fits = []
    inner = RandomForestClassifier.fit

    def counting_fit(self, X, y):
        fits.append(len(y))
        return inner(self, X, y)

    monkeypatch.setattr(RandomForestClassifier, "fit", counting_fit)
    X_pool = fw._featurize(pool, gather=True)
    result = fw.learn(pool, [r.label for r in pool], val, [r.label for r in val])
    monkeypatch.undo()
    return fw, result, fits, X_pool


def _fresh_final(fw, result, X_pool):
    taught = [r.pool_index for r in result.oracle.history]
    X = np.vstack([fw._X_seed, X_pool[taught]])
    y = np.concatenate([fw._y_seed, [r.label for r in result.oracle.history]])
    model = build_model(
        fw.config.model, fw.config.resolved_model_params(),
        random_state=fw.config.random_state,
    )
    return model.fit(X, y)


def test_exact_learn_fits_once_per_round(catalog, split, monkeypatch):
    fw, result, fits, X_pool = _learn(catalog, split, monkeypatch)
    n_queries = len(result.oracle.history)
    # one refit per query: the learner adopts fit_initial's seed forest,
    # and learn adopts the last refit as its final model
    assert fits == [len(fw._y_seed) + q for q in range(1, n_queries + 1)]
    assert fw.model is result.model
    fresh = _fresh_final(fw, result, X_pool)
    assert pickle.dumps(fw.model) == pickle.dumps(fresh)
    adopted = pickle.dumps(fw)
    fw.model = fresh
    assert adopted == pickle.dumps(fw)


def test_hist_learn_keeps_its_final_fit(catalog, split, monkeypatch):
    fw, result, fits, X_pool = _learn(catalog, split, monkeypatch, splitter="hist")
    assert result.model is None
    # binned refits go through fit_binned; the final fit is a plain fit
    assert fits == [len(fw._y_seed) + len(result.oracle.history)]
    assert pickle.dumps(fw.model) == pickle.dumps(_fresh_final(fw, result, X_pool))


def test_adopted_seed_model_changes_no_bit(catalog, split, monkeypatch):
    _, _, val = split
    runs = {}
    for adopt in (True, False):
        fw, result, fits, _ = _learn(catalog, split, monkeypatch, adopt_seed=adopt)
        X_val = fw._featurize(val)
        runs[adopt] = (
            [(q.pool_index, q.label) for q in result.oracle.history],
            result.f1.tolist(),
            fw.model.predict(X_val).tolist(),
            fw.model.predict_proba(X_val).tobytes(),
            pickle.dumps(fw),
            len(fits),
        )
    (*adopted, n_adopted), (*refit, n_refit) = runs[True], runs[False]
    assert adopted == refit
    assert n_adopted == n_refit - 1


@pytest.mark.parametrize("config", [{}, {"splitter": "hist", "warm_start": True}])
def test_learn_leaves_the_seed_model_intact(catalog, split, monkeypatch, config):
    seed, pool, val = split
    fw = ALBADross(catalog, FrameworkConfig(
        feature_method="mvts", n_features=12, max_queries=5,
        model_params={"n_estimators": 5}, random_state=0, **config,
    ))
    fw.fit_features(seed + pool)
    fw.fit_initial(seed, [r.label for r in seed])
    seed_model = fw.model
    before = pickle.dumps(seed_model)
    fw.learn(pool, [r.label for r in pool], val, [r.label for r in val])
    assert fw.model is not seed_model
    assert pickle.dumps(seed_model) == before


@pytest.mark.parametrize(
    "stop", [{"max_queries": 0}, {"target_f1": 0.01}], ids=["no-budget", "target-met"]
)
@pytest.mark.parametrize("config", [{}, {"splitter": "hist"}], ids=["exact", "hist"])
def test_learn_without_a_query_keeps_the_seed_model(
    catalog, split, monkeypatch, stop, config
):
    seed, pool, val = split
    fw = ALBADross(catalog, FrameworkConfig(
        feature_method="mvts", n_features=12, model_params={"n_estimators": 5},
        random_state=0, **stop, **config,
    ))
    fw.fit_features(seed + pool)
    fw.fit_initial(seed, [r.label for r in seed])
    seed_model = fw.model
    before = pickle.dumps(seed_model)
    fits = []
    inner = RandomForestClassifier.fit

    def counting_fit(self, X, y):
        fits.append(len(y))
        return inner(self, X, y)

    monkeypatch.setattr(RandomForestClassifier, "fit", counting_fit)
    result = fw.learn(pool, [r.label for r in pool], val, [r.label for r in val])
    monkeypatch.undo()
    assert result.oracle.history == []
    assert fw.model is seed_model
    assert fw.model.classes_.dtype == fw._y_seed.dtype
    assert pickle.dumps(fw.model) == before
    if not config:  # the plain-fit learner adopts the seed model: no fit at all
        assert fits == []


def test_learn_without_a_query_after_tune_refits_on_the_seed(catalog, split):
    """``tune`` changes the params, so fit_initial's model is stale: the
    final model is a fresh fit on the seed rows, with their label dtype."""
    seed, pool, val = split
    fw = ALBADross(catalog, FrameworkConfig(
        feature_method="mvts", n_features=12, max_queries=0,
        model_params={"n_estimators": 5}, random_state=0,
    ))
    fw.fit_features(seed + pool)
    fw.fit_initial(seed, [r.label for r in seed])
    stale = fw.model
    fw._seed_model = None  # what tune() leaves behind
    fw.learn(pool, [r.label for r in pool], val, [r.label for r in val])
    assert fw.model is not stale
    assert fw.model.classes_.dtype == fw._y_seed.dtype


def test_learner_takes_an_initial_model_only_on_the_plain_fit_path():
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(12, 4)), np.array(["a", "b", "c"] * 4)
    seed = RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y)
    learner = ActiveLearner(
        RandomForestClassifier(n_estimators=3, random_state=0), "uncertainty", X, y,
        initial_model=seed,
    )
    assert learner.model is seed
    learner.teach(X[0], "a")
    assert learner.model is not seed
    with pytest.raises(ValueError, match="plain fit path"):
        ActiveLearner(
            RandomForestClassifier(n_estimators=3, random_state=0, splitter="hist"),
            "uncertainty", X, y, binner=Binner().fit(X), initial_model=seed,
        )

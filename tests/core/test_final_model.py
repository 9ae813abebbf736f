"""``ALBADross.learn`` adopts the loop's last cold refit as its model.

That refit is already a fit on the seed plus every queried sample, so
``learn`` no longer fits the same forest a second time. The adopted model
must be byte-for-byte the forest a fresh final fit gives, inside a pickled
framework too. Binned and warm-start learns keep their own final fit.
"""

import pickle

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import ALBADross, build_model
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


def _learn(catalog, split, monkeypatch, **config):
    seed, pool, val = split
    fw = ALBADross(catalog, FrameworkConfig(
        feature_method="mvts", n_features=12, max_queries=5,
        model_params={"n_estimators": 5}, random_state=0, **config,
    ))
    fw.fit_features(seed + pool)
    fw.fit_initial(seed, [r.label for r in seed])
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
    # the learner's seed fit, then one refit per query — no final refit
    assert len(fits) == 1 + n_queries
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

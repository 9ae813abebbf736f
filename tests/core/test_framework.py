"""End-to-end tests for the ALBADross framework."""

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import ALBADross, Diagnosis, build_model, table4_grid
from repro.datasets.generate import generate_runs


@pytest.fixture(scope="module")
def campaign(tiny_config):
    """Runs partitioned into seed / pool / test the way the paper does."""
    runs = generate_runs(tiny_config, rng=0)
    rng = np.random.default_rng(1)
    seed_runs, pool_runs, test_runs = [], [], []
    seen_pairs = set()
    order = rng.permutation(len(runs))
    for i in order:
        run = runs[i]
        key = (run.app, run.label)
        if run.label != "healthy" and key not in seen_pairs:
            seen_pairs.add(key)
            seed_runs.append(run)
        elif rng.random() < 0.35:
            test_runs.append(run)
        else:
            pool_runs.append(run)
    return seed_runs, pool_runs, test_runs


@pytest.fixture(scope="module")
def trained(tiny_config, campaign):
    seed_runs, pool_runs, test_runs = campaign
    cfg = FrameworkConfig(
        n_features=60,
        model="random_forest",
        model_params={"n_estimators": 10},
        max_queries=12,
        random_state=0,
    )
    fw = ALBADross(tiny_config.catalog, cfg)
    fw.fit_features(seed_runs + pool_runs)
    fw.fit_initial(seed_runs, [r.label for r in seed_runs])
    result = fw.learn(
        pool_runs,
        [r.label for r in pool_runs],
        test_runs,
        [r.label for r in test_runs],
    )
    return fw, result, test_runs


class TestBuildModel:
    def test_all_families_instantiable(self):
        for name in ("random_forest", "lgbm", "logistic_regression", "mlp"):
            model = build_model(name, {}, random_state=0)
            assert hasattr(model, "fit")

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("svm", {})


class TestTable4Grid:
    def test_grids_match_paper(self):
        rf = table4_grid("random_forest")
        assert rf["n_estimators"] == [8, 10, 20, 100, 200]
        assert rf["max_depth"] == [None, 4, 8, 10, 20]
        lgbm = table4_grid("lgbm")
        assert lgbm["num_leaves"] == [2, 8, 31, 128]
        lr = table4_grid("logistic_regression")
        assert lr["C"] == [0.001, 0.01, 0.1, 1.0, 10.0]
        mlp = table4_grid("mlp")
        assert (50, 100, 50) in mlp["hidden_layer_sizes"]

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown model"):
            table4_grid("svm")


class TestLifecycle:
    def test_fit_order_enforced(self, tiny_config, campaign):
        seed_runs, pool_runs, test_runs = campaign
        fw = ALBADross(tiny_config.catalog, FrameworkConfig(n_features=20))
        with pytest.raises(RuntimeError, match="fit_features"):
            fw.fit_initial(seed_runs, [r.label for r in seed_runs])
        with pytest.raises(RuntimeError, match="fit_initial"):
            fw.fit_features(seed_runs).learn(
                pool_runs, [r.label for r in pool_runs],
                test_runs, [r.label for r in test_runs],
            )

    def test_seed_label_mismatch(self, tiny_config, campaign):
        seed_runs, _, _ = campaign
        fw = ALBADross(tiny_config.catalog, FrameworkConfig(n_features=20))
        fw.fit_features(seed_runs)
        with pytest.raises(ValueError, match="mismatch"):
            fw.fit_initial(seed_runs, ["healthy"])

    def test_learn_improves_or_holds_f1(self, trained):
        _, result, _ = trained
        assert result.final_f1 >= result.initial_f1 - 0.05

    def test_learn_respects_budget(self, trained):
        _, result, _ = trained
        assert result.oracle.n_queries <= 12

    def test_diagnose_returns_confident_labels(self, trained):
        fw, _, test_runs = trained
        diagnoses = fw.diagnose(test_runs[:5])
        assert len(diagnoses) == 5
        for d in diagnoses:
            assert isinstance(d, Diagnosis)
            assert 0.0 <= d.confidence <= 1.0
            assert isinstance(d.label, str)

    def test_predict_features_rejects_a_mis_shaped_matrix(self, trained):
        fw, _, test_runs = trained
        X = fw.featurize(test_runs[:3])
        k = X.shape[1]
        for bad in (X[:, : k - 1], np.hstack([X, X[:, :4]])):
            with pytest.raises(
                ValueError, match=f"X has {bad.shape[1]} features, expected {k}"
            ):
                fw.predict_features(bad)

    def test_diagnose_untrained_raises(self, tiny_config):
        fw = ALBADross(tiny_config.catalog)
        with pytest.raises(RuntimeError, match="not trained"):
            fw.diagnose([])

    def test_final_model_includes_queried_classes(self, trained):
        fw, result, _ = trained
        if any(lbl == "healthy" for lbl in result.queried_labels):
            assert "healthy" in fw.model.classes_


class TestTune:
    def test_tune_picks_from_grid_and_updates_config(self, tiny_config, campaign):
        seed_runs, pool_runs, _ = campaign
        fw = ALBADross(
            tiny_config.catalog,
            FrameworkConfig(n_features=30, model="logistic_regression"),
        )
        corpus = seed_runs + pool_runs
        fw.fit_features(corpus)
        best = fw.tune(corpus[:40], [r.label for r in corpus[:40]], cv=3)
        assert best["C"] in table4_grid("logistic_regression")["C"]
        assert fw.config.model_params == best

"""Tests for the run_active_learning experiment driver."""

import numpy as np
import pytest

from repro.active.baselines import EqualAppSelector, ProctorModel, RandomSelector
from repro.active.loop import queries_to_reach, run_active_learning
from repro.mlcore.forest import RandomForestClassifier
from repro.mlcore.linear import LogisticRegression


@pytest.fixture(scope="module")
def problem():
    """A 3-class problem: seed covers 2 classes, pool/test have all 3."""
    rng = np.random.default_rng(0)
    centers = {"healthy": (0, 0), "membw": (5, 5), "dial": (-5, 5)}
    def sample(label, n):
        cx, cy = centers[label]
        return np.column_stack([rng.normal(cx, 0.7, n), rng.normal(cy, 0.7, n)])
    X_seed = np.vstack([sample("membw", 3), sample("dial", 3)])
    y_seed = np.array(["membw"] * 3 + ["dial"] * 3)
    labels = ["healthy"] * 60 + ["membw"] * 8 + ["dial"] * 8
    X_pool = np.vstack([sample(l, 1) for l in labels])
    y_pool = np.array(labels)
    apps = np.array(["CG", "BT"] * 38)
    test_labels = ["healthy"] * 30 + ["membw"] * 10 + ["dial"] * 10
    X_test = np.vstack([sample(l, 1) for l in test_labels])
    y_test = np.array(test_labels)
    return X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test


def _rf():
    return RandomForestClassifier(n_estimators=10, random_state=0)


class TestCurves:
    def test_curve_alignment(self, problem):
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        res = run_active_learning(
            _rf(), "uncertainty", X_seed, y_seed, X_pool, y_pool, X_test, y_test,
            n_queries=10, pool_apps=apps, random_state=0,
        )
        assert len(res.f1) == len(res.n_labeled) == len(res.far) == len(res.amr) == 11
        assert res.n_labeled[0] == 6
        assert res.n_labeled[-1] == 16

    def test_initial_far_is_high_without_healthy_seed(self, problem):
        """No healthy seeds → the model cannot predict healthy → FAR = 1."""
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        res = run_active_learning(
            _rf(), "uncertainty", X_seed, y_seed, X_pool, y_pool, X_test, y_test,
            n_queries=0, random_state=0,
        )
        assert res.far[0] == 1.0

    def test_uncertainty_learns_the_held_out_class(self, problem):
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        res = run_active_learning(
            _rf(), "uncertainty", X_seed, y_seed, X_pool, y_pool, X_test, y_test,
            n_queries=30, random_state=0,
        )
        assert res.final_f1 > 0.9
        assert res.far[-1] < 0.2

    def test_eval_every_thins_curve(self, problem):
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        res = run_active_learning(
            _rf(), "uncertainty", X_seed, y_seed, X_pool, y_pool, X_test, y_test,
            n_queries=10, eval_every=5, random_state=0,
        )
        assert list(res.n_labeled) == [6, 11, 16]

    def test_target_f1_stops_early(self, problem):
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        res = run_active_learning(
            _rf(), "uncertainty", X_seed, y_seed, X_pool, y_pool, X_test, y_test,
            n_queries=60, target_f1=0.8, random_state=0,
        )
        assert res.oracle.n_queries < 60
        assert res.final_f1 >= 0.8

    def test_budget_bounded_by_pool(self, problem):
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        res = run_active_learning(
            _rf(), "uncertainty", X_seed, y_seed, X_pool[:5], y_pool[:5],
            X_test, y_test, n_queries=50, random_state=0,
        )
        assert res.oracle.n_queries == 5

    def test_no_sample_queried_twice(self, problem):
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        res = run_active_learning(
            _rf(), "uncertainty", X_seed, y_seed, X_pool, y_pool, X_test, y_test,
            n_queries=40, random_state=0,
        )
        indices = [r.pool_index for r in res.oracle.history]
        assert len(indices) == len(set(indices))


class TestBaselinesInLoop:
    def test_random_baseline_runs(self, problem):
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        res = run_active_learning(
            _rf(), RandomSelector(), X_seed, y_seed, X_pool, y_pool, X_test, y_test,
            n_queries=15, random_state=0,
        )
        assert res.oracle.n_queries == 15

    def test_equal_app_baseline_runs(self, problem):
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        res = run_active_learning(
            _rf(), EqualAppSelector(apps), X_seed, y_seed, X_pool, y_pool,
            X_test, y_test, n_queries=15, pool_apps=apps, random_state=0,
        )
        assert res.oracle.n_queries == 15
        # round-robin should alternate CG/BT queries evenly
        counts = res.oracle.app_counts()
        assert abs(counts["CG"] - counts["BT"]) <= 1

    def test_proctor_pretrains_on_pool(self, problem):
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        Xs = (X_seed - X_pool.min(0)) / (X_pool.max(0) - X_pool.min(0) + 1e-9)
        Xp = (X_pool - X_pool.min(0)) / (X_pool.max(0) - X_pool.min(0) + 1e-9)
        Xt = (X_test - X_pool.min(0)) / (X_pool.max(0) - X_pool.min(0) + 1e-9)
        proctor = ProctorModel(code_size=2, ae_epochs=15, random_state=0)
        res = run_active_learning(
            proctor, RandomSelector(), Xs, y_seed, Xp, y_pool, Xt, y_test,
            n_queries=5, random_state=0,
        )
        assert hasattr(proctor, "autoencoder_")
        assert res.oracle.n_queries == 5


class TestQueriesToReach:
    def test_already_passed(self, problem):
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        res = run_active_learning(
            _rf(), "uncertainty", X_seed, y_seed, X_pool, y_pool, X_test, y_test,
            n_queries=30, random_state=0,
        )
        assert queries_to_reach(res, 0.0) == 0

    def test_never_reached(self, problem):
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        res = run_active_learning(
            _rf(), "uncertainty", X_seed, y_seed, X_pool, y_pool, X_test, y_test,
            n_queries=2, random_state=0,
        )
        # a target strictly above the best F1 the run achieved is, by
        # definition, never reached — robust to how fast the model learns
        unreachable = float(res.f1.max()) + 1e-6
        assert queries_to_reach(res, unreachable) is None

    def test_counts_additional_samples(self, problem):
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        res = run_active_learning(
            _rf(), "uncertainty", X_seed, y_seed, X_pool, y_pool, X_test, y_test,
            n_queries=30, random_state=0,
        )
        n = queries_to_reach(res, 0.85)
        assert n is not None and 0 < n <= 30


class TestValidation:
    def test_pool_length_mismatch(self, problem):
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        with pytest.raises(ValueError, match="length mismatch"):
            run_active_learning(
                _rf(), "uncertainty", X_seed, y_seed, X_pool, y_pool[:-3],
                X_test, y_test,
            )

    def test_bad_eval_every(self, problem):
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        with pytest.raises(ValueError, match="eval_every"):
            run_active_learning(
                _rf(), "uncertainty", X_seed, y_seed, X_pool, y_pool,
                X_test, y_test, eval_every=0,
            )

    def test_reproducibility(self, problem):
        X_seed, y_seed, X_pool, y_pool, apps, X_test, y_test = problem
        kwargs = dict(n_queries=10, random_state=77)
        r1 = run_active_learning(_rf(), "margin", X_seed, y_seed, X_pool, y_pool, X_test, y_test, **kwargs)
        r2 = run_active_learning(_rf(), "margin", X_seed, y_seed, X_pool, y_pool, X_test, y_test, **kwargs)
        assert np.array_equal(r1.f1, r2.f1)
        assert [a.pool_index for a in r1.oracle.history] == [a.pool_index for a in r2.oracle.history]


class TestFinalModel:
    """``ALResult.model``: the final model, when it is a plain cold fit."""

    def _run(self, problem, est, n_queries=6, **kw):
        X_seed, y_seed, X_pool, y_pool, _, X_test, y_test = problem
        return run_active_learning(
            est, "uncertainty", X_seed, y_seed, X_pool, y_pool, X_test, y_test,
            n_queries=n_queries, random_state=0, **kw,
        )

    def test_cold_refits_return_the_seed_plus_taught_fit(self, problem):
        import pickle

        X_seed, y_seed, X_pool, _, _, _, _ = problem
        res = self._run(problem, _rf())
        assert res.model is not None
        taught = [r.pool_index for r in res.oracle.history]
        y_final = np.concatenate([y_seed, [r.label for r in res.oracle.history]])
        fresh = _rf().fit(np.vstack([X_seed, X_pool[taught]]), y_final)
        assert pickle.dumps(res.model) == pickle.dumps(fresh)

    def test_no_query_returns_none(self, problem):
        assert self._run(problem, _rf(), n_queries=0).model is None

    def test_binned_and_warm_refits_return_none(self, problem):
        hist = RandomForestClassifier(n_estimators=10, splitter="hist", random_state=0)
        assert self._run(problem, hist).model is None
        assert self._run(problem, hist, warm_start=True).model is None

    def test_shared_representation_returns_none(self, problem):
        proctor = ProctorModel(code_size=2, hidden_layer_sizes=(4,), ae_epochs=2, random_state=0)
        assert self._run(problem, proctor, n_queries=2).model is None

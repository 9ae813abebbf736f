"""Tests for the experiment runner and aggregation."""

import numpy as np
import pytest

from repro.active.loop import ALResult
from repro.active.oracle import Oracle
from repro.datasets.splits import PreparedSplit, make_standard_split, prepare
from repro.experiments.runner import (
    ALL_METHODS,
    ExperimentResult,
    aggregate,
    run_methods,
)


def _fake_result(f1_curve, start_n=10):
    n = len(f1_curve)
    return ALResult(
        n_labeled=np.arange(start_n, start_n + n),
        f1=np.asarray(f1_curve, dtype=float),
        far=np.linspace(0.5, 0.0, n),
        amr=np.linspace(0.1, 0.2, n),
        oracle=Oracle(y_true=np.array(["healthy"])),
    )


class TestAggregate:
    def test_mean_curves(self):
        stats = aggregate([_fake_result([0.5, 0.7]), _fake_result([0.7, 0.9])])
        assert np.allclose(stats.f1_mean, [0.6, 0.8])
        assert stats.n_splits == 2

    def test_truncates_to_shortest(self):
        stats = aggregate([_fake_result([0.5, 0.6, 0.7]), _fake_result([0.5, 0.6])])
        assert len(stats.f1_mean) == 2

    def test_single_split_has_zero_ci(self):
        stats = aggregate([_fake_result([0.5, 0.6])])
        assert np.all(stats.f1_ci == 0)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no results"):
            aggregate([])

    def test_f1_at_checkpoint(self):
        stats = aggregate([_fake_result([0.5, 0.6, 0.7], start_n=10)])
        assert stats.f1_at(0) == 0.5
        assert stats.f1_at(2) == 0.7


class TestExperimentResult:
    def test_queries_to_reach_on_mean_curve(self):
        result = ExperimentResult(
            runs={"uncertainty": [_fake_result([0.5, 0.8, 0.9])]}
        )
        assert result.queries_to_reach("uncertainty", 0.8) == 1
        assert result.queries_to_reach("uncertainty", 0.99) is None

    def test_per_split_counts(self):
        result = ExperimentResult(
            runs={"m": [_fake_result([0.5, 0.9]), _fake_result([0.9, 0.9])]}
        )
        assert result.per_split_queries_to_reach("m", 0.9) == [1, 0]


class TestRunMethods:
    @pytest.fixture(scope="class")
    def prep(self, volta_mini) -> PreparedSplit:
        _, ds, _ = volta_mini
        return prepare(make_standard_split(ds, rng=0), k_features=80)

    def test_all_methods_execute(self, prep):
        result = run_methods(
            [prep],
            methods=ALL_METHODS,
            n_queries=3,
            model_params={"n_estimators": 4},
            proctor_params={"ae_epochs": 2, "code_size": 4},
        )
        assert set(result.runs) == set(ALL_METHODS)
        for runs in result.runs.values():
            assert len(runs) == 1
            assert runs[0].oracle.n_queries == 3

    def test_unknown_method(self, prep):
        with pytest.raises(ValueError, match="unknown methods"):
            run_methods([prep], methods=("oracle",))

    def test_reproducible(self, prep):
        kwargs = dict(
            methods=("uncertainty",), n_queries=4,
            model_params={"n_estimators": 4}, base_seed=3,
        )
        a = run_methods([prep], **kwargs)
        b = run_methods([prep], **kwargs)
        assert np.array_equal(
            a.runs["uncertainty"][0].f1, b.runs["uncertainty"][0].f1
        )

    def test_multiple_splits_collected_in_order(self, volta_mini):
        _, ds, _ = volta_mini
        preps = [
            prepare(make_standard_split(ds, rng=r), k_features=80)
            for r in range(2)
        ]
        result = run_methods(
            preps, methods=("random",), n_queries=2,
            model_params={"n_estimators": 4},
        )
        assert len(result.runs["random"]) == 2


class TestRunMethodsFanOut:
    """The (method x split) grid gives the same curves and query logs
    whether it runs in-process or over the warm process pool."""

    def test_n_jobs_parity(self, volta_mini, fan_out):
        _, ds, _ = volta_mini
        preps = [
            prepare(make_standard_split(ds, rng=r), k_features=80)
            for r in range(2)
        ]
        kwargs = dict(
            methods=("uncertainty", "random"), n_queries=3,
            model_params={"n_estimators": 4}, base_seed=5,
        )
        serial = run_methods(preps, n_workers=1, **kwargs)
        fanned = run_methods(preps, n_workers=2, **kwargs)
        for method in kwargs["methods"]:
            assert len(fanned.runs[method]) == len(serial.runs[method]) == 2
            for a, b in zip(serial.runs[method], fanned.runs[method]):
                for curve in ("n_labeled", "f1", "far", "amr"):
                    assert np.array_equal(getattr(a, curve), getattr(b, curve))
                assert a.oracle.history == b.oracle.history
                assert a.queried_labels == b.queried_labels
                assert a.queried_apps == b.queried_apps

"""Ablation — annotator noise.

An extension study beyond the paper's evaluation: the paper assumes a
perfect annotator; here the oracle returns a wrong label with probability
p ∈ {0, 0.1, 0.3} and we measure how the uncertainty strategy's final F1
degrades — the deployment-risk number an operator would want.
"""

from __future__ import annotations

import pytest

from conftest import make_preps, write_artifact
from repro.active import run_active_learning
from repro.experiments import RF_PARAMS, format_table
from repro.mlcore import RandomForestClassifier

N_QUERIES = 60


def _model():
    return RandomForestClassifier(random_state=0, **RF_PARAMS)


@pytest.mark.benchmark(group="ablation")
def test_ablation_oracle_noise(benchmark):
    prep = make_preps("volta", method="mvts", n_splits=1)[0]

    def run():
        scores = {}
        for noise in (0.0, 0.1, 0.3):
            res = run_active_learning(
                _model(), "uncertainty",
                prep.X_seed, prep.y_seed,
                prep.X_pool, prep.y_pool,
                prep.X_test, prep.y_test,
                n_queries=N_QUERIES,
                oracle_noise=noise,
                random_state=0,
            )
            scores[noise] = res.final_f1
        return scores

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    write_artifact(
        "ablation_oracle_noise",
        format_table(
            ["annotator noise", "final F1"],
            [[f"{k:.0%}", f"{v:.3f}"] for k, v in scores.items()],
        ),
    )
    # heavy annotator noise must not *help*
    assert scores[0.3] <= scores[0.0] + 0.03

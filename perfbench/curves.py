"""``al_eclipse``: the paper's learning-curve workload on prepared matrices.

An Eclipse MVTS corpus (scale 0.05, default 160 s runs) is featurized,
split and prepared (k=300) before timing. One repetition runs
``run_methods([prep], (method,), n_queries=30)`` for the uncertainty and
the random strategy in turn; ``train_s`` sums each strategy's fastest
time over the repetitions. The diagnoser the uncertainty curve ends with - the default
forest fit on the seed plus every queried sample - then scores the
held-out rows as one batch (``diagnose_rps``). It is fit with eight forest
seeds and every call scores with all eight: one forest's scoring speed
varies twofold with its seed, eight of them by a few percent.
``setup_s`` is the construction of that default forest. Repetitions run on
the same inputs until ``--seconds`` is spent and must reproduce the first
one's curves exactly. No feature extraction or serving happens while
timing, so a change to either should leave every number here unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from common import (
    Outcome, digest, fastest, highest, median, peak_rss_mb, span_metrics, time_per_call,
)

from repro.datasets.eclipse import eclipse_config
from repro.datasets.generate import build_dataset
from repro.datasets.splits import make_standard_split, prepare
from repro.experiments.runner import default_model_factory, run_methods

METHODS = ("uncertainty", "random")
K_FEATURES = 300
SETUP_GROUP = 1000
SETUP_SECONDS = 0.5
SETUP_SECONDS_PER_REP = 0.05
DIAGNOSERS = 8
# a call takes a few milliseconds; the held-out batch is small enough to
# stay in cache, so neighbours on a shared host barely move it
DIAGNOSE_CALLS = 50


@dataclass
class Sizes:
    healthy: int = 10
    anomalous: int = 4
    queries: int = 30


FULL = Sizes()
SMOKE = Sizes(healthy=4, anomalous=3, queries=4)


def run(seed: int, seconds: float, tracer, work_dir, smoke: bool) -> Outcome:
    sizes = SMOKE if smoke else FULL
    out = Outcome()
    system = eclipse_config(
        scale=0.05,
        n_healthy_per_app_input=sizes.healthy,
        n_anomalous_per_app_anomaly=sizes.anomalous,
    )
    dataset, _ = build_dataset(system, method="mvts", rng=seed)
    prep = prepare(
        make_standard_split(dataset, rng=np.random.default_rng([seed, 0])),
        k_features=K_FEATURES,
    )
    X_test = np.ascontiguousarray(prep.X_test)

    # one construction takes microseconds: time it in groups before the
    # first repetition and again before every one, and keep the fastest
    def construct():
        return default_model_factory(0)

    setups = time_per_call(construct, SETUP_GROUP, SETUP_SECONDS)

    steps, trains, rates, f1s, digests, walls = [], [], [], [], [], []
    traced_trains, untraced_trains = [], []
    trace = tracer is not None
    models = None
    start = time.perf_counter()
    rep = 0
    # odd repetitions of a traced run record spans, even ones do not; the
    # cold first repetition stays out of the overhead comparison
    while rep == 0 or (trace and rep < 3) or (
        time.perf_counter() - start + median(walls) / 2 <= seconds
    ):
        traced = trace and rep % 2 == 1
        setups += time_per_call(construct, SETUP_GROUP, SETUP_SECONDS_PER_REP)
        if trace:
            tracer.enabled = traced
        runs, step = {}, []
        t0 = time.perf_counter()
        for method in METHODS:
            t_step = time.perf_counter()
            runs.update(run_methods([prep], methods=(method,), n_queries=sizes.queries).runs)
            step.append(time.perf_counter() - t_step)
        t1 = time.perf_counter()
        steps.append(step)
        if trace:
            tracer.enabled = False  # the diagnose calls would swamp mlcore's spans
        curve = runs["uncertainty"][0]
        if models is None:
            # the curves are checked identical below, so are these models
            taught = [q.pool_index for q in curve.oracle.history]
            X_fit = np.vstack([prep.X_seed, prep.X_pool[taught]])
            y_fit = np.concatenate([prep.y_seed, [q.label for q in curve.oracle.history]])
            models = [default_model_factory(i).fit(X_fit, y_fit) for i in range(DIAGNOSERS)]
            one_by_one = np.hstack([
                np.vstack([m.predict_proba(row[None, :]) for row in X_test]) for m in models
            ])
        for _ in range(DIAGNOSE_CALLS):
            t2 = time.perf_counter()
            proba = np.hstack([m.predict_proba(X_test) for m in models])
            rates.append(DIAGNOSERS * len(X_test) / (time.perf_counter() - t2))
        trains.append(t1 - t0)
        if rep > 0:
            (traced_trains if traced else untraced_trains).append(t1 - t0)
        out.check(np.array_equal(proba, one_by_one),
                  "batched predict_proba differs from row-at-a-time scoring")
        out.attempted += sum(len(r.oracle.history) for method_runs in runs.values() for r in method_runs)
        out.attempted += DIAGNOSE_CALLS * DIAGNOSERS * len(X_test)
        f1s.append(float(curve.f1[-1]))
        digests.append(digest(
            *(
                (m, [(q.pool_index, q.label) for q in r.oracle.history], r.f1.tobytes())
                for m in METHODS for r in runs[m]
            ),
            proba,
        ))
        rep += 1
        walls.append(time.perf_counter() - t0)

    out.check(len(set(digests)) == 1, "repetitions on the same inputs disagree")
    out.check(len(curve.oracle.history) == min(sizes.queries, len(prep.X_pool)),
              "the uncertainty curve stopped before the query budget")
    out.digest = digests[0]
    out.samples = {"setup_s": setups, "train_s": trains, "diagnose_rps": rates, "steps": steps}
    out.e2e = {
        "setup_s": fastest(setups),
        "train_s": sum(fastest(step) for step in zip(*steps)),
        "diagnose_rps": highest(rates),
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        out.layer.update(span_metrics(tracer, per=len(traced_trains)))
        out.layer["features.kept_frac"] = K_FEATURES / dataset.X.shape[1]
        out.layer["quality.final_f1"] = f1s[0]
        out.layer["trace.overhead_frac"] = fastest(traced_trains) / fastest(untraced_trains) - 1.0
    return out

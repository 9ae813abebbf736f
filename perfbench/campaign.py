"""``campaign_volta``: the paper's training campaign through ``ALBADross``.

Volta corpus, TSFRESH features, scale 0.05 (76 metrics) at the library's
default run length for that scale (120 s). The split holds one seed run
per (app, label) plus pool / validation / held-out runs. One repetition
times ``fit_features`` -> ``fit_initial`` -> ``learn`` (RF 16 trees, depth
8, 16 queries), then ``diagnose`` on the held-out runs twice, five runs
per call.
Repetitions run on the same inputs until ``--seconds`` is spent; each must
reproduce the first one's query sequence and predictions exactly.
``train_s`` sums each of the three training steps' fastest time over the
repetitions, and ``diagnose_rps`` is the fastest diagnose call's rate (see
``common.fastest``): short calls are more likely to land in a quiet moment
of a shared host than long ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from common import (
    Outcome, diagnosis_key, digest, fastest, highest, median, peak_rss_mb, span_metrics,
    time_per_call,
)

from repro.core.config import FrameworkConfig
from repro.core.framework import ALBADross
from repro.datasets.generate import generate_runs
from repro.datasets.volta import volta_config
from repro.mlcore.metrics import f1_score

SETUP_GROUP = 10
SETUP_SECONDS = 0.5
SETUP_SECONDS_PER_REP = 0.25
DIAGNOSE_PASSES = 2
DIAGNOSE_BATCH = 5


@dataclass
class Sizes:
    healthy: int = 1
    anomalous: int = 2
    queries: int = 16


FULL = Sizes()
SMOKE = Sizes(queries=4)


def _split(runs, seed: int):
    """One seed run per (app, label); the rest shuffled into held-out (1/3),
    validation (1/6) and pool."""
    rng = np.random.default_rng([seed, 3])
    labels = np.array([r.label for r in runs])
    apps = np.array([r.app for r in runs])
    seed_idx = []
    for app in np.unique(apps):
        for label in np.unique(labels):
            members = np.flatnonzero((apps == app) & (labels == label))
            if len(members):
                seed_idx.append(int(rng.choice(members)))
    rest = np.setdiff1d(np.arange(len(runs)), seed_idx)
    rng.shuffle(rest)
    n = len(rest)
    test, val, pool = rest[: n // 3], rest[n // 3 : n // 2], rest[n // 2 :]
    pick = lambda idx: [runs[i] for i in idx]  # noqa: E731
    return pick(seed_idx), pick(pool), pick(val), pick(test)


def run(seed: int, seconds: float, tracer, work_dir, smoke: bool) -> Outcome:
    sizes = SMOKE if smoke else FULL
    out = Outcome()
    system = volta_config(
        scale=0.05,
        n_healthy_per_app_input=sizes.healthy,
        n_anomalous_per_app_anomaly=sizes.anomalous,
    )
    runs = generate_runs(system, rng=seed)
    seed_runs, pool, val, test = _split(runs, seed)
    config = FrameworkConfig(
        feature_method="tsfresh",
        model_params={"n_estimators": 16, "max_depth": 8},
        max_queries=sizes.queries,
    )
    y_test = np.array([r.label for r in test])

    # one construction takes about a millisecond, too short to time alone,
    # and the host has slow spells of seconds: sample it in groups before
    # the first repetition and again before every one, keep the fastest
    def construct() -> ALBADross:
        return ALBADross(system.catalog, config)

    setups = time_per_call(construct, SETUP_GROUP, SETUP_SECONDS)

    steps, trains, rates, f1s, digests, walls = [], [], [], [], [], []
    traced_trains, untraced_trains = [], []
    trace = tracer is not None
    start = time.perf_counter()
    rep = 0
    framework = None
    # in a traced run odd repetitions record spans, even ones do not, so the
    # traced/untraced ratio of train_s estimates the tracer's overhead; the
    # cold first repetition is left out of that comparison
    while rep == 0 or (trace and rep < 3) or (
        time.perf_counter() - start + median(walls) / 2 <= seconds
    ):
        traced = trace and rep % 2 == 1
        if trace:
            tracer.enabled = traced
        setups += time_per_call(construct, SETUP_GROUP, SETUP_SECONDS_PER_REP)
        framework = construct()
        t0 = time.perf_counter()
        framework.fit_features(seed_runs + pool)
        t_features = time.perf_counter()
        framework.fit_initial(seed_runs, [r.label for r in seed_runs])
        t_initial = time.perf_counter()
        result = framework.learn(pool, [r.label for r in pool], val, [r.label for r in val])
        t1 = time.perf_counter()
        steps.append((t_features - t0, t_initial - t_features, t1 - t_initial))
        for _ in range(DIAGNOSE_PASSES):
            batch = []
            for i in range(0, len(test), DIAGNOSE_BATCH):
                chunk = test[i : i + DIAGNOSE_BATCH]
                t2 = time.perf_counter()
                batch += framework.diagnose(chunk)
                rates.append(len(chunk) / (time.perf_counter() - t2))
        if trace:
            tracer.enabled = False
        trains.append(t1 - t0)
        if rep > 0:
            (traced_trains if traced else untraced_trains).append(t1 - t0)
        keys = [diagnosis_key(d) for d in batch]
        if rep == 0:
            whole = [diagnosis_key(d) for d in framework.diagnose(test)]
            out.check(keys == whole, "diagnosing in batches of five differs from one call")
        out.attempted += DIAGNOSE_PASSES * len(test)
        f1s.append(float(f1_score(y_test, np.array([d.label for d in batch]), average="macro")))
        digests.append(digest(
            [(q.pool_index, q.label) for q in result.oracle.history], keys,
        ))
        rep += 1
        walls.append(time.perf_counter() - t0)

    out.check(len(set(digests)) == 1, "repetitions on the same inputs disagree")
    out.check(len(result.oracle.history) == min(sizes.queries, len(pool)),
              "learn() stopped before the query budget")
    out.digest = digests[0]
    out.samples = {"setup_s": setups, "train_s": trains, "diagnose_rps": rates, "steps": steps}
    out.e2e = {
        "setup_s": fastest(setups),
        "train_s": sum(fastest(step) for step in zip(*steps)),
        "diagnose_rps": highest(rates),
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        n_traced = len(traced_trains)
        out.layer.update(span_metrics(tracer, per=n_traced))
        out.layer["features.kept_frac"] = (
            len(framework.selector.support_) / int(framework.extractor.keep_mask_.sum())
        )
        out.layer["quality.final_f1"] = f1s[0]
        out.layer["trace.overhead_frac"] = fastest(traced_trains) / fastest(untraced_trains) - 1.0
    return out

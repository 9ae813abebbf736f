"""Drift monitoring: flag a workload the diagnosis model never saw.

A deployed model keeps diagnosing while the job mix changes under it.
This example trains a diagnosis model on a Volta campaign over a familiar
application mix, then checks two streams of healthy runs against the
training distribution with :class:`repro.core.DriftMonitor`: one from the
familiar mix, which passes, and one from an application the model never
saw (FT, the paper's Fig. 7 scenario), which must raise the drift flag
before the bad diagnoses pile up.

    python examples/drift_monitoring.py
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from repro.apps import VOLTA_APPS
from repro.core import DriftMonitor
from repro.datasets import generate_runs, volta_config
from repro.features import FeatureExtractor
from repro.mlcore import (
    MinMaxScaler,
    RandomForestClassifier,
    classification_report,
    train_test_split,
)

TRAIN_APPS = ("CG", "BT", "MiniMD", "Kripke", "MG")


def _campaign(apps, n_healthy: int, n_anomalous: int, seed: int):
    """Runs of a small Volta campaign restricted to ``apps``."""
    config = volta_config(
        scale=0.03,
        n_healthy_per_app_input=n_healthy,
        n_anomalous_per_app_anomaly=n_anomalous,
        duration=180,
    )
    config = replace(config, apps={name: VOLTA_APPS[name] for name in apps})
    return config, generate_runs(config, rng=seed)


def _healthy(runs):
    return [r for r in runs if r.anomaly is None]


def main() -> None:
    config, runs = _campaign(TRAIN_APPS, n_healthy=5, n_anomalous=5, seed=4)
    print(f"collected {len(runs)} runs over {len(TRAIN_APPS)} applications")
    print(f"label mix: {dict(Counter(r.label for r in runs))}\n")

    extractor = FeatureExtractor(config.catalog, method="mvts")
    ds = extractor.fit_transform(runs)
    scaler = MinMaxScaler(clip=True)
    X = scaler.fit_transform(ds.X)
    Xtr, Xte, ytr, yte = train_test_split(X, ds.labels, test_size=0.3, random_state=0)
    model = RandomForestClassifier(n_estimators=24, max_depth=8, random_state=0)
    model.fit(Xtr, ytr)
    print("diagnosis on held-out runs:")
    print(classification_report(yte, model.predict(Xte)))

    # the reference is the held-out split: the model's confidence on its
    # own training rows would set a baseline no new window can meet
    monitor = DriftMonitor(model=model, drift_fraction_threshold=0.35).fit(Xte)
    _, familiar = _campaign(TRAIN_APPS, n_healthy=1, n_anomalous=1, seed=5)
    _, unseen_app = _campaign(("FT",), n_healthy=3, n_anomalous=1, seed=6)
    for name, stream in (
        ("familiar workload mix", _healthy(familiar)),
        ("unseen application (FT)", _healthy(unseen_app)),
    ):
        window = scaler.transform(extractor.transform(stream).X)
        print(f"\ndrift check, {name}: {monitor.check(window).summary()}")


if __name__ == "__main__":
    main()

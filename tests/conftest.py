"""Shared fixtures: small deterministic datasets reused across test modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import build_dataset, volta_config
from repro.datasets.generate import SystemConfig
from repro.apps.volta_apps import VOLTA_APPS
from repro.telemetry.catalog import build_catalog
from repro.telemetry.node import VOLTA_NODE


@pytest.fixture
def fan_out(monkeypatch):
    """Make ``repro.parallel.map_blocks`` use its process pool at n_jobs > 1.

    Test-sized work is far below the break-even that keeps work
    in-process, and a one-CPU affinity mask clamps the workers to one;
    this lowers the first and widens the second, so the shared-memory
    worker path runs at any size on any host.
    """
    from repro.parallel import executor

    monkeypatch.setattr(executor, "_ROUND_TRIP_S", -1.0)
    monkeypatch.setattr(executor, "effective_cpu_count", lambda: 4)


@pytest.fixture(scope="session")
def blobs():
    """A well-separated 4-class Gaussian-blob problem (n=240, m=12)."""
    rng = np.random.default_rng(42)
    centers = rng.normal(scale=4.0, size=(4, 12))
    X = np.vstack([c + rng.normal(scale=0.8, size=(60, 12)) for c in centers])
    y = np.repeat(np.arange(4), 60)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


@pytest.fixture(scope="session")
def tiny_config() -> SystemConfig:
    """A 3-app miniature campaign for fast end-to-end tests."""
    apps = {k: VOLTA_APPS[k] for k in ("CG", "BT", "Kripke")}
    return SystemConfig(
        name="tiny",
        apps=apps,
        catalog=build_catalog(n_cores=2, n_nics=1, n_extra_cray=4),
        node=VOLTA_NODE,
        intensities=(0.2, 1.0),
        duration=96,
        n_healthy_per_app_input=4,
        n_anomalous_per_app_anomaly=3,
    )


@pytest.fixture(scope="session")
def tiny_dataset(tiny_config):
    """Featurized miniature corpus (MVTS) plus its extractor."""
    return build_dataset(tiny_config, method="mvts", rng=7)


@pytest.fixture(scope="session")
def volta_mini():
    """A slightly larger Volta-shaped corpus for split/AL tests."""
    cfg = volta_config(
        scale=0.04,
        n_healthy_per_app_input=5,
        n_anomalous_per_app_anomaly=5,
        duration=120,
    )
    ds, ext = build_dataset(cfg, method="mvts", rng=3)
    return cfg, ds, ext

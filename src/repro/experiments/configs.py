"""Canonical bench-scale experiment configurations.

Every benchmark regenerating a paper artifact uses these shared settings so
the corpora are identical across benches (and the on-disk cache hits). The
scale is chosen for a single-core machine: each corpus builds in well under
a minute (MVTS) and every AL curve costs ~0.2 s per query. DESIGN.md §2
records why scaled corpora preserve the paper's qualitative shapes.
"""

from __future__ import annotations

from pathlib import Path

from ..datasets.eclipse import eclipse_config
from ..datasets.generate import SystemConfig, build_dataset
from ..datasets.volta import volta_config
from ..features.pipeline import FeatureDataset
from .cache import config_fingerprint, get_or_build

__all__ = [
    "CACHE_DIR",
    "OUT_DIR",
    "bench_volta_config",
    "bench_eclipse_config",
    "bench_dataset",
    "N_SPLITS",
    "N_QUERIES",
    "K_FEATURES",
    "RF_PARAMS",
    "SPLITTER",
    "N_JOBS",
    "WARM_START",
    "REFRESH_FRACTION",
]

# repository-level artifact locations
_REPO_ROOT = Path(__file__).resolve().parents[3]
CACHE_DIR = _REPO_ROOT / "benchmarks" / "_cache"
OUT_DIR = _REPO_ROOT / "benchmarks" / "out"

# bench-scale experiment knobs (paper values in comments)
N_SPLITS = 3  # paper: 5 repeated train/test splits
N_QUERIES = 120  # paper: up to 1000 queries, plots show 250
K_FEATURES = 300  # paper: 2000 of ~6k-99k features
RF_PARAMS = {"n_estimators": 16, "max_depth": 8, "criterion": "entropy"}

# tree-training performance knobs; the paper-faithful reference settings.
# Benches that only care about wall clock may flip SPLITTER to "hist"
# (histogram-binned split search) — results change only within quantization.
SPLITTER = "exact"
N_JOBS = 1
# incremental AL refits; reference benches keep the paper's cold refits.
# WARM_START needs SPLITTER = "hist"; REFRESH_FRACTION = 1.0 is bit-exact
# to cold refits, smaller fractions trade fidelity for refit cost.
WARM_START = False
REFRESH_FRACTION = 0.25


def bench_volta_config() -> SystemConfig:
    """The Volta campaign every Volta bench shares."""
    return volta_config(
        scale=0.05,
        n_healthy_per_app_input=14,
        n_anomalous_per_app_anomaly=9,
        duration=480,
    )


def bench_eclipse_config() -> SystemConfig:
    """The Eclipse campaign every Eclipse bench shares."""
    return eclipse_config(
        scale=0.05,
        n_healthy_per_app_input=14,
        n_anomalous_per_app_anomaly=9,
        duration=480,
    )


def bench_dataset(system: str, method: str = "mvts", rng: int = 0) -> FeatureDataset:
    """Cached featurized corpus for ``system`` ∈ {volta, eclipse}."""
    if system == "volta":
        cfg = bench_volta_config()
    elif system == "eclipse":
        cfg = bench_eclipse_config()
    else:
        raise ValueError(f"unknown system {system!r}")

    def build() -> FeatureDataset:
        ds, _ = build_dataset(cfg, method=method, rng=rng)
        return ds

    # content-addressed name: any change to the campaign description or
    # extractor method invalidates the entry automatically; a change to the
    # extractors' output bits bumps cache._FORMAT_VERSION
    key = config_fingerprint(cfg, method=method, seed=rng)
    return get_or_build(f"{system}-{method}-r{rng}-{key[:12]}", build, CACHE_DIR)

"""Shared benchmark fixtures and helpers.

Every bench regenerates one table or figure of the paper: it prints the
rows/series to stdout *and* writes them under ``benchmarks/out/`` so the
artifacts survive pytest's output capture. Datasets are cached on disk in
``benchmarks/_cache`` — the first bench to need a corpus builds it, the
rest load the snapshot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.splits import (
    PreparedSplit,
    make_standard_split,
    prepare,
)
from repro.experiments import K_FEATURES, OUT_DIR, bench_dataset


def make_preps(
    system: str,
    method: str = "mvts",
    n_splits: int = 3,
    k_features: int = K_FEATURES,
    split_kwargs: dict | None = None,
) -> list[PreparedSplit]:
    """Standard-split PreparedSplits for ``n_splits`` replicates."""
    ds = bench_dataset(system, method=method)
    return [
        prepare(
            make_standard_split(ds, rng=split_id, **(split_kwargs or {})),
            k_features=k_features,
        )
        for split_id in range(n_splits)
    ]


@pytest.fixture(autouse=True, scope="session")
def no_leaked_shm_segments():
    """Fail the bench session if shared-memory segments outlive it.

    The zero-copy data plane parks corpus buffers and code matrices in
    ``/dev/shm``; every owner must unlink on exit (normal, exception, or
    worker crash). A segment surviving the whole session is a leak —
    on a production HPC node it would eat tmpfs until reboot.
    """
    from repro.parallel import active_segments

    before = set(active_segments())
    yield
    leaked = sorted(set(active_segments()) - before)
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def write_artifact(name: str, text: str) -> None:
    """Print a bench artifact and persist it under benchmarks/out/."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")


@pytest.fixture(scope="session")
def volta_preps() -> list[PreparedSplit]:
    """Volta TSFRESH splits (the paper's winning Volta feature set)."""
    return make_preps("volta", method="tsfresh")


@pytest.fixture(scope="session")
def eclipse_preps() -> list[PreparedSplit]:
    """Eclipse MVTS splits (the paper's winning Eclipse feature set)."""
    return make_preps("eclipse", method="mvts")


def full_train_reference(prep: PreparedSplit, rf_params: dict) -> tuple[float, int]:
    """Table V reference: F1 of a model trained on the whole AL training set."""
    from repro.mlcore import RandomForestClassifier, f1_score

    X = np.vstack([prep.X_seed, prep.X_pool])
    y = np.concatenate([prep.y_seed, prep.y_pool])
    model = RandomForestClassifier(random_state=0, **rf_params).fit(X, y)
    return f1_score(prep.y_test, model.predict(prep.X_test)), len(y)

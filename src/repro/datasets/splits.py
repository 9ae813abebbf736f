"""Dataset splitting for the paper's experimental scenarios (Fig. 2, Sec. V).

Three split shapes:

* **standard** (Fig. 2): the corpus divides into a *test* dataset and an
  *active-learning training* dataset; the latter further divides into the
  labeled **seed** (one sample per (application, class) pair — healthy
  included by default, see ``_pick_seed`` for the paper-literal variant)
  and the unlabeled **pool**, rebalanced to the paper's 10% anomaly ratio.
* **app holdout** (Figs. 6/7): seed and pool contain only the chosen
  training applications; the test dataset contains only the held-out apps.
* **input holdout** (Fig. 8): seed and pool contain only runs of the first
  input deck; the test dataset contains the remaining decks.

``prepare`` then applies the paper's preprocessing *within* a split:
Min-Max scaling and chi-square top-k selection are fit on the AL training
portion (seed ∪ pool) and applied to everything — the test set stays
withheld, as Sec. IV-E2 requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features.pipeline import FeatureDataset
from ..mlcore.base import check_random_state
from ..mlcore.feature_selection import SelectKBest
from ..mlcore.preprocessing import MinMaxScaler

__all__ = [
    "SplitBundle",
    "PreparedSplit",
    "make_standard_split",
    "make_app_holdout_split",
    "make_input_holdout_split",
    "prepare",
]

HEALTHY = "healthy"


@dataclass
class SplitBundle:
    """Seed / pool / test datasets for one experiment replicate."""

    seed: FeatureDataset
    pool: FeatureDataset
    test: FeatureDataset

    @property
    def train(self) -> FeatureDataset:
        """Seed ∪ pool — the paper's "active learning training dataset"."""
        return FeatureDataset(
            X=np.vstack([self.seed.X, self.pool.X]),
            labels=np.concatenate([self.seed.labels, self.pool.labels]),
            apps=np.concatenate([self.seed.apps, self.pool.apps]),
            input_decks=np.concatenate([self.seed.input_decks, self.pool.input_decks]),
            intensities=np.concatenate([self.seed.intensities, self.pool.intensities]),
            node_counts=np.concatenate([self.seed.node_counts, self.pool.node_counts]),
            feature_names=self.seed.feature_names,
        )


@dataclass
class PreparedSplit:
    """A split after scaling + chi-square selection, ready for models."""

    X_seed: np.ndarray
    y_seed: np.ndarray
    X_pool: np.ndarray
    y_pool: np.ndarray
    pool_apps: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    scaler: MinMaxScaler
    selector: SelectKBest


def _pick_seed(
    ds: FeatureDataset,
    rng: np.random.Generator,
    candidate_mask: np.ndarray,
    include_healthy: bool = True,
) -> np.ndarray:
    """One sample per (application, class) pair from the candidates.

    The paper's Fig. 2 calls this "one sample from each application and
    anomaly pair". Read literally that excludes healthy seeds — but then
    the initial model could never predict *healthy*, capping the starting
    macro F1 far below the paper's reported 0.86/0.72, so by default we
    include one healthy sample per application as well (and expose the
    literal reading via ``include_healthy=False``; see EXPERIMENTS.md).
    """
    idx: list[int] = []
    labels = ds.labels
    apps = ds.apps
    for app in np.unique(apps[candidate_mask]):
        for label in np.unique(labels[candidate_mask]):
            if label == HEALTHY and not include_healthy:
                continue
            members = np.flatnonzero(
                candidate_mask & (apps == app) & (labels == label)
            )
            if len(members):
                idx.append(int(rng.choice(members)))
    if not idx:
        raise ValueError("no samples available for the seed set")
    return np.array(sorted(idx))


def _balance_pool(
    ds: FeatureDataset,
    pool_idx: np.ndarray,
    anomaly_ratio: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Subsample anomalous pool rows down to the target anomaly ratio."""
    labels = ds.labels[pool_idx]
    healthy_idx = pool_idx[labels == HEALTHY]
    anom_idx = pool_idx[labels != HEALTHY]
    if len(healthy_idx) == 0:
        raise ValueError("pool has no healthy samples; increase campaign size")
    # ratio = A / (A + H)  =>  A = H * ratio / (1 - ratio)
    target_anom = int(round(len(healthy_idx) * anomaly_ratio / (1.0 - anomaly_ratio)))
    target_anom = min(target_anom, len(anom_idx))
    if target_anom < len(anom_idx):
        # stratify the subsample over anomaly types so no class vanishes
        kept: list[int] = []
        anom_labels = ds.labels[anom_idx]
        types = np.unique(anom_labels)
        per_type = max(1, target_anom // len(types))
        for t in types:
            members = anom_idx[anom_labels == t]
            take = min(per_type, len(members))
            kept.extend(rng.choice(members, size=take, replace=False).tolist())
        anom_idx = np.array(sorted(kept))
    return np.sort(np.concatenate([healthy_idx, anom_idx]))


def make_standard_split(
    ds: FeatureDataset,
    rng: int | np.random.Generator | None = None,
    test_frac: float = 0.35,
    pool_anomaly_ratio: float = 0.10,
    seed_healthy: bool = True,
) -> SplitBundle:
    """The Fig. 2 split: stratified test carve-out, anomalous seed, 10% pool.

    Stratification is per (label, app) cell so the test set mirrors the
    corpus composition, matching the paper's stratified 5-repeat protocol.
    """
    if not 0.0 < test_frac < 1.0:
        raise ValueError(f"test_frac must be in (0, 1), got {test_frac}")
    rng = check_random_state(rng)
    n = len(ds)
    test_mask = np.zeros(n, dtype=bool)
    for app in np.unique(ds.apps):
        for label in np.unique(ds.labels):
            members = np.flatnonzero((ds.apps == app) & (ds.labels == label))
            if len(members) == 0:
                continue
            rng.shuffle(members)
            n_test = int(round(test_frac * len(members)))
            if len(members) >= 3:
                n_test = min(max(n_test, 1), len(members) - 2)
            test_mask[members[:n_test]] = True

    train_mask = ~test_mask
    seed_idx = _pick_seed(ds, rng, train_mask, include_healthy=seed_healthy)
    pool_candidates = np.flatnonzero(train_mask)
    pool_candidates = pool_candidates[~np.isin(pool_candidates, seed_idx)]
    pool_idx = _balance_pool(ds, pool_candidates, pool_anomaly_ratio, rng)
    return SplitBundle(
        seed=ds.subset(seed_idx),
        pool=ds.subset(pool_idx),
        test=ds.subset(np.flatnonzero(test_mask)),
    )


def make_app_holdout_split(
    ds: FeatureDataset,
    train_apps: list[str],
    rng: int | np.random.Generator | None = None,
    pool_anomaly_ratio: float = 0.10,
    seed_healthy: bool = True,
) -> SplitBundle:
    """Figs. 6/7: train on ``train_apps``, test on every other application."""
    rng = check_random_state(rng)
    train_apps_arr = np.asarray(train_apps)
    unknown = set(train_apps_arr) - set(ds.apps)
    if unknown:
        raise ValueError(f"apps not in dataset: {sorted(unknown)}")
    train_mask = np.isin(ds.apps, train_apps_arr)
    test_mask = ~train_mask
    if not test_mask.any():
        raise ValueError("no held-out applications left for the test set")
    seed_idx = _pick_seed(ds, rng, train_mask, include_healthy=seed_healthy)
    pool_candidates = np.flatnonzero(train_mask)
    pool_candidates = pool_candidates[~np.isin(pool_candidates, seed_idx)]
    pool_idx = _balance_pool(ds, pool_candidates, pool_anomaly_ratio, rng)
    return SplitBundle(
        seed=ds.subset(seed_idx),
        pool=ds.subset(pool_idx),
        test=ds.subset(np.flatnonzero(test_mask)),
    )


def make_input_holdout_split(
    ds: FeatureDataset,
    train_input: int = 0,
    rng: int | np.random.Generator | None = None,
    pool_anomaly_ratio: float = 0.10,
    seed_healthy: bool = True,
) -> SplitBundle:
    """Fig. 8: train on one input deck, test on all the others."""
    rng = check_random_state(rng)
    train_mask = ds.input_decks == train_input
    if not train_mask.any():
        raise ValueError(f"no runs with input deck {train_input}")
    test_mask = ~train_mask
    if not test_mask.any():
        raise ValueError("corpus has a single input deck; nothing to hold out")
    seed_idx = _pick_seed(ds, rng, train_mask, include_healthy=seed_healthy)
    pool_candidates = np.flatnonzero(train_mask)
    pool_candidates = pool_candidates[~np.isin(pool_candidates, seed_idx)]
    pool_idx = _balance_pool(ds, pool_candidates, pool_anomaly_ratio, rng)
    return SplitBundle(
        seed=ds.subset(seed_idx),
        pool=ds.subset(pool_idx),
        test=ds.subset(np.flatnonzero(test_mask)),
    )


def prepare(
    bundle: SplitBundle,
    k_features: int = 500,
) -> PreparedSplit:
    """Scale + select features within a split (test set withheld from fits).

    The Min-Max scaler and the chi-square selector are fit on the AL
    training portion (seed ∪ pool, using the pool's ground-truth labels —
    the same offline-calibration convention the paper uses when sweeping
    the feature count), then applied to seed, pool, and test alike.
    """
    train = bundle.train
    scaler = MinMaxScaler(clip=True).fit(train.X)
    scaled = scaler.transform(train.X)
    selector = SelectKBest(k=k_features).fit(scaled, train.labels)

    def _prep(X: np.ndarray) -> np.ndarray:
        return selector.transform(scaler.transform(X))

    return PreparedSplit(
        X_seed=_prep(bundle.seed.X),
        y_seed=bundle.seed.labels.copy(),
        X_pool=_prep(bundle.pool.X),
        y_pool=bundle.pool.labels.copy(),
        pool_apps=bundle.pool.apps.copy(),
        X_test=_prep(bundle.test.X),
        y_test=bundle.test.labels.copy(),
        scaler=scaler,
        selector=selector,
    )

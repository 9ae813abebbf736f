"""Random forest classifier — ALBADross's production model.

The paper trains a random forest for every headline experiment (Table V,
Figs. 3–8) with the Table IV grid: ``n_estimators`` ∈ {8, 10, 20, 100, 200},
``max_depth`` ∈ {None, 4, 8, 10, 20}, ``criterion`` ∈ {gini, entropy}.
Probability estimates (the average of per-tree leaf class frequencies) feed
the active-learning query strategies directly, so calibration-by-averaging
matters more here than in a plain accuracy setting.

Performance model: the active-learning loop refits a forest after every
query, so this class is the repo's hot path. Every fit grows its trees in
lockstep (:func:`repro.mlcore.tree._grow_lockstep`): one split search per
step scores the frontier nodes of every tree in a chunk at once — the
exact splitter sorts narrow integer keys of per-column value ranks,
computed once per fit, instead of argsorting floats per node. Three more
levers, all opt-in:

* ``splitter="hist"`` bins the matrix once (:class:`repro.mlcore.binning`)
  and grows every tree from shared ``uint8`` codes — nodes wider than
  ``max_bins`` rows are searched with an O(n) histogram instead of a
  sort, and bootstrap resamples are index views, never matrix copies.
* :meth:`fit_binned` accepts a pre-binned :class:`BinnedDataset`, letting
  callers (the AL loop) pay the binning cost once across many refits.
* ``n_jobs`` hands the tree seeds to :func:`repro.parallel.map_blocks`;
  each block of seeds grows its trees in lockstep, in-process or in a
  pool worker. When the fit fans out, the code matrices (bin codes, or
  ranks plus their rank → value table) cross into the workers through
  shared memory and each task carries only its seeds.

Every tree derives its own RNG stream from a seed drawn up front from the
root generator, and lockstep growth leaves each tree exactly as growing it
alone would, so seeded fits are bit-identical at any ``n_jobs``, for any
chunking and for either dispatch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..parallel import map_blocks
from .base import (
    BaseEstimator,
    ClassifierMixin,
    check_array,
    check_random_state,
    check_X_y,
)
from .binning import BinnedDataset, Binner
from .tree import _LEAF, DecisionTreeClassifier, _dense_ranks, _grow_lockstep

__all__ = ["RandomForestClassifier", "RefitReport", "DEFAULT_FOREST_BINS"]

# Forests average many shallow-ish trees, so per-tree threshold resolution
# matters less than for a single tree: 64 bins measures indistinguishable
# from 256 on the bench corpora while halving split-search work. Single
# trees and the GBM keep the finer 256-bin default.
DEFAULT_FOREST_BINS = 64

# Domain-separation tag for the replacement-schedule RNG: the schedule
# derives from tree 0's seed (itself drawn from the root generator), and
# the tag keeps its stream disjoint from every tree's fitting stream.
_SCHEDULE_TAG = 0x5C4ED


@dataclass(frozen=True)
class RefitReport:
    """What one warm :meth:`RandomForestClassifier.refit` round changed.

    The delta pool scorer consumes this to update only the affected
    per-tree contributions instead of re-scoring the pool through every
    tree: ``replaced`` trees were regrown whole (their column must be
    re-descended), kept trees changed only the listed leaves' class
    distributions, and ``classes_changed`` signals that the forest-wide
    class list grew (every scattered probability row changes width, so
    incremental patching is off the table for that round).
    """

    round_index: int
    n_new_rows: int
    replaced: np.ndarray  # tree positions regrown from the stacked data
    touched_leaves: list[tuple[int, np.ndarray]] = field(default_factory=list)
    classes_changed: bool = False


def _bootstrap_indices(
    rng: np.random.Generator, codes: np.ndarray, n_classes: int, n: int
) -> np.ndarray:
    """One bootstrap resample, retried a bounded number of times so every
    class stays represented (preserves per-class probability mass)."""
    idx = rng.integers(0, n, size=n)
    for _retry in range(8):
        if len(np.unique(codes[idx])) == n_classes:
            break
        idx = rng.integers(0, n, size=n)
    return idx


def _fit_tree_chunk(
    tree_params: dict,
    edges: list[np.ndarray] | None,
    n_classes: int,
    bootstrap: bool,
    seeds: np.ndarray,
    codes_mat: np.ndarray,
    codes_T: np.ndarray | None,
    values: np.ndarray | None,
    y: np.ndarray,
) -> list[DecisionTreeClassifier]:
    """Fit one tree per seed, in lockstep; the worker body of every fit.

    Each tree consumes only its own seed, so the result is independent of
    how seeds are grouped into blocks or which worker runs them.
    """
    n = len(y)
    trees, samples = [], []
    for seed in seeds:
        rng = np.random.default_rng(int(seed))
        samples.append(_bootstrap_indices(rng, y, n_classes, n) if bootstrap else None)
        trees.append(DecisionTreeClassifier(**tree_params, random_state=rng))
    _grow_lockstep(
        trees, codes_mat, y, samples, edges=edges, values=values, codes_T=codes_T
    )
    return trees


class RandomForestClassifier(BaseEstimator, ClassifierMixin):
    """Bagged ensemble of CART trees with feature subsampling.

    Parameters mirror the Table IV hyperparameter space. Each tree is grown
    on a bootstrap resample of the training set with ``sqrt(n_features)``
    candidate features per split (the scikit-learn default the paper used).

    ``predict_proba`` averages per-tree leaf class frequencies; classes that
    a bootstrap never saw contribute zero probability from that tree, which
    is the same behaviour scikit-learn exhibits via its shared class list.

    Parameters beyond the paper grid
    --------------------------------
    splitter:
        ``"exact"`` (default) searches raw feature values; ``"hist"``
        quantile-bins the matrix once and searches bin histograms —
        much faster, thresholds land on bin edges instead of exact
        midpoints (see ``docs/mlcore.md``).
    max_bins:
        Bins per feature for the hist splitter (ignored for exact).
    n_jobs:
        Workers for tree fitting; ``1`` fits serially in-process.
        Seeded results are identical for every setting.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        splitter: str = "exact",
        max_bins: int = DEFAULT_FOREST_BINS,
        n_jobs: int | None = 1,
        random_state: int | np.random.Generator | None = None,
    ):
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.splitter = splitter
        self.max_bins = max_bins
        self.n_jobs = n_jobs
        self.random_state = random_state

    def __setstate__(self, state: dict) -> None:
        state.pop("backend", None)  # forests pickled with the removed transport option
        self.__dict__.update(state)

    # ------------------------------------------------------------------ fit

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit ``n_estimators`` trees on bootstrap resamples of ``(X, y)``."""
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if self.splitter not in ("exact", "hist"):
            raise ValueError(
                f"splitter must be 'exact' or 'hist', got {self.splitter!r}"
            )
        X, y = check_X_y(X, y)
        if self.splitter == "hist":
            return self.fit_binned(Binner(self.max_bins).fit_dataset(X), y)
        # exact: dense per-column ranks, computed once for every tree
        ranks, values = _dense_ranks(X)
        return self._fit_forest(ranks, None, values, y)

    def fit_binned(
        self, binned: BinnedDataset, y: np.ndarray
    ) -> "RandomForestClassifier":
        """Fit from a pre-binned dataset (the cross-refit fast path).

        The active-learning loop bins the pool once and hands each refit a
        row subset of the same :class:`BinnedDataset`; no quantization or
        matrix copy happens here.
        """
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if self.splitter != "hist":
            raise ValueError(
                "fit_binned requires splitter='hist' "
                f"(got splitter={self.splitter!r})"
            )
        y = np.asarray(y)
        if len(y) != binned.n_samples:
            raise ValueError(
                f"binned has {binned.n_samples} samples but y has {len(y)}"
            )
        self.binned_dataset_ = binned
        self._fit_y_ = np.asarray(y).copy()
        return self._fit_forest(
            binned.codes, binned.bin_edges_, None, y, binned.codes_T
        )

    def refit(
        self,
        X_new: np.ndarray,
        y_new: np.ndarray,
        *,
        refresh_fraction: float = 0.25,
        codes: np.ndarray | None = None,
    ) -> RefitReport:
        """Warm-start update: absorb new labeled rows without a full refit.

        The active-learning loop adds a handful of rows per round; this
        keeps the fitted trees and their per-tree seed streams across
        rounds instead of regrowing all ``n_estimators`` trees:

        * a deterministic *replacement schedule* — seeded from tree 0's
          stream, keyed by the refit round, independent of ``n_jobs`` —
          picks ``ceil(refresh_fraction · n_estimators)`` trees to regrow
          from scratch on the stacked (old + new) data, each with its
          original per-tree seed;
        * every kept tree routes the new rows to its leaves and folds
          them into the leaf class counts in place
          (:meth:`DecisionTreeClassifier.absorb_labeled`).

        ``refresh_fraction=1.0`` regrows every tree and is bit-identical
        to a from-scratch :meth:`fit_binned` of a fresh clone (same
        integer ``random_state``) on the stacked dataset — the parity
        oracle the test suite pins. Smaller fractions trade refit cost
        for a model that converges to the cold one as trees cycle
        through the schedule.

        ``codes`` are the new rows' pre-binned code rows when the caller
        already holds them (the AL loop bins seed + pool once up front);
        otherwise the rows are binned here with the fitted binner's
        edges. Requires a forest fitted via ``fit_binned`` (or ``fit``
        with ``splitter="hist"``). Returns a :class:`RefitReport` for
        incremental pool re-scoring.
        """
        if getattr(self, "binned_dataset_", None) is None or not hasattr(
            self, "_fit_y_"
        ):
            raise RuntimeError(
                "refit needs a forest fitted via fit_binned "
                "(splitter='hist'); call fit/fit_binned first"
            )
        if not 0.0 < refresh_fraction <= 1.0:
            raise ValueError(
                f"refresh_fraction must be in (0, 1], got {refresh_fraction}"
            )
        X_new = np.asarray(X_new, dtype=np.float64)
        if X_new.ndim == 1:
            X_new = X_new[None, :]
        if X_new.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X_new has {X_new.shape[1]} features, "
                f"expected {self.n_features_in_}"
            )
        y_new = np.atleast_1d(np.asarray(y_new))
        if len(y_new) != len(X_new):
            raise ValueError(f"{len(X_new)} rows but {len(y_new)} labels")
        if codes is None:
            codes = self.binned_dataset_.binner.transform(X_new)
        else:
            codes = np.asarray(codes, dtype=np.uint8)
            if codes.ndim == 1:
                codes = codes[None, :]

        self.binned_dataset_ = self.binned_dataset_.append_codes(codes)
        y_all = np.concatenate([self._fit_y_, y_new])
        self._fit_y_ = y_all
        old_n_classes = len(self.classes_)
        self.classes_ = np.unique(y_all)

        round_index = self._refit_round_
        self._refit_round_ += 1
        n_rep = min(
            self.n_estimators,
            max(1, math.ceil(refresh_fraction * self.n_estimators)),
        )
        if n_rep >= self.n_estimators:
            replaced = np.arange(self.n_estimators)
        else:
            sched = np.random.default_rng(
                [_SCHEDULE_TAG, int(self._tree_seeds_[0]), round_index]
            )
            replaced = np.sort(
                sched.choice(self.n_estimators, size=n_rep, replace=False)
            )
        keep = np.setdiff1d(np.arange(self.n_estimators), replaced)

        touched: list[tuple[int, np.ndarray]] = []
        for t in keep:
            touched.append((int(t), self.estimators_[t].absorb_labeled(X_new, y_new)))
        binned = self.binned_dataset_
        new_trees = self._grow_trees(
            self._tree_seeds_[replaced], binned.codes,
            binned.bin_edges_, None, y_all, binned.codes_T,
        )
        for pos, tree in zip(replaced, new_trees):
            self.estimators_[pos] = tree
        self._finish_fit()
        return RefitReport(
            round_index=round_index,
            n_new_rows=len(X_new),
            replaced=replaced,
            touched_leaves=touched,
            classes_changed=len(self.classes_) != old_n_classes,
        )

    def _fit_forest(
        self,
        codes_mat: np.ndarray,
        edges: list[np.ndarray] | None,
        values: np.ndarray | None,
        y: np.ndarray,
        codes_T: np.ndarray | None = None,
    ) -> "RandomForestClassifier":
        rng = check_random_state(self.random_state)
        self.classes_ = np.unique(y)
        self.n_features_in_ = codes_mat.shape[1]
        # one seed per tree, drawn up front: fits are reproducible at any
        # worker count and independent of chunk boundaries; the seeds are
        # kept so warm refits can regrow tree i with its original stream
        seeds = rng.integers(0, 2**63, size=self.n_estimators)
        self._tree_seeds_ = seeds
        self._refit_round_ = 0
        self.estimators_ = self._grow_trees(seeds, codes_mat, edges, values, y, codes_T)
        self._finish_fit()
        return self

    def _grow_trees(
        self,
        seeds: np.ndarray,
        codes_mat: np.ndarray,
        edges: list[np.ndarray] | None,
        values: np.ndarray | None,
        y: np.ndarray,
        codes_T: np.ndarray | None,
    ) -> list[DecisionTreeClassifier]:
        """Grow one tree per seed, fanned out per ``n_jobs``.

        ``codes_mat`` holds bin codes with their ``edges`` (hist) or dense
        ranks with their rank → value table ``values`` (exact). Shared by
        the initial fit and warm refits (which pass only the replaced
        subset of the stored seed vector): each tree depends only on its
        own seed and the data, so results are independent of blocking,
        worker count, and which call site requested the growth.
        """
        tree_params = dict(
            criterion=self.criterion,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            splitter=self.splitter,
            max_bins=self.max_bins,
        )
        worker = partial(
            _fit_tree_chunk, tree_params, edges, len(self.classes_), self.bootstrap
        )
        parts = map_blocks(worker, seeds, (codes_mat, codes_T, values, y), self.n_jobs)
        return [tree for part in parts for tree in part]

    def _finish_fit(self) -> None:
        # map tree-local class columns into the forest-wide class list
        self._tree_class_maps = [
            np.searchsorted(self.classes_, tree.classes_)
            for tree in self.estimators_
        ]
        self._stack_trees()

    # ------------------------------------------------------- stacked predict

    def _stack_trees(self) -> None:
        """Concatenate per-tree node arrays into forest-wide flat arrays.

        Child pointers become global node ids; leaves point at themselves
        so the descent loop needs no per-level masking; per-tree leaf
        distributions are scattered into forest-wide class columns so
        prediction is one gather + one sum.
        """
        trees = self.estimators_
        counts = np.array([t.node_count_ for t in trees])
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        total = int(counts.sum())
        self._stk_roots = offsets
        self._stk_feature = np.concatenate([t.tree_feature_ for t in trees])
        self._stk_threshold = np.concatenate([t.tree_threshold_ for t in trees])
        left = np.empty(total, dtype=np.int64)
        right = np.empty(total, dtype=np.int64)
        value = np.zeros((total, len(self.classes_)), dtype=np.float64)
        for t, cmap, off in zip(trees, self._tree_class_maps, offsets):
            local = np.arange(t.node_count_)
            leaf = t.tree_feature_ == _LEAF
            left[off : off + t.node_count_] = (
                np.where(leaf, local, t.tree_left_) + off
            )
            right[off : off + t.node_count_] = (
                np.where(leaf, local, t.tree_right_) + off
            )
            value[off : off + t.node_count_][:, cmap] = t.tree_value_
        self._stk_left = left
        self._stk_right = right
        self._stk_value = value
        self._stk_importances = np.stack(
            [t.feature_importances_ for t in trees]
        )

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Average of per-tree class-frequency estimates over ``classes_``.

        All trees descend simultaneously: ``node`` holds an ``(n_rows,
        n_trees)`` frontier of global node ids, advanced one level per
        iteration; finished rows sit on self-looping leaves.
        """
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}"
            )
        rows = np.arange(X.shape[0])[:, None]
        node = np.broadcast_to(
            self._stk_roots, (X.shape[0], len(self.estimators_))
        ).copy()
        while True:
            feats = self._stk_feature[node]
            if not (feats != _LEAF).any():
                break
            xv = X[rows, np.maximum(feats, 0)]
            node = np.where(
                xv <= self._stk_threshold[node],
                self._stk_left[node],
                self._stk_right[node],
            )
        return self._stk_value[node].sum(axis=1) / len(self.estimators_)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean decrease in impurity, averaged over the trees.

        The standard RF importance; :class:`repro.core.annotation` uses it
        to tell annotators which *features* (hence metrics) drive the
        model, complementing the per-run metric deviations.
        """
        return self._stk_importances.mean(axis=0)

    @property
    def split_features_(self) -> np.ndarray:
        """Sorted indices of the features some tree splits on.

        The union of the internal nodes' ``tree_feature_`` over
        ``estimators_``: no other column can change what
        :meth:`predict_proba` returns. Derived on each access, so it
        follows :meth:`refit` and forests pickled before it existed.
        """
        return np.unique(np.concatenate(
            [t.tree_feature_[t.tree_feature_ != _LEAF] for t in self.estimators_]
        ))

"""Lockstep growth parity: every tree equals the one-at-a-time oracles.

``repro.mlcore.tree._grow_lockstep`` grows all trees of a forest chunk
together — one segmented split search per step across trees, exact
splits on dense value ranks. The growers it replaced live in
``tests/mlcore/oracles.py``; each test here compares every fitted tree
array with ``np.array_equal`` (no tolerance): structure, thresholds,
counts, leaf distributions, importances and ``classes_``.
"""

import itertools

import numpy as np
import pytest

from repro.mlcore.binning import BinnedDataset, Binner
from repro.mlcore.forest import RandomForestClassifier, _bootstrap_indices
from repro.mlcore.tree import (
    DecisionTreeClassifier,
    _best_splits_small,
    _dense_ranks,
    _log2_table,
)
from tests.mlcore.oracles import assert_trees_equal, fit_forest, fit_hist, fit_tree


def _data(kind: str, seed: int = 0, n: int = 90, f: int = 12, k: int = 4):
    """``tied``: values quantized to few levels; ``continuous``: all distinct."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f))
    if kind == "tied":
        X = np.round(X * 2) / 2
    y = ((X[:, 0] + 0.5 * X[:, 1] > 0).astype(int) + 2 * (X[:, 2] > 0.3)) % k
    return X, y


GRID = list(
    itertools.product(
        ["gini", "entropy"], [None, 1, 8], [1, 5], ["sqrt", None, 0.3, 3]
    )
)


class TestSingleTree:
    @pytest.mark.parametrize("kind", ["tied", "continuous"])
    @pytest.mark.parametrize("criterion,max_depth,min_samples_leaf,max_features", GRID)
    def test_exact_matches_oracle(
        self, kind, criterion, max_depth, min_samples_leaf, max_features
    ):
        X, y = _data(kind)
        params = dict(
            criterion=criterion,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            random_state=3,
        )
        got = DecisionTreeClassifier(**params).fit(X, y)
        want = fit_tree(DecisionTreeClassifier(**params), X, y)
        assert_trees_equal(got, want)

    @pytest.mark.parametrize("kind", ["tied", "continuous"])
    @pytest.mark.parametrize("criterion,max_depth,min_samples_leaf,max_features", GRID)
    def test_hist_matches_oracle(
        self, kind, criterion, max_depth, min_samples_leaf, max_features
    ):
        # 60 rows > 32 bins: the root runs the histogram kernel, deeper
        # nodes the segmented sort
        X, y = _data(kind, n=60)
        params = dict(
            criterion=criterion,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            splitter="hist",
            max_bins=32,
            random_state=3,
        )
        got = DecisionTreeClassifier(**params).fit(X, y)
        want = fit_tree(DecisionTreeClassifier(**params), X, y)
        assert_trees_equal(got, want)

    def test_fit_binned_with_sample_indices(self):
        X, y = _data("continuous", n=120)
        binned = Binner(64).fit_dataset(X)
        rows = np.random.default_rng(1).integers(0, 120, size=120)
        params = dict(splitter="hist", max_bins=64, max_features="sqrt", random_state=5)
        got = DecisionTreeClassifier(**params).fit_binned(binned, y, sample_indices=rows)
        want = fit_hist(
            DecisionTreeClassifier(**params), binned.codes, binned.bin_edges_, y, rows
        )
        assert_trees_equal(got, want)

    def test_string_labels(self):
        X, y = _data("continuous", k=3)
        labels = np.array(["healthy", "memleak", "cpuoccupy"])[y]
        got = DecisionTreeClassifier(random_state=0).fit(X, labels)
        want = fit_tree(DecisionTreeClassifier(random_state=0), X, labels)
        assert_trees_equal(got, want)

    def test_no_features_gives_a_stump(self):
        X, y = np.zeros((6, 0)), np.array([0, 1, 0, 1, 0, 1])
        got = DecisionTreeClassifier().fit(X, y)
        assert_trees_equal(got, fit_tree(DecisionTreeClassifier(), X, y))
        assert got.node_count_ == 1

    def test_generator_state_advances_like_oracle(self):
        X, y = _data("continuous")
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        DecisionTreeClassifier(max_features="sqrt", random_state=rng_a).fit(X, y)
        fit_tree(DecisionTreeClassifier(max_features="sqrt", random_state=rng_b), X, y)
        assert rng_a.integers(0, 2**62) == rng_b.integers(0, 2**62)


class TestDenseRanks:
    def test_ranks_order_and_ties(self):
        X = np.array([[3.0, -0.0], [1.0, 0.0], [3.0, 2.0], [-5.0, 0.0]])
        ranks, values = _dense_ranks(X)
        assert ranks[:, 0].tolist() == [2, 1, 2, 0]
        assert ranks[:, 1].tolist() == [0, 0, 1, 0]  # -0.0 ties 0.0
        assert np.array_equal(values[np.arange(2), ranks], X)

    def test_threshold_is_value_midpoint(self):
        # the split lands between the neighbouring *values*, not ranks
        X = np.array([[0.0], [0.25], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.tree_threshold_[0] == 0.5 * (0.25 + 10.0)


class TestLog2Table:
    def test_lookup_equals_evaluation(self):
        # the entropy kernels look log2 up per count; the bits must be
        # those of evaluating it on a count tensor, at any shape or offset
        rng = np.random.default_rng(0)
        table = _log2_table(5000)
        for shape in [(7,), (33, 5), (129, 17, 6)]:
            counts = rng.integers(0, 5001, size=shape)
            want = np.log2(np.where(counts > 0, counts, 1.0))
            assert np.array_equal(table[counts], want)
            assert np.array_equal(table[counts[..., 1:]], want[..., 1:])


class TestSortKernelWidths:
    def test_wide_keys_match_radix_keys(self):
        # S · span past 2**16 moves the keys to uint32 (no radix sort);
        # the winners must not move
        rng = np.random.default_rng(3)
        sizes = np.array([40, 25, 33], dtype=np.int64)
        sub = rng.integers(0, 30, size=(4, int(sizes.sum())))
        y = rng.integers(0, 3, size=int(sizes.sum()))
        slot = np.repeat(np.arange(3), sizes)
        counts = np.zeros((3, 3), dtype=np.int32)
        np.add.at(counts, (slot, y), 1)
        imps = np.full(3, 1.0)
        for criterion in ("gini", "entropy"):
            narrow = _best_splits_small(sub, y, sizes, counts, imps, 3, criterion, 1, 30)
            wide = _best_splits_small(sub, y, sizes, counts, imps, 3, criterion, 1, 70_000)
            for a, b in zip(narrow, wide):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_node_past_int16_counts(self, criterion):
        # a node of >= 2**15 rows takes the int64 count path
        rng = np.random.default_rng(0)
        X = np.round(rng.normal(size=(33_000, 2)), 2)
        y = (X[:, 0] + 0.3 * rng.normal(size=33_000) > 0).astype(int)
        params = dict(criterion=criterion, max_depth=2, random_state=0)
        got = DecisionTreeClassifier(**params).fit(X, y)
        want = fit_tree(DecisionTreeClassifier(**params), X, y)
        assert_trees_equal(got, want)


class TestForest:
    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("kind", ["tied", "continuous"])
    def test_matches_per_tree_oracle(self, splitter, criterion, bootstrap, kind):
        X, y = _data(kind, seed=2, n=110, f=20, k=5)
        forest = RandomForestClassifier(
            n_estimators=6,
            criterion=criterion,
            bootstrap=bootstrap,
            max_depth=8,
            splitter=splitter,
            max_bins=32,
            random_state=11,
        ).fit(X, y)
        for got, want in zip(forest.estimators_, fit_forest(forest, X, y)):
            assert_trees_equal(got, want)

    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_bootstrap_missing_a_class(self, splitter, criterion):
        # six singleton classes: most bootstraps miss one, so trees in the
        # same step carry different class counts
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 10))
        y = np.array([0] * 20 + [1] * 14 + [2, 3, 4, 5, 6, 7])
        forest = RandomForestClassifier(
            n_estimators=12, criterion=criterion, splitter=splitter, random_state=1
        ).fit(X, y)
        assert len({len(t.classes_) for t in forest.estimators_}) > 1
        for got, want in zip(forest.estimators_, fit_forest(forest, X, y)):
            assert_trees_equal(got, want)

    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_any_n_jobs(self, splitter, n_jobs, fan_out):
        X, y = _data("continuous", seed=4, n=100, f=16, k=3)
        forest = RandomForestClassifier(
            n_estimators=5,
            max_depth=6,
            splitter=splitter,
            n_jobs=n_jobs,
            random_state=2,
        ).fit(X, y)
        for got, want in zip(forest.estimators_, fit_forest(forest, X, y)):
            assert_trees_equal(got, want)

    def test_warm_full_refresh_equals_cold(self):
        X, y = _data("continuous", seed=5, n=100, f=10, k=3)
        warm = RandomForestClassifier(n_estimators=6, splitter="hist", random_state=4)
        binner = Binner(warm.max_bins)
        codes = binner.fit_transform(X)
        warm.fit_binned(BinnedDataset(codes[:80], binner), y[:80])
        warm.refit(X[80:], y[80:], codes=codes[80:], refresh_fraction=1.0)
        cold = RandomForestClassifier(n_estimators=6, splitter="hist", random_state=4)
        cold.fit_binned(BinnedDataset(codes, binner), y)
        for got, want in zip(warm.estimators_, cold.estimators_):
            assert_trees_equal(got, want)
        oracle = []
        for seed in cold._tree_seeds_:
            rng = np.random.default_rng(int(seed))
            idx = _bootstrap_indices(rng, y, 3, len(y))
            ref = DecisionTreeClassifier(
                max_features="sqrt", splitter="hist", max_bins=warm.max_bins,
                random_state=rng,
            )
            oracle.append(fit_hist(ref, codes, binner.bin_edges_, y, idx))
        for got, want in zip(warm.estimators_, oracle):
            assert_trees_equal(got, want)

"""Tests for the histogram binning layer (repro.mlcore.binning)."""

import numpy as np
import pytest

from repro.mlcore.binning import (
    DEFAULT_MAX_BINS,
    BinnedDataset,
    Binner,
    _rank_cut_positions,
)


class TestRankCutPositions:
    def test_strictly_increasing_when_n_exceeds_bins(self):
        for n, b in [(257, 256), (1000, 256), (100, 64), (65, 64)]:
            cuts = _rank_cut_positions(n, b)
            assert len(cuts) == b - 1
            assert (np.diff(cuts) > 0).all()
            assert cuts[0] >= 1 and cuts[-1] <= n - 1

    def test_matches_quantile_ranks(self):
        # for a tie-free column, the legacy per-column quantile path and
        # the rank shortcut must choose the same neighbouring pairs
        rng = np.random.default_rng(0)
        col = np.sort(rng.normal(size=500))
        b = 64
        qs = np.linspace(0.0, 1.0, b + 1)[1:-1]
        legacy = np.clip(
            np.searchsorted(col, np.quantile(col, qs), side="right"), 1, len(col) - 1
        )
        assert np.array_equal(_rank_cut_positions(len(col), b), legacy)


class TestBinnerEdges:
    def test_low_cardinality_gets_all_midpoints(self):
        X = np.array([[0.0], [1.0], [1.0], [3.0], [7.0]])
        binner = Binner(max_bins=8).fit(X)
        assert np.allclose(binner.bin_edges_[0], [0.5, 2.0, 5.0])

    def test_edge_count_bounded(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(400, 3))
        binner = Binner(max_bins=32).fit(X)
        for edges in binner.bin_edges_:
            assert len(edges) <= 31

    def test_edges_never_coincide_with_data(self):
        rng = np.random.default_rng(2)
        X = np.round(rng.normal(size=(300, 4)), 1)  # heavy ties
        binner = Binner(max_bins=16).fit(X)
        for j, edges in enumerate(binner.bin_edges_):
            assert not np.isin(edges, X[:, j]).any()

    def test_code_edge_invariant(self):
        # code(x) <= b  ⟺  x <= edges[b]: the property that lets a tree
        # trained on codes predict on raw matrices
        rng = np.random.default_rng(3)
        X = rng.normal(size=(500, 2))
        binner = Binner(max_bins=64).fit(X)
        codes = binner.transform(X)
        for j in range(2):
            for b in (0, 5, len(binner.bin_edges_[j]) - 1):
                left = codes[:, j] <= b
                assert np.array_equal(left, X[:, j] <= binner.bin_edges_[j][b])

    def test_max_bins_validation(self):
        with pytest.raises(ValueError, match="max_bins"):
            Binner(max_bins=1)
        with pytest.raises(ValueError, match="max_bins"):
            Binner(max_bins=257)

    def test_transform_feature_mismatch(self):
        binner = Binner(8).fit(np.zeros((10, 3)) + np.arange(10)[:, None])
        with pytest.raises(ValueError, match="features"):
            binner.transform(np.zeros((5, 4)))


class TestFitTransform:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fit_then_transform_tie_free(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(500, 20))
        a = Binner(64)
        codes_fused = a.fit_transform(X)
        b = Binner(64).fit(X)
        assert np.array_equal(codes_fused, b.transform(X))
        for ea, eb in zip(a.bin_edges_, b.bin_edges_):
            assert np.array_equal(ea, eb)

    def test_matches_fit_then_transform_with_ties(self):
        rng = np.random.default_rng(4)
        X = np.column_stack(
            [
                rng.normal(size=300),  # tie-free
                np.round(rng.normal(size=300), 1),  # tied
                rng.integers(0, 3, size=300).astype(float),  # 3 distinct
                np.full(300, 2.5),  # constant
            ]
        )
        a = Binner(32)
        codes_fused = a.fit_transform(X)
        b = Binner(32).fit(X)
        assert np.array_equal(codes_fused, b.transform(X))

    def test_small_n_uses_fallback(self):
        # n <= max_bins: every column takes the exact-midpoint path
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        a = Binner(64)
        codes = a.fit_transform(X)
        assert np.array_equal(codes, Binner(64).fit(X).transform(X))

    def test_codes_are_uint8(self):
        X = np.random.default_rng(6).normal(size=(100, 2))
        assert Binner(256).fit_transform(X).dtype == np.uint8


class TestBinnedDataset:
    def _ds(self, n=50, f=4, seed=0):
        X = np.random.default_rng(seed).normal(size=(n, f))
        return X, Binner(16).fit_dataset(X)

    def test_shape_accessors(self):
        _, ds = self._ds()
        assert ds.n_samples == 50 and ds.n_features == 4
        assert len(ds.bin_edges_) == 4

    def test_rejects_non_uint8(self):
        _, ds = self._ds()
        with pytest.raises(ValueError, match="uint8"):
            BinnedDataset(ds.codes.astype(np.int64), ds.binner)

    def test_rejects_wrong_feature_count(self):
        _, ds = self._ds()
        with pytest.raises(ValueError, match="features"):
            BinnedDataset(ds.codes[:, :2], ds.binner)

    def test_append_rows_bins_new_rows(self):
        X, ds = self._ds()
        new = np.random.default_rng(9).normal(size=(5, 4))
        grown = ds.append_codes(ds.binner.transform(new))
        assert grown.n_samples == 55
        assert np.array_equal(grown.codes[50:], ds.binner.transform(new))

    def test_codes_t_cached_and_correct(self):
        _, ds = self._ds()
        t1 = ds.codes_T
        assert np.array_equal(t1, ds.codes.T)
        assert t1.flags["C_CONTIGUOUS"]
        assert ds.codes_T is t1  # computed once, shared

    def test_default_max_bins(self):
        assert DEFAULT_MAX_BINS == 256


class TestGrowthBuffer:
    """Amortized-doubling append path (append_codes)."""

    def _ds(self, n=50, f=4, seed=0):
        X = np.random.default_rng(seed).normal(size=(n, f))
        return X, Binner(16).fit_dataset(X)

    def test_append_codes_stacks_rows(self):
        _, ds = self._ds()
        new = np.random.default_rng(1).integers(0, 16, size=(7, 4)).astype(np.uint8)
        grown = ds.append_codes(new)
        assert grown.n_samples == 57
        assert np.array_equal(grown.codes[:50], ds.codes)
        assert np.array_equal(grown.codes[50:], new)

    def test_parent_rows_unaffected_by_append(self):
        _, ds = self._ds()
        before = ds.codes.copy()
        row = np.zeros((1, 4), dtype=np.uint8)
        chain = ds
        for _ in range(20):
            chain = chain.append_codes(row)
        assert np.array_equal(ds.codes, before)
        assert ds.n_samples == 50 and chain.n_samples == 70

    def test_appends_share_buffer_amortized(self):
        _, ds = self._ds()
        row = np.ones((1, 4), dtype=np.uint8)
        g1 = ds.append_codes(row)
        g2 = g1.append_codes(row)
        # tail appends share one backing buffer (no per-round full copy)
        assert g2._buf is g1._buf
        assert g2.codes.base is g1.codes.base

    def test_non_tail_append_forks(self):
        _, ds = self._ds()
        row = np.full((1, 4), 3, dtype=np.uint8)
        g1 = ds.append_codes(row)  # ds is no longer the tail
        g2 = ds.append_codes(np.full((1, 4), 9, dtype=np.uint8))
        assert g2._buf is not g1._buf  # sibling forked with a copy
        assert g1.codes[-1][0] == 3
        assert g2.codes[-1][0] == 9
        assert np.array_equal(g1.codes[:50], g2.codes[:50])

    def test_codes_t_stays_correct_across_appends(self):
        _, ds = self._ds()
        _ = ds.codes_T  # build the transpose before growing
        chain = ds
        rng = np.random.default_rng(2)
        for _ in range(5):
            chain = chain.append_codes(
                rng.integers(0, 16, size=(3, 4)).astype(np.uint8)
            )
        assert np.array_equal(
            chain.codes_T, np.ascontiguousarray(chain.codes.T)
        )
        assert np.array_equal(ds.codes_T, ds.codes.T)

    def test_append_rows_still_bins(self):
        X, ds = self._ds()
        new = np.random.default_rng(9).normal(size=(5, 4))
        grown = ds.append_codes(ds.binner.transform(new))
        assert grown.n_samples == 55
        assert np.array_equal(grown.codes[50:], ds.binner.transform(new))

    def test_rejects_wrong_shape(self):
        _, ds = self._ds()
        with pytest.raises(ValueError, match="code rows"):
            ds.append_codes(np.zeros((2, 3), dtype=np.uint8))

    def test_pickle_compacts_buffer(self):
        import pickle

        _, ds = self._ds()
        chain = ds.append_codes(np.zeros((1, 4), dtype=np.uint8))
        clone = pickle.loads(pickle.dumps(chain))
        assert clone.n_samples == chain.n_samples
        assert np.array_equal(clone.codes, chain.codes)
        # the pickled buffer carries no spare capacity
        assert len(clone._buf.rows) == clone.n_samples

"""Exact-equality regressions for the vectorized feature kernels.

Each vectorized rewrite (whole-matrix interpolation, sort-based unique
counts, blocked approximate entropy, prefix-max run lengths, one-call
order statistics) is checked bitwise against the straightforward
implementation it replaced — the rewrites are pure speedups, not
numerical approximations.
"""

import numpy as np
import pytest

from repro.features.mvts import MVTS_FEATURE_NAMES, _longest_true_run, extract_mvts
from repro.features.pipeline import interpolate_missing
from repro.features.tsfresh_lite import (
    TSFRESH_FEATURE_NAMES,
    _approx_entropy_matrix,
    extract_tsfresh,
)
from tests.features.oracles import approx_entropy_column as _approx_entropy_column
from tests.features.oracles import longest_true_run_loop


def _legacy_interpolate(data: np.ndarray) -> np.ndarray:
    """The historical per-column np.interp loop (reference semantics)."""
    data = np.asarray(data, dtype=np.float64).copy()
    T = data.shape[0]
    t = np.arange(T)
    for j in range(data.shape[1]):
        col = data[:, j]
        bad = np.isnan(col)
        if not bad.any():
            continue
        good = ~bad
        if not good.any():
            data[:, j] = 0.0
            continue
        data[bad, j] = np.interp(t[bad], t[good], col[good])
    return data


def _nan_matrix(rng, T, M, rate):
    data = rng.normal(scale=10.0 ** float(rng.integers(-3, 4)), size=(T, M))
    data[rng.random(size=(T, M)) < rate] = np.nan
    return data


class TestInterpolateMissing:
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.3, 0.7])
    def test_bitwise_equal_to_legacy(self, rate):
        rng = np.random.default_rng(int(rate * 100))
        for trial in range(20):
            data = _nan_matrix(rng, int(rng.integers(8, 60)),
                               int(rng.integers(1, 12)), rate)
            got = interpolate_missing(data)
            want = _legacy_interpolate(data)
            assert np.array_equal(got, want)  # bitwise, no tolerance

    def test_edge_nans_take_nearest(self):
        data = np.array([[np.nan], [2.0], [np.nan], [6.0], [np.nan]])
        out = interpolate_missing(data)
        assert np.array_equal(out[:, 0], [2.0, 2.0, 4.0, 6.0, 6.0])

    def test_all_nan_column_zeroed(self):
        data = np.full((5, 2), np.nan)
        data[:, 0] = 1.0
        out = interpolate_missing(data)
        assert np.array_equal(out[:, 1], np.zeros(5))
        assert np.array_equal(out[:, 0], np.ones(5))

    def test_input_not_mutated(self):
        data = np.array([[1.0, np.nan], [np.nan, 2.0], [3.0, 4.0]])
        snapshot = data.copy()
        interpolate_missing(data)
        assert np.array_equal(data, snapshot, equal_nan=True)


class TestApproxEntropyMatrix:
    def test_matches_per_column_reference(self):
        rng = np.random.default_rng(0)
        for T in (10, 40, 130, 200):
            X = rng.normal(size=(T, 9))
            X[:, 0] = 3.14  # constant column: sd ~ 0 guard
            got = _approx_entropy_matrix(X)
            want = np.array(
                [_approx_entropy_column(X[:, j]) for j in range(X.shape[1])]
            )
            assert np.array_equal(got, want)  # bitwise, no tolerance

    def test_blocking_is_invisible(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(64, 17))
        full = _approx_entropy_matrix(X)
        tiny_blocks = _approx_entropy_matrix(X, block_elems=64)
        assert np.array_equal(full, tiny_blocks)

    def test_short_series_zero(self):
        X = np.ones((3, 4))
        assert np.array_equal(_approx_entropy_matrix(X), np.zeros(4))


def _oracle_apen(X, **kw):
    return np.array([_approx_entropy_column(X[:, j], **kw) for j in range(X.shape[1])])


class TestApproxEntropyEdgeCases:
    """The boolean close-tensor kernel against the float Chebyshev oracle."""

    def test_constant_columns(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 6))
        X[:, [0, 3]] = 7.25
        X[:, 5] = 0.0
        got = _approx_entropy_matrix(X)
        assert np.array_equal(got, _oracle_apen(X))
        assert got[0] == got[3] == got[5] == 0.0

    def test_quantised_columns(self):
        # ties at exactly r and many equal samples stress the <= boundary
        rng = np.random.default_rng(4)
        X = np.column_stack([
            np.round(rng.normal(size=90), 1),
            np.floor(rng.normal(size=90) * 2),
            rng.integers(0, 3, size=90).astype(float),
            np.repeat([0.0, 1.0], 45),
        ])
        assert np.array_equal(_approx_entropy_matrix(X), _oracle_apen(X))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_at_most_m_plus_one_samples_is_zero(self, m):
        X = np.random.default_rng(5).normal(size=(m + 1, 4))
        got = _approx_entropy_matrix(X, m=m)
        assert np.array_equal(got, np.zeros(4))
        assert np.array_equal(got, _oracle_apen(X, m=m))
        # one more sample is the first non-trivial length
        Y = np.random.default_rng(5).normal(size=(m + 2, 4))
        assert np.array_equal(_approx_entropy_matrix(Y, m=m), _oracle_apen(Y, m=m))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_embedding_dimensions(self, m):
        X = np.random.default_rng(6).normal(size=(50, 5))
        assert np.array_equal(_approx_entropy_matrix(X, m=m), _oracle_apen(X, m=m))

    def test_longer_than_max_len(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 5))
        got = _approx_entropy_matrix(X)
        assert np.array_equal(got, _oracle_apen(X))
        assert np.array_equal(got, _approx_entropy_matrix(X[:128]))
        short = _approx_entropy_matrix(X, max_len=40)
        assert np.array_equal(short, _oracle_apen(X, max_len=40))

    def test_several_blocks_last_one_partial(self):
        # default blocking at T=64 holds 65536 // 62**2 = 17 columns, so
        # 3 full blocks and a partial fourth of 5 columns
        rng = np.random.default_rng(8)
        X = rng.normal(size=(64, 17 * 3 + 5))
        X[:, 52] = 1.0  # a constant column inside the partial block
        got = _approx_entropy_matrix(X)
        assert np.array_equal(got, _oracle_apen(X))
        for block_elems in (1, 62 * 62 * 4, 1 << 22):
            assert np.array_equal(_approx_entropy_matrix(X, block_elems=block_elems), got)


class TestLongestTrueRun:
    """The prefix-max run length against the row-by-row loop."""

    @pytest.mark.parametrize("T", [1, 2, 7, 255, 256, 300])
    def test_all_true_and_all_false(self, T):
        for mask in (np.ones((T, 3), dtype=bool), np.zeros((T, 3), dtype=bool)):
            got = _longest_true_run(mask)
            assert got.dtype == np.int64
            assert np.array_equal(got, longest_true_run_loop(mask))

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_random_masks(self, p):
        rng = np.random.default_rng(int(p * 10))
        for T in (1, 3, 85, 100, 257, 70000):
            mask = rng.random((T, 4)) < p
            assert np.array_equal(_longest_true_run(mask), longest_true_run_loop(mask))

    def test_no_rows(self):
        mask = np.zeros((0, 3), dtype=bool)
        assert np.array_equal(_longest_true_run(mask), longest_true_run_loop(mask))


class TestOrderStatistics:
    """One np.percentile call per panel equals one call per quantile."""

    def _panels(self):
        rng = np.random.default_rng(9)
        for T in (8, 9, 50, 101):
            X = rng.normal(size=(T, 6))
            X[:, 1] = np.round(X[:, 1])  # ties
            X[:, 2] = 3.0
            yield X

    def test_tsfresh_quantiles(self):
        names = {q: TSFRESH_FEATURE_NAMES.index(f"quantile_{q}") for q in (10, 30, 40, 60, 70, 90, 99)}
        for X in self._panels():
            feats = extract_tsfresh(X).reshape(X.shape[1], -1)
            for q, i in names.items():
                assert np.array_equal(feats[:, i], np.percentile(X, q, axis=0))
            med = np.median(X, axis=0)
            i = TSFRESH_FEATURE_NAMES.index("longest_strike_above_median")
            assert np.array_equal(feats[:, i], longest_true_run_loop(X > med))

    def test_mvts_quantiles(self):
        idx = {name: MVTS_FEATURE_NAMES.index(name) for name in
               ("median", "q1", "q3", "p5", "p95", "half_diff_q1", "half_diff_q3")}
        for X in self._panels():
            feats = extract_mvts(X).reshape(X.shape[1], -1)
            half = X.shape[0] // 2
            A, B = X[:half], X[half:]
            want = {
                "median": np.percentile(X, 50, axis=0),
                "q1": np.percentile(X, 25, axis=0),
                "q3": np.percentile(X, 75, axis=0),
                "p5": np.percentile(X, 5, axis=0),
                "p95": np.percentile(X, 95, axis=0),
                "half_diff_q1": np.abs(np.percentile(A, 25, axis=0) - np.percentile(B, 25, axis=0)),
                "half_diff_q3": np.abs(np.percentile(A, 75, axis=0) - np.percentile(B, 75, axis=0)),
            }
            for name, i in idx.items():
                assert np.array_equal(feats[:, i], want[name]), name


class TestUniqueCountFeatures:
    def test_matches_python_set_semantics(self):
        rng = np.random.default_rng(2)
        X = np.round(rng.normal(size=(50, 6)), 1)  # force duplicates
        X[:, 5] = 7.0
        feats = extract_tsfresh(X)
        per_metric = feats.reshape(X.shape[1], len(TSFRESH_FEATURE_NAMES))
        i_unique = TSFRESH_FEATURE_NAMES.index("ratio_unique_values")
        i_reocc = TSFRESH_FEATURE_NAMES.index("pct_reoccurring_points")
        T = X.shape[0]
        for j in range(X.shape[1]):
            n_unique = len(set(X[:, j].tolist()))
            assert per_metric[j, i_unique] == n_unique / T
            assert per_metric[j, i_reocc] == 1.0 - n_unique / T

"""MVTS-style statistical feature extraction (paper Sec. III-A).

The MVTS-Data Toolkit computes 48 statistical features per metric:
descriptive statistics, absolute differences between the first- and
second-half statistics of the series, and long-run trend features (longest
monotonic increase, etc.). This module reproduces that inventory exactly —
48 named features per metric — with every feature computed as a vectorized
operation over the whole (T, M) run matrix at once: the hot path contains
no per-metric Python loop.

Every kernel here treats columns independently (all reductions run over
axis 0 with width-stable accumulation), so the extractor accepts
arbitrary column counts: *B* runs of equal length can be ``hstack``-ed
into one ``(T, B*M)`` panel and featurized in a single pass, bit-identical
to extracting each run separately. The batched pipeline
(:mod:`repro.features.pipeline`) leans on exactly this contract.

Input series must be NaN-free (the pipeline interpolates first).
"""

from __future__ import annotations

import numpy as np

__all__ = ["MVTS_FEATURE_NAMES", "extract_mvts", "feature_names_for"]


def _longest_true_run(mask: np.ndarray) -> np.ndarray:
    """Per-column length of the longest run of True in a (T, M) mask.

    A prefix max finds, for every row ``t`` (counted from 1), the last
    False row at or before it (0: none yet); the run of True ending at
    ``t`` is the distance between the two. Integer-exact, in the
    narrowest unsigned dtype that holds ``T``.
    """
    T, M = mask.shape
    if T == 0:
        return np.zeros(M, dtype=np.int64)
    t = np.arange(1, T + 1, dtype=np.min_scalar_type(T))[:, None]
    last_false = np.maximum.accumulate(t * ~mask, axis=0)
    return (t - last_false).max(axis=0).astype(np.int64)


def _autocorr(X: np.ndarray, lag: int) -> np.ndarray:
    """Per-column lag-k autocorrelation; 0 for constant columns."""
    T = X.shape[0]
    if lag >= T:
        return np.zeros(X.shape[1])
    mu = X.mean(axis=0)
    var = X.var(axis=0)
    cov = np.mean((X[:-lag] - mu) * (X[lag:] - mu), axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ac = np.where(var > 1e-18, cov / np.where(var > 1e-18, var, 1.0), 0.0)
    return ac


def _linfit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column least-squares slope and intercept against time.

    The time-weighted sum is an explicit ``np.sum`` over axis 0 rather
    than a ``@`` matmul: BLAS picks its accumulation order from the
    matrix *width*, so a matmul would make each column's slope depend on
    how many sibling columns ride in the same call — breaking the
    bit-identity contract between per-run and run-batched extraction.
    """
    T = X.shape[0]
    t = np.arange(T, dtype=np.float64)
    t_mean = t.mean()
    t_var = np.sum((t - t_mean) ** 2)
    mu = X.mean(axis=0)
    slope = np.sum((t - t_mean)[:, None] * (X - mu), axis=0) / t_var
    intercept = mu - slope * t_mean
    return slope, intercept


# the canonical, ordered 48-feature inventory
MVTS_FEATURE_NAMES: tuple[str, ...] = (
    "mean", "median", "std", "var", "min", "max", "range", "iqr",
    "q1", "q3", "skew", "kurtosis", "rms", "abs_mean", "total", "abs_energy",
    "mean_abs_change", "mean_change", "mean_second_derivative",
    "count_above_mean", "count_below_mean",
    "longest_strike_above_mean", "longest_strike_below_mean",
    "longest_monotonic_increase", "longest_monotonic_decrease",
    "n_mean_crossings", "linear_slope", "linear_intercept",
    "first_loc_of_max", "first_loc_of_min", "last_loc_of_max", "last_loc_of_min",
    "half_diff_mean", "half_diff_median", "half_diff_std", "half_diff_var",
    "half_diff_min", "half_diff_max", "half_diff_q1", "half_diff_q3",
    "autocorr_lag1", "autocorr_lag2",
    "ratio_beyond_1sigma", "ratio_beyond_2sigma",
    "variation_coefficient", "p5", "p95", "median_abs_deviation",
)

assert len(MVTS_FEATURE_NAMES) == 48


def extract_mvts(X: np.ndarray) -> np.ndarray:
    """Compute the 48 MVTS features for every column of a (T, M) matrix.

    Returns a flat ``(M * 48,)`` vector ordered metric-major: all 48
    features of metric 0, then metric 1, … (matching
    :func:`feature_names_for`).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected (T, M), got {X.shape}")
    T, M = X.shape
    if T < 4:
        raise ValueError(f"need at least 4 timesteps, got {T}")
    if np.isnan(X).any():
        raise ValueError("input contains NaNs; interpolate first (see pipeline)")

    feats = np.empty((48, M))
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    # one partition pass for the order statistics; each quantile's linear
    # interpolation is elementwise, so each equals its own one-quantile call
    p5, q1, med, q3, p95 = np.percentile(X, [5, 25, 50, 75, 95], axis=0)
    mn, mx = X.min(axis=0), X.max(axis=0)
    diffs = np.diff(X, axis=0)

    feats[0] = mu
    feats[1] = med
    feats[2] = sd
    feats[3] = sd**2
    feats[4] = mn
    feats[5] = mx
    feats[6] = mx - mn
    feats[7] = q3 - q1
    feats[8] = q1
    feats[9] = q3
    centered = X - mu
    safe_sd = np.where(sd > 1e-18, sd, 1.0)
    z = centered / safe_sd
    feats[10] = np.where(sd > 1e-18, np.mean(z**3, axis=0), 0.0)  # skew
    feats[11] = np.where(sd > 1e-18, np.mean(z**4, axis=0) - 3.0, 0.0)  # ex. kurtosis
    feats[12] = np.sqrt(np.mean(X**2, axis=0))  # rms
    feats[13] = np.mean(np.abs(X), axis=0)
    feats[14] = X.sum(axis=0)
    feats[15] = np.sum(X**2, axis=0)
    feats[16] = np.mean(np.abs(diffs), axis=0)
    feats[17] = np.mean(diffs, axis=0)
    feats[18] = np.mean(X[2:] - 2 * X[1:-1] + X[:-2], axis=0)
    above = X > mu
    below = X < mu
    feats[19] = above.sum(axis=0)
    feats[20] = below.sum(axis=0)
    feats[21] = _longest_true_run(above)
    feats[22] = _longest_true_run(below)
    feats[23] = _longest_true_run(diffs > 0) + 1  # run length in points
    feats[24] = _longest_true_run(diffs < 0) + 1
    sign = np.sign(X - mu)
    feats[25] = np.sum(np.abs(np.diff(sign, axis=0)) > 1, axis=0)  # mean crossings
    slope, intercept = _linfit(X)
    feats[26] = slope
    feats[27] = intercept
    feats[28] = np.argmax(X, axis=0) / T
    feats[29] = np.argmin(X, axis=0) / T
    feats[30] = (T - 1 - np.argmax(X[::-1], axis=0)) / T
    feats[31] = (T - 1 - np.argmin(X[::-1], axis=0)) / T
    half = T // 2
    A, B = X[:half], X[half:]
    a25, a75 = np.percentile(A, [25, 75], axis=0)
    b25, b75 = np.percentile(B, [25, 75], axis=0)
    feats[32] = np.abs(A.mean(axis=0) - B.mean(axis=0))
    feats[33] = np.abs(np.median(A, axis=0) - np.median(B, axis=0))
    feats[34] = np.abs(A.std(axis=0) - B.std(axis=0))
    feats[35] = np.abs(A.var(axis=0) - B.var(axis=0))
    feats[36] = np.abs(A.min(axis=0) - B.min(axis=0))
    feats[37] = np.abs(A.max(axis=0) - B.max(axis=0))
    feats[38] = np.abs(a25 - b25)
    feats[39] = np.abs(a75 - b75)
    feats[40] = _autocorr(X, 1)
    feats[41] = _autocorr(X, 2)
    feats[42] = np.mean(np.abs(centered) > safe_sd, axis=0)
    feats[43] = np.mean(np.abs(centered) > 2 * safe_sd, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        feats[44] = np.where(np.abs(mu) > 1e-18, sd / np.where(np.abs(mu) > 1e-18, mu, 1.0), 0.0)
    feats[45] = p5
    feats[46] = p95
    feats[47] = np.median(np.abs(X - med), axis=0)

    return feats.T.ravel()  # metric-major


def feature_names_for(metric_names: list[str]) -> list[str]:
    """Full feature-name list matching :func:`extract_mvts` output order."""
    return [f"{m}::{f}" for m in metric_names for f in MVTS_FEATURE_NAMES]

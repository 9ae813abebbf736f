"""TSFRESH-style extended feature extraction (paper Sec. III-A).

TSFRESH computes 794 features per metric from 63 characterization methods;
the paper highlights approximate entropy, power spectral density (Welch),
and variation coefficients as the advanced additions beyond MVTS. This
module reproduces the *families* rather than the full 794: every metric
gets the 48 MVTS features plus 64 advanced features (112 total per metric),
spanning entropy measures, Welch spectral statistics and spectral shape,
nonlinearity scores, complexity estimates, distribution quantiles, energy
localization, autocorrelation and autoregressive aggregates, trend fits and
duplication counts. Strictly more expressive than MVTS — which is
what drives the paper's Volta result (TSFRESH wins there, Table V).

Every feature — approximate entropy included — is vectorized across all
M columns: ApEn builds one boolean "samples within r" tensor for whole
blocks of columns at once and reads every template length off it with
shifted ANDs (:func:`_approx_entropy_matrix`), the quantiles come from one
``np.percentile`` call, and the distinct-value counts from a single sort
along axis 0. The hot path contains no per-metric Python loop.

Like :mod:`repro.features.mvts`, every kernel treats columns
independently with width-stable accumulation, so the column count is
arbitrary: the batched pipeline ``hstack``s equal-length runs into one
``(T, B*M)`` panel and calls :func:`extract_tsfresh` once, bit-identical
to per-run extraction. ApEn's column blocking is sized for such wide
panels (see :func:`_approx_entropy_matrix`).
"""

from __future__ import annotations

import numpy as np
from scipy import signal

from .mvts import MVTS_FEATURE_NAMES, _autocorr, _longest_true_run, extract_mvts

__all__ = ["TSFRESH_FEATURE_NAMES", "extract_tsfresh", "feature_names_for"]

_EXTRA_NAMES: tuple[str, ...] = (
    "approx_entropy",
    "psd_band0", "psd_band1", "psd_band2", "psd_band3",
    "spectral_centroid", "spectral_entropy", "max_psd_freq",
    "cid_ce", "c3_lag1", "time_reversal_asymmetry",
    "binned_entropy", "number_peaks",
    "quantile_10", "quantile_30", "quantile_70", "quantile_90", "quantile_99",
    "energy_chunk0", "energy_chunk1", "energy_chunk2", "energy_chunk3",
    "index_mass_q25", "index_mass_q50", "index_mass_q75",
    "autocorr_mean_1_10", "autocorr_std_1_10", "autocorr_lag5", "autocorr_lag10",
    "longest_strike_above_median", "longest_strike_below_median",
    "count_above_q3", "count_below_q1",
    "fft_abs_mean", "fft_abs_std", "fft_abs_coeff1",
    # second wave: trend/AR/spectral-shape/duplication families
    "agg_trend_slope", "agg_trend_stderr",
    "change_quantiles_mean_abs", "change_quantiles_std",
    "ratio_unique_values", "has_duplicate_max", "has_duplicate_min",
    "ar_coef_1", "ar_coef_2", "pacf_lag2",
    "psd_variance", "psd_skewness", "psd_kurtosis",
    "mean_abs_max_7", "crossings_median", "range_count_1sigma",
    "variance_gt_std", "pct_reoccurring_points",
    "quantile_40", "quantile_60",
    "c3_lag2", "trev_lag2",
    "number_peaks_s1", "number_peaks_s5",
    "first_loc_above_q90", "last_loc_above_q90",
    "sum_abs_changes", "cid_ce_unnormalized",
)

TSFRESH_FEATURE_NAMES: tuple[str, ...] = MVTS_FEATURE_NAMES + _EXTRA_NAMES

assert len(TSFRESH_FEATURE_NAMES) == 112


def _approx_entropy_matrix(
    X: np.ndarray, m: int = 2, r_frac: float = 0.2, max_len: int = 128,
    block_elems: int = 1 << 16,
) -> np.ndarray:
    """Approximate entropy (Pincus 1991) of every column of ``(T, M)``.

    Embedding dimension ``m``, tolerance ``r = r_frac * std``, computed on
    the first ``max_len`` samples (ApEn is routinely estimated on short
    windows, and this keeps long-run extraction linear). Constant columns
    and runs of at most ``m + 1`` samples give 0.

    Two length-``mm`` templates starting at ``a`` and ``b`` match when
    their Chebyshev distance is at most ``r``, i.e. when every sample
    pair ``(a + k, b + k)`` is within ``r``. So one boolean tensor
    ``close[c, a, b] = |x[c, a] - x[c, b]| <= r[c]`` answers every
    template length: ANDing it with its ``(k, k)`` shifts for
    ``k < mm`` gives the matches at length ``mm``, m+1 taking one more
    shifted AND than m. Each template's match count is an integer, so
    ``count / n`` and the trailing-axis ``log``/``mean`` reductions are
    bitwise-equal to the float Chebyshev-distance form (pinned against
    it in the tests).

    ``block_elems`` bounds the ``(cols, T-m, T-m)`` working set. Column
    blocking never mixes columns, so it changes no output bit, only the
    temporary-allocation size: run-batched extraction feeds panels of
    thousands of columns, and a 64Ki-element block keeps each block's
    tensors cache-resident instead of thrashing memory bandwidth.
    """
    T = min(X.shape[0], max_len)
    M = X.shape[1]
    if T <= m + 1:
        return np.zeros(M)
    # column-major copy: every reduction below runs over the last axis of
    # a contiguous array, as a per-column 1-D reduction would
    Xt = np.ascontiguousarray(X[:T].T)  # (M, T)
    sd = Xt.std(axis=1)
    r = r_frac * sd
    out = np.empty(M)
    cols_per_block = max(1, block_elems // ((T - m) * (T - m)))

    def phi(match: np.ndarray) -> np.ndarray:
        n = match.shape[2]
        counts = np.count_nonzero(match, axis=2) / n
        return np.mean(np.log(counts), axis=1)

    for lo in range(0, M, cols_per_block):
        hi = min(M, lo + cols_per_block)
        xb = Xt[lo:hi]
        close = np.abs(xb[:, :, None] - xb[:, None, :]) <= r[lo:hi, None, None]
        match = close[:, : T - m + 1, : T - m + 1]
        for k in range(1, m):
            match = match & close[:, k : T - m + 1 + k, k : T - m + 1 + k]
        longer = match[:, :-1, :-1] & close[:, m:, m:]
        out[lo:hi] = phi(match) - phi(longer)
    return np.where(sd < 1e-18, 0.0, out)


def extract_tsfresh(X: np.ndarray) -> np.ndarray:
    """Compute the 112 TSFRESH-lite features per column of a (T, M) matrix.

    Returns a flat ``(M * 112,)`` vector, metric-major, ordered per
    :data:`TSFRESH_FEATURE_NAMES`. Because the layout is column-major a
    ``(T, B*M)`` panel of B equal-length runs yields ``(B*M*112,)``, which
    reshapes to one ``(B, M*112)`` feature row per run.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected (T, M), got {X.shape}")
    T, M = X.shape
    if T < 8:
        raise ValueError(f"need at least 8 timesteps, got {T}")
    if np.isnan(X).any():
        raise ValueError("input contains NaNs; interpolate first (see pipeline)")

    base = extract_mvts(X).reshape(M, len(MVTS_FEATURE_NAMES))
    extra = np.empty((len(_EXTRA_NAMES), M))

    # approximate entropy, whole matrix at once
    extra[0] = _approx_entropy_matrix(X)

    # Welch PSD over all columns at once
    nperseg = min(T, 64)
    freqs, psd = signal.welch(X, fs=1.0, nperseg=nperseg, axis=0)
    total_power = psd.sum(axis=0)
    safe_power = np.where(total_power > 1e-18, total_power, 1.0)
    bands = np.array_split(np.arange(len(freqs)), 4)
    for b, idx in enumerate(bands):
        extra[1 + b] = psd[idx].sum(axis=0) / safe_power
    # spectral centroid — np.sum, not `freqs @ psd`: BLAS accumulation
    # order varies with matrix width, which would break per-run vs
    # run-batched bit-identity (see _linfit in mvts.py)
    extra[5] = np.sum(freqs[:, None] * psd, axis=0) / safe_power
    p_norm = psd / safe_power
    with np.errstate(invalid="ignore", divide="ignore"):
        log_p = np.where(p_norm > 0, np.log(np.where(p_norm > 0, p_norm, 1.0)), 0.0)
    extra[6] = -np.sum(p_norm * log_p, axis=0)  # spectral entropy
    extra[7] = freqs[np.argmax(psd, axis=0)]  # dominant frequency

    # complexity / nonlinearity
    diffs = np.diff(X, axis=0)
    sd = X.std(axis=0)
    safe_sd = np.where(sd > 1e-18, sd, 1.0)
    extra[8] = np.sqrt(np.sum((diffs / safe_sd) ** 2, axis=0))  # normalized CID
    extra[9] = np.mean(X[2:] * X[1:-1] * X[:-2], axis=0)  # c3, lag 1
    extra[10] = np.mean(X[2:] ** 2 * X[1:-1] - X[1:-1] * X[:-2] ** 2, axis=0)

    # binned entropy, 10 bins per column
    mn, mx = X.min(axis=0), X.max(axis=0)
    span = np.where(mx - mn > 1e-18, mx - mn, 1.0)
    bins = np.clip(((X - mn) / span * 10).astype(int), 0, 9)
    be = np.zeros(M)
    for b in range(10):
        p = np.mean(bins == b, axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            be -= np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    extra[11] = be

    # peaks with support 3 (strictly greater than 3 neighbors each side)
    support = 3
    peak = np.ones((T - 2 * support, M), dtype=bool)
    center = X[support : T - support]
    for off in range(1, support + 1):
        peak &= center > X[support - off : T - support - off]
        peak &= center > X[support + off : T - support + off]
    extra[12] = peak.sum(axis=0)

    # every order statistic in one partition pass: each quantile's linear
    # interpolation is elementwise, so each equals its own one-quantile call
    # (the median stays np.median, which rounds unlike percentile(50))
    q10, q1, q30, q40, q60, q70, q3, q90, q99 = np.percentile(
        X, [10, 25, 30, 40, 60, 70, 75, 90, 99], axis=0
    )
    med = np.median(X, axis=0)
    extra[13], extra[14], extra[15], extra[16], extra[17] = q10, q30, q70, q90, q99

    # energy localization: chunk energies as fractions of total
    sq = X**2
    total_energy = np.where(sq.sum(axis=0) > 1e-18, sq.sum(axis=0), 1.0)
    for b, idx in enumerate(np.array_split(np.arange(T), 4)):
        extra[18 + b] = sq[idx].sum(axis=0) / total_energy

    # index mass quantiles: relative index where cumulative |x| mass passes q
    absX = np.abs(X)
    mass = np.cumsum(absX, axis=0)
    total_mass = np.where(mass[-1] > 1e-18, mass[-1], 1.0)
    rel = mass / total_mass
    for b, q in enumerate((0.25, 0.5, 0.75)):
        extra[22 + b] = (np.argmax(rel >= q, axis=0) + 1) / T

    # autocorrelation aggregates
    acs = np.stack([_autocorr(X, lag) for lag in range(1, 11)])
    extra[25] = acs.mean(axis=0)
    extra[26] = acs.std(axis=0)
    extra[27] = acs[4]
    extra[28] = acs[9]

    extra[29] = _longest_true_run(X > med)
    extra[30] = _longest_true_run(X < med)
    extra[31] = np.sum(X > q3, axis=0)
    extra[32] = np.sum(X < q1, axis=0)

    F = np.abs(np.fft.rfft(X, axis=0))
    extra[33] = F.mean(axis=0)
    extra[34] = F.std(axis=0)
    extra[35] = F[1] if F.shape[0] > 1 else np.zeros(M)

    # ---- second wave ---------------------------------------------------
    # aggregated linear trend over 4 chunk means
    chunk_means = np.stack(
        [X[idx].mean(axis=0) for idx in np.array_split(np.arange(T), 4)]
    )  # (4, M)
    tc = np.arange(4, dtype=np.float64)
    tc_c = tc - tc.mean()
    slope = np.sum(
        tc_c[:, None] * (chunk_means - chunk_means.mean(axis=0)), axis=0
    ) / np.sum(tc_c**2)
    fitted = chunk_means.mean(axis=0) + np.outer(tc_c, slope)
    resid = chunk_means - fitted
    extra[36] = slope
    extra[37] = np.sqrt(np.mean(resid**2, axis=0))

    # change statistics restricted to the interquartile corridor
    in_corridor = (X[:-1] >= q1) & (X[:-1] <= q3) & (X[1:] >= q1) & (X[1:] <= q3)
    abs_d = np.abs(diffs)
    n_in = np.maximum(in_corridor.sum(axis=0), 1)
    extra[38] = np.where(
        in_corridor.any(axis=0), (abs_d * in_corridor).sum(axis=0) / n_in, 0.0
    )
    corridor_mean = extra[38]
    sq_dev = ((abs_d - corridor_mean) ** 2) * in_corridor
    extra[39] = np.where(
        in_corridor.any(axis=0), np.sqrt(sq_dev.sum(axis=0) / n_in), 0.0
    )

    # duplication structure: distinct-value counts come from one
    # sort-along-axis-0 pass (adjacent inequalities in sorted order),
    # replacing the per-column np.unique loop
    mx_ = X.max(axis=0)
    mn_ = X.min(axis=0)
    n_unique = 1 + np.count_nonzero(np.diff(np.sort(X, axis=0), axis=0), axis=0)
    extra[40] = n_unique / T
    extra[41] = (np.sum(X == mx_, axis=0) > 1).astype(float)
    extra[42] = (np.sum(X == mn_, axis=0) > 1).astype(float)

    # AR(2) coefficients via Yule-Walker, and the lag-2 PACF
    r1 = _autocorr(X, 1)
    r2 = _autocorr(X, 2)
    denom = np.where(np.abs(1 - r1**2) > 1e-12, 1 - r1**2, 1.0)
    phi2 = (r2 - r1**2) / denom  # lag-2 partial autocorrelation
    phi1 = r1 * (1 - phi2)
    extra[43] = phi1
    extra[44] = phi2
    extra[45] = phi2  # pacf_lag2 (same quantity, kept under its own name)

    # spectral shape: central moments of the normalized PSD over frequency
    centroid = extra[5]
    fdev = freqs[:, None] - centroid[None, :]
    psd_norm = psd / safe_power
    m2 = np.sum(psd_norm * fdev**2, axis=0)
    safe_m2 = np.where(m2 > 1e-18, m2, 1.0)
    extra[46] = m2
    extra[47] = np.where(
        m2 > 1e-18, np.sum(psd_norm * fdev**3, axis=0) / safe_m2**1.5, 0.0
    )
    extra[48] = np.where(
        m2 > 1e-18, np.sum(psd_norm * fdev**4, axis=0) / safe_m2**2, 0.0
    )

    # order statistics / level-crossing families
    k_top = min(7, T)
    extra[49] = np.mean(
        np.sort(np.abs(X), axis=0)[-k_top:], axis=0
    )  # mean of 7 largest |x|
    sign_med = np.sign(X - med)
    extra[50] = np.sum(np.abs(np.diff(sign_med, axis=0)) > 1, axis=0)
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    extra[51] = np.mean(np.abs(X - mu) <= sd, axis=0)  # range_count ±1σ
    extra[52] = (sd**2 > sd).astype(float)  # variance larger than std
    extra[53] = 1.0 - n_unique / T  # fraction of reoccurring points
    extra[54] = q40
    extra[55] = q60

    # higher-lag nonlinearity
    extra[56] = np.mean(X[4:] * X[2:-2] * X[:-4], axis=0)  # c3, lag 2
    extra[57] = np.mean(X[4:] ** 2 * X[2:-2] - X[2:-2] * X[:-4] ** 2, axis=0)

    # peak counts at other supports
    for slot, support_k in ((58, 1), (59, 5)):
        if T <= 2 * support_k:
            extra[slot] = 0.0
            continue
        pk = np.ones((T - 2 * support_k, M), dtype=bool)
        center_k = X[support_k : T - support_k]
        for off in range(1, support_k + 1):
            pk &= center_k > X[support_k - off : T - support_k - off]
            pk &= center_k > X[support_k + off : T - support_k + off]
        extra[slot] = pk.sum(axis=0)

    # where the extreme regime lives in time
    above = X > q90
    any_above = above.any(axis=0)
    first = np.argmax(above, axis=0) / T
    last = (T - 1 - np.argmax(above[::-1], axis=0)) / T
    extra[60] = np.where(any_above, first, 1.0)
    extra[61] = np.where(any_above, last, 0.0)

    extra[62] = np.sum(np.abs(diffs), axis=0)
    extra[63] = np.sqrt(np.sum(diffs**2, axis=0))  # unnormalized CID

    return np.hstack([base, extra.T]).ravel()


def feature_names_for(metric_names: list[str]) -> list[str]:
    """Full feature-name list matching :func:`extract_tsfresh` output order."""
    return [f"{m}::{f}" for m in metric_names for f in TSFRESH_FEATURE_NAMES]

"""Reference implementations the vectorized feature kernels must match.

Each function here is the straightforward form a faster kernel in
``repro.features`` replaced: per-column loops, and the single-body
extractors that compute every statistic of every column in one pass,
which became statistic groups run on planned columns. They live in the tests
only: the kernels are pinned bitwise against them (``np.array_equal``,
no tolerance), and the data-plane bench times the kernels against them.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import welch

from repro.features.mvts import _longest_true_run
from repro.features.tsfresh_lite import _approx_entropy_matrix


def approx_entropy_column(
    x: np.ndarray, m: int = 2, r_frac: float = 0.2, max_len: int = 128
) -> float:
    """Approximate entropy of one series (Pincus 1991).

    Uses embedding dimension ``m`` and tolerance ``r = r_frac * std``.
    Constant series and series of at most ``m + 1`` samples return 0. The
    O(T²) pairwise comparison runs on the first ``max_len`` samples.
    Oracle for ``repro.features.tsfresh_lite._approx_entropy_matrix``.
    """
    if len(x) > max_len:
        x = x[:max_len]
    T = len(x)
    sd = x.std()
    if sd < 1e-18 or T <= m + 1:
        return 0.0
    r = r_frac * sd

    def phi(mm: int) -> float:
        # embedding matrix (n, mm), pairwise Chebyshev distances (n, n)
        emb = np.lib.stride_tricks.sliding_window_view(x, mm)
        dist = np.max(np.abs(emb[:, None, :] - emb[None, :, :]), axis=2)
        counts = np.mean(dist <= r, axis=1)
        return float(np.mean(np.log(counts)))

    return phi(m) - phi(m + 1)


def longest_true_run_loop(mask: np.ndarray) -> np.ndarray:
    """Per-column length of the longest run of True in a (T, M) mask.

    The row-by-row loop that ``repro.features.mvts._longest_true_run``
    replaced with a prefix max.
    """
    T, M = mask.shape
    best = np.zeros(M, dtype=np.int64)
    current = np.zeros(M, dtype=np.int64)
    for t in range(T):
        current = np.where(mask[t], current + 1, 0)
        best = np.maximum(best, current)
    return best


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


def extract_mvts_monolithic(X: np.ndarray) -> np.ndarray:
    """All 48 MVTS features of every column in one function body.

    The single-pass form ``repro.features.mvts.extract_mvts`` split into
    statistic groups. Returns the flat metric-major ``(M * 48,)`` vector.
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
    z2 = z * z
    feats[10] = np.where(sd > 1e-18, np.mean(z2 * z, axis=0), 0.0)  # skew
    feats[11] = np.where(sd > 1e-18, np.mean(z2 * z2, axis=0) - 3.0, 0.0)  # ex. kurtosis
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


def extract_tsfresh_monolithic(X: np.ndarray) -> np.ndarray:
    """All 112 TSFRESH-lite features of every column in one function body.

    The single-pass form ``repro.features.tsfresh_lite.extract_tsfresh``
    split into statistic groups. Returns the flat metric-major
    ``(M * 112,)`` vector.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected (T, M), got {X.shape}")
    T, M = X.shape
    if T < 8:
        raise ValueError(f"need at least 8 timesteps, got {T}")
    if np.isnan(X).any():
        raise ValueError("input contains NaNs; interpolate first (see pipeline)")

    base = extract_mvts_monolithic(X).reshape(M, 48)
    extra = np.empty((64, M))

    # approximate entropy, whole matrix at once
    extra[0] = _approx_entropy_matrix(X)

    # Welch PSD over all columns at once
    nperseg = min(T, 64)
    freqs, psd = welch(X, fs=1.0, nperseg=nperseg, axis=0)
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
    fdev2 = fdev * fdev
    m2 = np.sum(psd_norm * fdev2, axis=0)
    safe_m2 = np.where(m2 > 1e-18, m2, 1.0)
    extra[46] = m2
    extra[47] = np.where(
        m2 > 1e-18, np.sum(psd_norm * (fdev2 * fdev), axis=0) / safe_m2**1.5, 0.0
    )
    extra[48] = np.where(
        m2 > 1e-18, np.sum(psd_norm * (fdev2 * fdev2), axis=0) / safe_m2**2, 0.0
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

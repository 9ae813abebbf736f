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
shifted ANDs (:func:`_approx_entropy_matrix`), the quantiles of both
feature sets come from one ``np.percentile`` call on the sorted columns,
and the distinct-value counts from the same sort. The hot path contains
no per-metric Python loop.

The 112 features are the 12 MVTS statistic groups plus 19 more
(:data:`TSFRESH_GROUPS`), among them ApEn, the Welch spectrum and its
shape, autocorrelation aggregates and AR, peaks and duplication counts.
As in :mod:`repro.features.mvts`, :func:`extract_tsfresh` runs each group
only on the columns its plan names, and the groups share intermediates
through a :class:`TsfreshPanel`: a model that selects ApEn on a few
columns pays for the costliest kernel on those columns only.

Like :mod:`repro.features.mvts`, every kernel treats columns
independently with width-stable accumulation, so the column count is
arbitrary: the batched pipeline ``hstack``s equal-length runs into one
``(T, B*M)`` panel and calls :func:`extract_tsfresh` once, bit-identical
to per-run extraction. ApEn's column blocking is sized for such wide
panels (see :func:`_approx_entropy_matrix`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .mvts import (
    MVTS_FEATURE_NAMES,
    MVTS_GROUPS,
    GroupPlan,
    Panel,
    StatGroup,
    _longest_true_run,
    checked_panel,
    extract_groups,
    stat_group,
)

__all__ = [
    "TSFRESH_FEATURE_NAMES",
    "TSFRESH_GROUPS",
    "TsfreshPanel",
    "extract_tsfresh",
    "feature_names_for",
]

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


def _welch(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Welch frequencies and PSD of every column of ``X`` (T, M).

    Bitwise-equal to ``scipy.signal.welch(X, fs=1.0, nperseg=min(T, 64),
    axis=0)`` on scipy 1.17 (``tests/features/test_welch.py`` holds scipy
    as the oracle): it repeats the operations of its ``ShortTimeFFT``
    path, in the same order and on the same memory layouts. Periodic Hann
    window scaled to unit power before the FFT, segments of ``n`` samples
    every ``n - n // 2``, constant detrend, one-sided doubling, mean over
    segments.
    """
    T, M = X.shape
    n = min(T, 64)
    hop = n - n // 2
    n_seg = (T - n // 2) // hop
    if n == 1:  # scipy's length guard: the formula would give [0.0]
        win = np.ones(1)
    else:
        win = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]
    # builtin sum, as scipy does: np.sum would round differently
    win = win * (1 / np.sqrt(sum(win**2)))
    # the layout decides how the detrend mean accumulates: scipy pads a
    # copy of (M, T) in F order only if it is F- and not C-contiguous
    x = X[: min(n_seg * hop + n, T)].T
    x = np.asarray(x, order="F" if x.flags.fnc else "C")
    segs = np.lib.stride_tricks.sliding_window_view(x, n, axis=-1)[:, ::hop][:, :n_seg]
    segs = segs - np.mean(segs, -1, keepdims=True)
    spec = np.fft.rfft(segs * win, n, axis=-1)
    # (M, freq, segment) contiguous: the mean sums each contiguous segment
    # axis pairwise, and the (freq, M) result is F-ordered like scipy's
    power = (spec.real**2 + spec.imag**2).transpose(0, 2, 1).copy()
    power[:, 1 : None if n % 2 else -1] *= 2
    return np.fft.rfftfreq(n, 1.0), power.mean(axis=-1).T


class TsfreshPanel(Panel):
    """A :class:`~repro.features.mvts.Panel` with the intermediates the
    TSFRESH-lite groups add: one percentile pass serves both feature sets'
    quantiles, and the Welch spectrum is shared by its two groups."""

    QUANTILES = (5, 10, 25, 30, 40, 50, 60, 70, 75, 90, 95, 99)

    @cached_property
    def median(self) -> np.ndarray:
        # np.median, which rounds unlike percentile(50)
        return np.median(self.ascending, axis=0)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Welch frequencies, PSD and the total power safe to divide by."""
        freqs, psd = _welch(self.X)
        total_power = psd.sum(axis=0)
        return freqs, psd, np.where(total_power > 1e-18, total_power, 1.0)

    @cached_property
    def psd_norm(self) -> np.ndarray:
        _, psd, safe_power = self.spectrum
        return psd / safe_power

    @cached_property
    def centroid(self) -> np.ndarray:
        # np.sum, not `freqs @ psd`: BLAS accumulation order varies with
        # matrix width, which would break per-run vs run-batched
        # bit-identity (see _linfit in mvts.py)
        freqs, psd, safe_power = self.spectrum
        return np.sum(freqs[:, None] * psd, axis=0) / safe_power


def _count_peaks(X: np.ndarray, support: int) -> np.ndarray:
    """Samples strictly greater than ``support`` neighbours on each side."""
    T, M = X.shape
    if T <= 2 * support:
        return np.zeros(M)
    peak = np.ones((T - 2 * support, M), dtype=bool)
    center = X[support : T - support]
    for off in range(1, support + 1):
        peak &= center > X[support - off : T - support - off]
        peak &= center > X[support + off : T - support + off]
    return peak.sum(axis=0)


_groups: list[StatGroup] = []


def _group(*stats: str):
    return stat_group(_groups, TSFRESH_FEATURE_NAMES, *stats)


@_group("approx_entropy")
def _apen(p: TsfreshPanel) -> tuple:
    return (_approx_entropy_matrix(p.X),)


@_group(
    "psd_band0", "psd_band1", "psd_band2", "psd_band3",
    "spectral_centroid", "spectral_entropy", "max_psd_freq",
)
def _spectrum(p: TsfreshPanel) -> tuple:
    freqs, psd, safe_power = p.spectrum
    bands = [
        psd[idx].sum(axis=0) / safe_power
        for idx in np.array_split(np.arange(len(freqs)), 4)
    ]
    p_norm = p.psd_norm
    with np.errstate(invalid="ignore", divide="ignore"):
        log_p = np.where(p_norm > 0, np.log(np.where(p_norm > 0, p_norm, 1.0)), 0.0)
    return (
        *bands,
        p.centroid,
        -np.sum(p_norm * log_p, axis=0),  # spectral entropy
        freqs[np.argmax(psd, axis=0)],  # dominant frequency
    )


@_group("psd_variance", "psd_skewness", "psd_kurtosis")
def _spectral_shape(p: TsfreshPanel) -> tuple:
    # central moments of the normalized PSD over frequency
    freqs = p.spectrum[0]
    fdev = freqs[:, None] - p.centroid[None, :]
    psd_norm = p.psd_norm
    sq = fdev * fdev
    m2 = np.sum(psd_norm * sq, axis=0)
    safe_m2 = np.where(m2 > 1e-18, m2, 1.0)
    # the 3rd and 4th powers as exact products, not pow() (see mvts._skew)
    fdev *= sq
    m3 = np.sum(psd_norm * fdev, axis=0)
    sq *= sq
    m4 = np.sum(psd_norm * sq, axis=0)
    return (
        m2,
        np.where(m2 > 1e-18, m3 / safe_m2**1.5, 0.0),
        np.where(m2 > 1e-18, m4 / safe_m2**2, 0.0),
    )


@_group("cid_ce", "sum_abs_changes", "cid_ce_unnormalized")
def _complexity(p: TsfreshPanel) -> tuple:
    diffs = p.diffs
    return (
        np.sqrt(np.sum((diffs / p.safe_sd) ** 2, axis=0)),  # normalized CID
        np.sum(p.abs_diffs, axis=0),
        np.sqrt(np.sum(diffs**2, axis=0)),  # unnormalized CID
    )


@_group("c3_lag1", "time_reversal_asymmetry", "c3_lag2", "trev_lag2")
def _nonlinearity(p: TsfreshPanel) -> tuple:
    X = p.X
    return (
        np.mean(X[2:] * X[1:-1] * X[:-2], axis=0),
        np.mean(X[2:] ** 2 * X[1:-1] - X[1:-1] * X[:-2] ** 2, axis=0),
        np.mean(X[4:] * X[2:-2] * X[:-4], axis=0),
        np.mean(X[4:] ** 2 * X[2:-2] - X[2:-2] * X[:-4] ** 2, axis=0),
    )


@_group("binned_entropy")
def _binned_entropy(p: TsfreshPanel) -> tuple:
    # 10 bins per column
    mn, mx = p.mn, p.mx
    span = np.where(mx - mn > 1e-18, mx - mn, 1.0)
    bins = np.clip(((p.X - mn) / span * 10).astype(int), 0, 9)
    be = np.zeros(p.X.shape[1])
    for b in range(10):
        pb = np.mean(bins == b, axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            be -= np.where(pb > 0, pb * np.log(np.where(pb > 0, pb, 1.0)), 0.0)
    return (be,)


@_group("number_peaks", "number_peaks_s1", "number_peaks_s5")
def _peaks(p: TsfreshPanel) -> tuple:
    return tuple(_count_peaks(p.X, support) for support in (3, 1, 5))


@_group(
    "quantile_10", "quantile_30", "quantile_70", "quantile_90", "quantile_99",
    "quantile_40", "quantile_60", "count_above_q3", "count_below_q1",
    "first_loc_above_q90", "last_loc_above_q90",
)
def _quantiles(p: TsfreshPanel) -> tuple:
    X, T, q = p.X, p.T, p.quantiles
    # where the extreme regime lives in time
    above = X > q[90]
    any_above = above.any(axis=0)
    first = np.argmax(above, axis=0) / T
    last = (T - 1 - np.argmax(above[::-1], axis=0)) / T
    return (
        q[10], q[30], q[70], q[90], q[99], q[40], q[60],
        np.sum(X > q[75], axis=0),
        np.sum(X < q[25], axis=0),
        np.where(any_above, first, 1.0),
        np.where(any_above, last, 0.0),
    )


@_group("energy_chunk0", "energy_chunk1", "energy_chunk2", "energy_chunk3")
def _energy(p: TsfreshPanel) -> tuple:
    # chunk energies as fractions of the total
    sq = p.sq
    energy = sq.sum(axis=0)
    total_energy = np.where(energy > 1e-18, energy, 1.0)
    return tuple(
        sq[idx].sum(axis=0) / total_energy for idx in np.array_split(np.arange(p.T), 4)
    )


@_group("index_mass_q25", "index_mass_q50", "index_mass_q75")
def _index_mass(p: TsfreshPanel) -> tuple:
    # relative index where the cumulative |x| mass passes q
    mass = np.cumsum(p.abs, axis=0)
    total_mass = np.where(mass[-1] > 1e-18, mass[-1], 1.0)
    rel = mass / total_mass
    return tuple((np.argmax(rel >= q, axis=0) + 1) / p.T for q in (0.25, 0.5, 0.75))


@_group("autocorr_mean_1_10", "autocorr_std_1_10", "autocorr_lag5", "autocorr_lag10")
def _autocorr_aggregates(p: TsfreshPanel) -> tuple:
    acs = np.stack([p.autocorr(lag) for lag in range(1, 11)])
    return acs.mean(axis=0), acs.std(axis=0), acs[4], acs[9]


@_group("ar_coef_1", "ar_coef_2", "pacf_lag2")
def _autoregressive(p: TsfreshPanel) -> tuple:
    # AR(2) coefficients via Yule-Walker, and the lag-2 PACF
    r1, r2 = p.autocorr(1), p.autocorr(2)
    denom = np.where(np.abs(1 - r1**2) > 1e-12, 1 - r1**2, 1.0)
    phi2 = (r2 - r1**2) / denom  # lag-2 partial autocorrelation
    phi1 = r1 * (1 - phi2)
    return phi1, phi2, phi2  # pacf_lag2: same quantity, its own name


@_group("longest_strike_above_median", "longest_strike_below_median", "crossings_median")
def _median_strikes(p: TsfreshPanel) -> tuple:
    X, med = p.X, p.median
    sign_med = np.sign(X - med)
    return (
        _longest_true_run(X > med),
        _longest_true_run(X < med),
        np.sum(np.abs(np.diff(sign_med, axis=0)) > 1, axis=0),
    )


@_group("fft_abs_mean", "fft_abs_std", "fft_abs_coeff1")
def _fft(p: TsfreshPanel) -> tuple:
    F = np.abs(np.fft.rfft(p.X, axis=0))
    return F.mean(axis=0), F.std(axis=0), F[1] if F.shape[0] > 1 else np.zeros(p.X.shape[1])


@_group("agg_trend_slope", "agg_trend_stderr")
def _aggregated_trend(p: TsfreshPanel) -> tuple:
    # linear trend over 4 chunk means
    X = p.X
    chunk_means = np.stack(
        [X[idx].mean(axis=0) for idx in np.array_split(np.arange(p.T), 4)]
    )  # (4, M)
    tc = np.arange(4, dtype=np.float64)
    tc_c = tc - tc.mean()
    slope = np.sum(
        tc_c[:, None] * (chunk_means - chunk_means.mean(axis=0)), axis=0
    ) / np.sum(tc_c**2)
    fitted = chunk_means.mean(axis=0) + np.outer(tc_c, slope)
    resid = chunk_means - fitted
    return slope, np.sqrt(np.mean(resid**2, axis=0))


@_group("change_quantiles_mean_abs", "change_quantiles_std")
def _change_quantiles(p: TsfreshPanel) -> tuple:
    # change statistics restricted to the interquartile corridor
    X, q1, q3 = p.X, p.quantiles[25], p.quantiles[75]
    in_corridor = (X[:-1] >= q1) & (X[:-1] <= q3) & (X[1:] >= q1) & (X[1:] <= q3)
    abs_d = p.abs_diffs
    n_in = np.maximum(in_corridor.sum(axis=0), 1)
    any_in = in_corridor.any(axis=0)
    corridor_mean = np.where(any_in, (abs_d * in_corridor).sum(axis=0) / n_in, 0.0)
    sq_dev = ((abs_d - corridor_mean) ** 2) * in_corridor
    return corridor_mean, np.where(any_in, np.sqrt(sq_dev.sum(axis=0) / n_in), 0.0)


@_group("ratio_unique_values", "has_duplicate_max", "has_duplicate_min", "pct_reoccurring_points")
def _duplicates(p: TsfreshPanel) -> tuple:
    # distinct-value counts are the adjacent inequalities of the sorted
    # columns
    X, T = p.X, p.T
    n_unique = 1 + np.count_nonzero(np.diff(p.ascending, axis=0), axis=0)
    return (
        n_unique / T,
        (np.sum(X == p.mx, axis=0) > 1).astype(float),
        (np.sum(X == p.mn, axis=0) > 1).astype(float),
        1.0 - n_unique / T,
    )


@_group("mean_abs_max_7")
def _top_abs(p: TsfreshPanel) -> tuple:
    k_top = min(7, p.T)
    return (np.mean(np.sort(p.abs, axis=0)[-k_top:], axis=0),)  # mean of 7 largest |x|


@_group("range_count_1sigma", "variance_gt_std")
def _sigma(p: TsfreshPanel) -> tuple:
    sd = p.sd
    return (
        np.mean(np.abs(p.centered) <= sd, axis=0),  # range_count ±1σ
        (sd**2 > sd).astype(float),  # variance larger than std
    )


TSFRESH_GROUPS: tuple[StatGroup, ...] = MVTS_GROUPS + tuple(_groups)

assert sorted(s for g in TSFRESH_GROUPS for s in g.slots) == list(range(112))


def extract_tsfresh(X: np.ndarray, plan: GroupPlan | None = None) -> np.ndarray:
    """Compute the 112 TSFRESH-lite features per column of a (T, M) matrix.

    Returns a flat ``(M * 112,)`` vector, metric-major, ordered per
    :data:`TSFRESH_FEATURE_NAMES`. Because the layout is column-major a
    ``(T, B*M)`` panel of B equal-length runs yields ``(B*M*112,)``, which
    reshapes to one ``(B, M*112)`` feature row per run. ``plan`` names,
    for each group of :data:`TSFRESH_GROUPS`, the columns it runs on (see
    :func:`~repro.features.mvts.extract_groups`); cells left out are NaN.
    """
    X = checked_panel(X, 8)
    return extract_groups(X, TSFRESH_GROUPS, TsfreshPanel, plan).T.ravel()


def feature_names_for(metric_names: list[str]) -> list[str]:
    """Full feature-name list matching :func:`extract_tsfresh` output order."""
    return [f"{m}::{f}" for m in metric_names for f in TSFRESH_FEATURE_NAMES]

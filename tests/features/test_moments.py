"""What the higher moments mean, held against independent references.

The extractors compute ``z**3`` and ``z**4`` (and the PSD's third and
fourth central moments) as exact products, which round differently from
``pow`` in the last place. The bitwise oracles in ``oracles.py`` pin the
kernels' bits; these tests pin their values: skewness and excess kurtosis
against ``scipy.stats``, the spectral moments against a per-column float
loop over scipy's Welch PSD, and each zero-variance guard to exactly 0.
"""

import math

import numpy as np
import pytest
from scipy import signal, stats

from repro.features.mvts import MVTS_FEATURE_NAMES, extract_mvts
from repro.features.tsfresh_lite import TSFRESH_FEATURE_NAMES, extract_tsfresh

RTOL, ATOL = 1e-10, 1e-12


def _stat(flat: np.ndarray, names: list[str], name: str) -> np.ndarray:
    """One named statistic of every column of a metric-major feature row."""
    return flat.reshape(-1, len(names))[:, names.index(name)]


def _panels() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(28)
    T = 200
    near_constant = 5.0 + rng.normal(scale=1e-6, size=(T, 12))
    near_constant[:, 6:] = 1e3 + rng.normal(scale=1e-4, size=(T, 6))
    return {
        "random": rng.normal(loc=rng.normal(size=20), scale=rng.uniform(0.1, 5, 20),
                             size=(T, 20)),
        "skewed": rng.exponential(scale=2.0, size=(T, 16)) - 1.0,
        "heavy-tailed": rng.standard_t(df=2.5, size=(T, 16)) * 100.0,
        "near-constant": near_constant,
        "walk": rng.normal(size=(T, 10)).cumsum(axis=0),
    }


PANELS = _panels()


@pytest.mark.parametrize("name", PANELS)
def test_skew_and_kurtosis_match_scipy(name):
    X = PANELS[name]
    flat = extract_mvts(X)
    live = X.std(axis=0) > 1e-18
    assert live.all(), "every test column must have a nonzero spread"
    np.testing.assert_allclose(
        _stat(flat, MVTS_FEATURE_NAMES, "skew"), stats.skew(X, axis=0, bias=True),
        rtol=RTOL, atol=ATOL,
    )
    np.testing.assert_allclose(
        _stat(flat, MVTS_FEATURE_NAMES, "kurtosis"),
        stats.kurtosis(X, axis=0, fisher=True, bias=True),
        rtol=RTOL, atol=ATOL,
    )


def _spectral_moments(freqs: np.ndarray, psd: np.ndarray) -> tuple[float, float, float]:
    """Variance, skewness and kurtosis of one column's normalized PSD over
    frequency, one float at a time with exact sums."""
    f, p = [float(v) for v in freqs], [float(v) for v in psd]
    total = math.fsum(p)
    w = [v / total for v in p]
    centroid = math.fsum(wi * fi for wi, fi in zip(w, f))
    m2, m3, m4 = (
        math.fsum(wi * (fi - centroid) ** k for wi, fi in zip(w, f)) for k in (2, 3, 4)
    )
    return m2, m3 / m2**1.5, m4 / m2**2


@pytest.mark.parametrize("name", PANELS)
def test_psd_moments_match_float_loop(name):
    X = PANELS[name]
    flat = extract_tsfresh(X)
    freqs, psd = signal.welch(X, fs=1.0, nperseg=min(len(X), 64), axis=0)
    want = np.array([_spectral_moments(freqs, psd[:, j]) for j in range(X.shape[1])])
    for k, stat in enumerate(("psd_variance", "psd_skewness", "psd_kurtosis")):
        np.testing.assert_allclose(
            _stat(flat, TSFRESH_FEATURE_NAMES, stat), want[:, k],
            rtol=RTOL, atol=ATOL, err_msg=stat,
        )


def test_zero_spread_guards_return_exact_zero():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(128, 5))
    X[:, 0] = 3.0  # sd == 0 and no spectral power
    X[:, 1] = np.resize([0.0, 1e-20], 128)  # 0 < sd <= 1e-18
    X[:, 2] = 1e-12 * rng.normal(size=128)  # power, but m2 <= 1e-18
    sd = X.std(axis=0)
    assert sd[0] == 0.0 and 0.0 < sd[1] <= 1e-18
    flat = extract_tsfresh(X)
    assert 0.0 < _stat(flat, TSFRESH_FEATURE_NAMES, "psd_variance")[2] <= 1e-18
    for stat in ("skew", "kurtosis", "psd_skewness", "psd_kurtosis"):
        got = _stat(flat, TSFRESH_FEATURE_NAMES, stat)
        guarded = 3 if stat.startswith("psd") else 2
        assert np.all(got[:guarded] == 0.0) and np.all(got[3:] != 0.0), stat
    mvts = extract_mvts(X)
    for stat in ("skew", "kurtosis"):
        assert np.all(_stat(mvts, MVTS_FEATURE_NAMES, stat)[:2] == 0.0), stat

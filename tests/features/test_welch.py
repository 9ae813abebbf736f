"""The numpy Welch PSD against ``scipy.signal.welch`` as its oracle.

``repro.features.tsfresh_lite._welch`` repeats the operations of scipy
1.17's ``csd`` -> ``ShortTimeFFT`` path, so there the frequencies, the
PSD and the PSD's memory layout (which decides how the spectral features
sum it) are bitwise-equal. Older scipy releases run ``csd`` through
``_spectral_helper``, which rounds differently: those are held to 1e-12 of
each column's peak power instead.
"""

import numpy as np
import pytest
import scipy
from scipy.signal import welch

from repro.features.tsfresh_lite import _welch

EXACT = tuple(int(p) for p in scipy.__version__.split(".")[:2]) >= (1, 17)

# 1..11 and both sides of one and two windows; 320 and 600 samples make
# 9 and 17 segments, enough for the segment mean to sum pairwise
LENGTHS = [*range(1, 12), 63, 64, 65, 127, 128, 129, 320, 600]


def _panels(T: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(T)
    walk = rng.normal(size=(T, 40)).cumsum(axis=0)
    walk[:, 3] = 2.5  # a constant column
    walk[:, 7] = 0.0
    return {
        "one column": rng.normal(size=(T, 1)),
        "wide walk": walk,
        "F-ordered": np.asfortranarray(walk),
        "column view": rng.normal(scale=1e3, size=(T, 90))[:, ::3],
    }


@pytest.mark.parametrize("T", LENGTHS)
def test_matches_scipy_welch(T):
    for name, X in _panels(T).items():
        freqs, psd = _welch(X)
        ref_freqs, ref_psd = welch(X, fs=1.0, nperseg=min(T, 64), axis=0)
        assert psd.shape == ref_psd.shape, name
        if EXACT:
            assert np.array_equal(freqs, ref_freqs), name
            assert np.array_equal(psd, ref_psd), name
            # the features reduce the PSD over frequency; equal sums pin
            # the layout the reduction order depends on
            assert np.array_equal(psd.sum(axis=0), ref_psd.sum(axis=0)), name
        else:
            np.testing.assert_allclose(freqs, ref_freqs, rtol=1e-12, atol=0, err_msg=name)
            np.testing.assert_allclose(
                psd, ref_psd, rtol=1e-12, atol=1e-12 * np.abs(ref_psd).max(), err_msg=name,
            )


def test_constant_panel_has_zero_power():
    freqs, psd = _welch(np.full((100, 3), 7.0))
    assert np.array_equal(freqs, np.fft.rfftfreq(64, 1.0))
    assert not psd.any()

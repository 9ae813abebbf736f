"""Tests for TSFRESH-lite feature extraction."""

import numpy as np
import pytest

from repro.features.mvts import MVTS_FEATURE_NAMES, extract_mvts
from repro.features.tsfresh_lite import (
    TSFRESH_FEATURE_NAMES,
    extract_tsfresh,
    feature_names_for,
)
from tests.features.oracles import approx_entropy_column as _approx_entropy_column

IDX = {name: i for i, name in enumerate(TSFRESH_FEATURE_NAMES)}
W = len(TSFRESH_FEATURE_NAMES)


def _feat(X, metric, name):
    return extract_tsfresh(X)[metric * W + IDX[name]]


class TestInventory:
    def test_112_features_superset_of_mvts(self):
        assert len(TSFRESH_FEATURE_NAMES) == 112
        assert TSFRESH_FEATURE_NAMES[:48] == MVTS_FEATURE_NAMES
        assert len(set(TSFRESH_FEATURE_NAMES)) == 112

    def test_output_length_and_names(self):
        X = np.random.default_rng(0).normal(size=(64, 3))
        assert extract_tsfresh(X).shape == (3 * 112,)
        names = feature_names_for(["a", "b"])
        assert len(names) == 224 and names[112] == "b::mean"

    def test_mvts_block_matches_standalone_mvts(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2))
        ts = extract_tsfresh(X).reshape(2, 112)
        mv = extract_mvts(X).reshape(2, 48)
        assert np.allclose(ts[:, :48], mv)


class TestValidation:
    def test_rejects_nan(self):
        X = np.ones((20, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            extract_tsfresh(X)

    def test_rejects_short(self):
        with pytest.raises(ValueError, match="at least 8"):
            extract_tsfresh(np.ones((5, 1)))


class TestApproxEntropy:
    def test_constant_is_zero(self):
        assert _approx_entropy_column(np.full(50, 3.0)) == 0.0

    def test_noise_more_entropic_than_sine(self):
        rng = np.random.default_rng(0)
        t = np.arange(200, dtype=float)
        sine = np.sin(2 * np.pi * t / 20)
        noise = rng.normal(size=200)
        assert _approx_entropy_column(noise) > _approx_entropy_column(sine)

    def test_long_series_capped(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=2000)
        a = _approx_entropy_column(x, max_len=256)
        b = _approx_entropy_column(x[:256], max_len=256)
        assert a == b


class TestSpectral:
    def test_dominant_frequency_of_sine(self):
        t = np.arange(128, dtype=float)
        period = 16.0
        X = np.sin(2 * np.pi * t / period).reshape(-1, 1)
        f = _feat(X, 0, "max_psd_freq")
        assert f == pytest.approx(1.0 / period, abs=0.02)

    def test_spectral_entropy_higher_for_noise(self):
        rng = np.random.default_rng(0)
        t = np.arange(128, dtype=float)
        X = np.column_stack([np.sin(2 * np.pi * t / 16), rng.normal(size=128)])
        flat = extract_tsfresh(X).reshape(2, W)
        i = IDX["spectral_entropy"]
        assert flat[1, i] > flat[0, i]

    def test_band_powers_sum_to_one(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 3))
        flat = extract_tsfresh(X).reshape(3, W)
        bands = flat[:, [IDX[f"psd_band{b}"] for b in range(4)]]
        assert np.allclose(bands.sum(axis=1), 1.0, atol=1e-9)


class TestComplexity:
    def test_cid_larger_for_noise(self):
        rng = np.random.default_rng(0)
        t = np.arange(100, dtype=float)
        smooth = np.sin(2 * np.pi * t / 50)
        jagged = rng.normal(size=100)
        X = np.column_stack([smooth, jagged])
        flat = extract_tsfresh(X).reshape(2, W)
        assert flat[1, IDX["cid_ce"]] > flat[0, IDX["cid_ce"]]

    def test_binned_entropy_uniform_beats_constant(self):
        X = np.column_stack([np.linspace(0, 1, 100), np.full(100, 0.5)])
        flat = extract_tsfresh(X).reshape(2, W)
        i = IDX["binned_entropy"]
        assert flat[0, i] > flat[1, i]

    def test_number_peaks_of_sine(self):
        t = np.arange(100, dtype=float)
        X = np.sin(2 * np.pi * t / 20).reshape(-1, 1)
        assert _feat(X, 0, "number_peaks") == pytest.approx(5, abs=1)

    def test_energy_chunks_localize_a_burst(self):
        x = np.full(100, 0.001)
        x[:25] = 5.0  # all the energy in the first quarter
        X = x.reshape(-1, 1)
        flat = extract_tsfresh(X)
        assert flat[IDX["energy_chunk0"]] > 0.95

    def test_index_mass_quantile_of_front_loaded_signal(self):
        x = np.concatenate([np.full(20, 10.0), np.full(80, 0.01)])
        X = x.reshape(-1, 1)
        assert _feat(X, 0, "index_mass_q50") < 0.2


class TestRobustness:
    def test_constant_matrix_finite(self):
        X = np.full((60, 3), 2.5)
        assert np.all(np.isfinite(extract_tsfresh(X)))

    def test_extreme_scale_finite(self):
        rng = np.random.default_rng(3)
        X = rng.normal(scale=1e8, size=(64, 2))
        assert np.all(np.isfinite(extract_tsfresh(X)))

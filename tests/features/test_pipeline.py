"""Tests for the preprocessing + extraction pipeline."""

import numpy as np
import pytest

from repro.features.pipeline import (
    FeatureDataset,
    FeatureExtractor,
    interpolate_missing,
    preprocess_run,
)
from repro.telemetry.collector import RunRecord


class TestInterpolation:
    def test_fills_interior_gap_linearly(self):
        col = np.array([0.0, np.nan, np.nan, 3.0]).reshape(-1, 1)
        out = interpolate_missing(col)
        assert np.allclose(out.ravel(), [0.0, 1.0, 2.0, 3.0])

    def test_edge_nans_take_nearest(self):
        col = np.array([np.nan, 1.0, 2.0, np.nan]).reshape(-1, 1)
        out = interpolate_missing(col)
        assert np.allclose(out.ravel(), [1.0, 1.0, 2.0, 2.0])

    def test_all_nan_column_becomes_zero(self):
        col = np.full((5, 1), np.nan)
        assert np.all(interpolate_missing(col) == 0.0)

    def test_untouched_when_complete(self):
        X = np.arange(12, dtype=float).reshape(6, 2)
        assert np.array_equal(interpolate_missing(X), X)


class TestPreprocess:
    def test_counter_columns_are_differenced(self):
        T = 50
        data = np.zeros((T, 2))
        data[:, 0] = np.arange(T) * 2.0  # counter accumulating at rate 2
        data[:, 1] = 7.0  # gauge
        out = preprocess_run(data, np.array([True, False]), trim_frac=(0.0, 0.0))
        assert np.allclose(out[:, 0], 2.0)
        assert np.allclose(out[:, 1], 7.0)
        assert out.shape[0] == T - 1

    def test_trim_removes_head_and_tail(self):
        T = 100
        data = np.arange(T, dtype=float).reshape(-1, 1)
        out = preprocess_run(data, np.array([False]), trim_frac=(0.1, 0.1))
        # 10 head + 10 tail trimmed, then one diff row dropped
        assert out.shape[0] == 79
        assert out[0, 0] == 11.0

    def test_nan_repair_happens_before_diff(self):
        data = np.arange(30, dtype=float).reshape(-1, 1)
        data[10] = np.nan
        out = preprocess_run(data, np.array([True]), trim_frac=(0.0, 0.0))
        assert np.allclose(out, 1.0)  # constant-rate counter stays constant

    def test_too_short_after_trim(self):
        with pytest.raises(ValueError, match="too short"):
            preprocess_run(np.ones((10, 1)), np.array([False]), trim_frac=(0.4, 0.4))

    def test_bad_trim_fractions(self):
        with pytest.raises(ValueError, match="trim"):
            preprocess_run(np.ones((50, 1)), np.array([False]), trim_frac=(0.5, 0.5))

    def test_counter_mask_mismatch(self):
        with pytest.raises(ValueError, match="counter_mask"):
            preprocess_run(np.ones((20, 3)), np.array([True]))


class TestFeatureDataset:
    def _mini(self):
        return FeatureDataset(
            X=np.arange(12, dtype=float).reshape(4, 3),
            labels=np.array(["healthy", "membw", "healthy", "dial"]),
            apps=np.array(["CG", "CG", "BT", "BT"]),
            input_decks=np.array([0, 1, 0, 1]),
            intensities=np.array([0.0, 0.5, 0.0, 1.0]),
            node_counts=np.array([4, 4, 4, 4]),
            feature_names=["f0", "f1", "f2"],
        )

    def test_len(self):
        assert len(self._mini()) == 4

    def test_subset_by_mask(self):
        ds = self._mini()
        sub = ds.subset(ds.labels == "healthy")
        assert len(sub) == 2
        assert set(sub.apps) == {"CG", "BT"}

    def test_subset_by_indices(self):
        ds = self._mini()
        sub = ds.subset(np.array([3, 0]))
        assert list(sub.labels) == ["dial", "healthy"]

    def test_metadata_length_validation(self):
        with pytest.raises(ValueError, match="length"):
            FeatureDataset(
                X=np.ones((3, 2)),
                labels=np.array(["a"]),
                apps=np.array(["x"] * 3),
                input_decks=np.zeros(3),
                intensities=np.zeros(3),
                node_counts=np.zeros(3),
            )


class TestFeatureExtractor:
    def test_fit_transform_on_campaign(self, tiny_config):
        from repro.datasets.generate import generate_runs

        runs = generate_runs(tiny_config, rng=0)
        fe = FeatureExtractor(tiny_config.catalog, method="mvts")
        ds = fe.fit_transform(runs)
        assert ds.X.shape[0] == len(runs)
        assert not np.isnan(ds.X).any()
        assert ds.X.shape[1] == len(ds.feature_names)
        assert ds.X.shape[1] <= fe.n_features_raw

    def test_transform_requires_fit(self, tiny_config):
        fe = FeatureExtractor(tiny_config.catalog)
        with pytest.raises(RuntimeError, match="fit_transform"):
            fe.transform([])

    def test_transform_reapplies_drop_mask(self, tiny_config):
        from repro.datasets.generate import generate_runs

        runs = generate_runs(tiny_config, rng=1)
        fe = FeatureExtractor(tiny_config.catalog, method="mvts")
        train = fe.fit_transform(runs[:20])
        test = fe.transform(runs[20:25])
        assert test.X.shape[1] == train.X.shape[1]

    def test_unknown_method(self, tiny_config):
        with pytest.raises(ValueError, match="unknown method"):
            FeatureExtractor(tiny_config.catalog, method="wavelets")

    def test_empty_corpus(self, tiny_config):
        fe = FeatureExtractor(tiny_config.catalog)
        with pytest.raises(ValueError, match="empty"):
            fe.fit_transform([])

    def test_labels_and_metadata_align(self, tiny_dataset):
        ds, _ = tiny_dataset
        anomalous = ds.labels != "healthy"
        assert np.all(ds.intensities[anomalous] > 0)
        assert np.all(ds.intensities[~anomalous] == 0)

    def test_parallel_map_gives_identical_results(self, tiny_config):
        from repro.datasets.generate import generate_runs

        runs = generate_runs(tiny_config, rng=2)[:10]
        serial = FeatureExtractor(tiny_config.catalog).fit_transform(runs)
        parallel = FeatureExtractor(tiny_config.catalog, n_jobs=2).fit_transform(runs)
        assert np.array_equal(serial.X, parallel.X)

    def test_stale_pickle_with_map_fn_loads_and_featurizes(self, tiny_config):
        """Extractors pickled while ``map_fn`` existed still load, drop the
        stale key, and featurize bit for bit like before."""
        import pickle

        from repro.datasets.generate import generate_runs

        runs = generate_runs(tiny_config, rng=3)[:12]
        fe = FeatureExtractor(tiny_config.catalog)
        fe.fit_transform(runs[:8])
        from repro.features.mvts import extract_mvts

        # the state an old pickle carries
        fe.__dict__.update(map_fn=None, _extract=extract_mvts)
        loaded = pickle.loads(pickle.dumps(fe))
        assert "map_fn" not in loaded.__dict__
        assert "_extract" not in loaded.__dict__
        assert np.array_equal(loaded.transform(runs[8:]).X, fe.transform(runs[8:]).X)

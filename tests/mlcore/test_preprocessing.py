"""Tests for MinMaxScaler and LabelEncoder, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mlcore.preprocessing import LabelEncoder, MinMaxScaler


class TestMinMaxScaler:
    def test_train_data_maps_to_unit_range(self):
        rng = np.random.default_rng(0)
        X = rng.normal(scale=50, size=(40, 6))
        out = MinMaxScaler().fit_transform(X)
        assert np.allclose(out.min(axis=0), 0.0)
        assert np.allclose(out.max(axis=0), 1.0)

    def test_custom_range(self):
        X = np.array([[0.0], [10.0]])
        out = MinMaxScaler(feature_range=(-1, 1)).fit_transform(X)
        assert np.allclose(out.ravel(), [-1.0, 1.0])

    def test_invalid_range(self):
        with pytest.raises(ValueError, match="increasing"):
            MinMaxScaler(feature_range=(1, 1)).fit(np.ones((3, 1)))

    def test_constant_feature_maps_to_range_min(self):
        X = np.full((5, 2), 7.0)
        out = MinMaxScaler().fit_transform(X)
        assert np.allclose(out, 0.0)

    def test_test_data_can_exceed_range_without_clip(self):
        scaler = MinMaxScaler().fit(np.array([[0.0], [1.0]]))
        assert scaler.transform(np.array([[2.0]]))[0, 0] == 2.0

    def test_clip_mode(self):
        scaler = MinMaxScaler(clip=True).fit(np.array([[0.0], [1.0]]))
        assert scaler.transform(np.array([[5.0]]))[0, 0] == 1.0
        assert scaler.transform(np.array([[-5.0]]))[0, 0] == 0.0

    def test_feature_count_mismatch(self):
        scaler = MinMaxScaler().fit(np.ones((4, 3)))
        with pytest.raises(ValueError, match="features"):
            scaler.transform(np.ones((2, 5)))

    @pytest.mark.parametrize("clip", [False, True])
    def test_subset_equals_full_transform_then_index(self, clip):
        rng = np.random.default_rng(2)
        X = rng.normal(scale=10, size=(30, 7))
        X[:, 3] = 4.0  # constant column
        scaler = MinMaxScaler(clip=clip).fit(X)
        cols = np.array([0, 3, 6])
        test = rng.normal(scale=20, size=(9, 7))
        sub = scaler.subset(cols)
        assert sub.n_features_in_ == 3
        assert np.array_equal(sub.transform(test[:, cols]), scaler.transform(test)[:, cols])

    def test_inverse_transform_roundtrip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 4))
        scaler = MinMaxScaler().fit(X)
        back = scaler.inverse_transform(scaler.transform(X))
        assert np.allclose(back, X)

    def test_inverse_transform_constant_feature(self):
        X = np.hstack([np.full((5, 1), 3.0), np.arange(5.0).reshape(-1, 1)])
        scaler = MinMaxScaler().fit(X)
        back = scaler.inverse_transform(scaler.transform(X))
        assert np.allclose(back, X)

    @given(
        X=hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 20), st.integers(1, 6)),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_output_always_within_range_on_train(self, X):
        out = MinMaxScaler().fit_transform(X)
        assert np.all(out >= -1e-9) and np.all(out <= 1 + 1e-9)


class TestLabelEncoder:
    def test_roundtrip(self):
        y = np.array(["membw", "healthy", "dial", "healthy"])
        enc = LabelEncoder().fit(y)
        codes = enc.transform(y)
        assert np.array_equal(enc.inverse_transform(codes), y)

    def test_codes_are_sorted_class_indices(self):
        enc = LabelEncoder().fit(np.array(["b", "a", "c"]))
        assert list(enc.classes_) == ["a", "b", "c"]
        assert list(enc.transform(np.array(["c", "a"]))) == [2, 0]

    def test_unseen_label_raises(self):
        enc = LabelEncoder().fit(np.array(["a", "b"]))
        with pytest.raises(ValueError, match="unseen"):
            enc.transform(np.array(["z"]))

    def test_out_of_range_code_raises(self):
        enc = LabelEncoder().fit(np.array(["a", "b"]))
        with pytest.raises(ValueError, match="out of range"):
            enc.inverse_transform(np.array([5]))

    def test_fit_transform_shortcut(self):
        y = np.array([3, 1, 2, 1])
        assert list(LabelEncoder().fit_transform(y)) == [2, 0, 1, 0]

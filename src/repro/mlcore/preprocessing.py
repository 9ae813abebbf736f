"""Preprocessing: Min-Max scaling and label encoding.

The paper applies a *Min-Max* scaler fit on the training split and reused on
the test split (Sec. IV-E2); the active-learning experiments rely on the
scaler being fit once on the AL training pool so queried samples and test
samples share the same coordinate system. Chi-square feature selection also
requires non-negative inputs, which Min-Max scaling guarantees.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, check_array

__all__ = ["MinMaxScaler", "LabelEncoder"]


class MinMaxScaler(BaseEstimator):
    """Scale each feature to ``feature_range`` using train-split min/max.

    Constant features (max == min) map to the range minimum rather than
    dividing by zero — matching scikit-learn's behaviour.
    """

    def __init__(self, feature_range: tuple[float, float] = (0.0, 1.0), clip: bool = False):
        self.feature_range = feature_range
        self.clip = clip

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "MinMaxScaler":
        """Record per-feature min and range from ``X``."""
        lo, hi = self.feature_range
        if lo >= hi:
            raise ValueError(f"feature_range must be increasing, got {self.feature_range}")
        X = check_array(X)
        self.data_min_ = X.min(axis=0)
        self.data_max_ = X.max(axis=0)
        span = self.data_max_ - self.data_min_
        with np.errstate(over="ignore"):
            self.scale_ = np.where(
                span > 0, (hi - lo) / np.where(span > 0, span, 1.0), 0.0
            )
        # subnormal spans overflow the reciprocal; treat them as constant
        self.scale_ = np.where(np.isfinite(self.scale_), self.scale_, 0.0)
        self.min_ = lo - self.data_min_ * self.scale_
        self.n_features_in_ = X.shape[1]
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Apply the learned affine map; optionally clip to the range."""
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}"
            )
        out = X * self.scale_ + self.min_
        if self.clip:
            out = np.clip(out, *self.feature_range)
        return out

    def fit_transform(self, X: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """Fit on ``X`` then transform it."""
        return self.fit(X).transform(X)

    def subset(self, columns: np.ndarray) -> "MinMaxScaler":
        """This fitted scaler restricted to feature ``columns``.

        Scaling is per column, so ``subset(c).transform(X[:, c])`` is
        bit-identical to ``transform(X)[:, c]``.
        """
        sub = MinMaxScaler(self.feature_range, self.clip)
        sub.data_min_ = self.data_min_[columns]
        sub.data_max_ = self.data_max_[columns]
        sub.scale_ = self.scale_[columns]
        sub.min_ = self.min_[columns]
        sub.n_features_in_ = len(sub.scale_)
        return sub

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        """Undo the scaling (constant features recover their single value)."""
        X = check_array(X)
        scale = np.where(self.scale_ > 0, self.scale_, 1.0)
        out = (X - self.min_) / scale
        const = self.scale_ == 0
        if const.any():
            out[:, const] = self.data_min_[const]
        return out


class LabelEncoder(BaseEstimator):
    """Map arbitrary hashable labels to contiguous integers and back."""

    def __init__(self):
        pass

    def fit(self, y: np.ndarray) -> "LabelEncoder":
        """Learn the sorted-unique class list."""
        self.classes_ = np.unique(np.asarray(y))
        return self

    def transform(self, y: np.ndarray) -> np.ndarray:
        """Encode labels as indices into ``classes_``; unseen labels raise."""
        y = np.asarray(y)
        codes = np.searchsorted(self.classes_, y)
        bad = (codes >= len(self.classes_)) | (self.classes_[np.clip(codes, 0, len(self.classes_) - 1)] != y)
        if bad.any():
            raise ValueError(f"unseen labels: {np.unique(y[bad])!r}")
        return codes

    def fit_transform(self, y: np.ndarray) -> np.ndarray:
        """Fit then encode in one call."""
        return self.fit(y).transform(y)

    def inverse_transform(self, codes: np.ndarray) -> np.ndarray:
        """Decode integer codes back to original labels."""
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and (codes.min() < 0 or codes.max() >= len(self.classes_)):
            raise ValueError("codes out of range")
        return self.classes_[codes]

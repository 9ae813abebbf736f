"""Deployment drift monitoring (the paper's production-deployment step).

The paper's future work deploys ALBADross on a live system. The silent
killer there is *distribution drift*: new applications, new input decks,
or changed system software shift the telemetry distribution, and Figs. 7–8
quantify how hard such shifts hit a frozen model (F1 0.2, FAR 80% under
unseen inputs). This module watches for the shift itself, so the operator
re-opens the annotation loop *before* the diagnoses go bad:

* per-feature drift via the two-sample Kolmogorov–Smirnov statistic
  against a training-time reference sample;
* model-side drift via the predicted-confidence distribution (a model fed
  out-of-distribution samples gets systematically less confident — the
  same signal the active learner queries on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DriftReport", "DriftMonitor"]


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one drift check over a window of incoming samples.

    ``drifted`` is the operator-facing verdict; the rest is evidence:
    the fraction of features whose KS test rejects at ``alpha``, the mean
    KS statistic, and the confidence drop versus the reference window.
    """

    drifted: bool
    feature_drift_fraction: float
    mean_ks_statistic: float
    confidence_drop: float
    n_window: int

    def summary(self) -> str:
        """One-line operator summary."""
        state = "DRIFT" if self.drifted else "ok"
        return (
            f"[{state}] {self.feature_drift_fraction:.0%} of features shifted "
            f"(mean KS {self.mean_ks_statistic:.2f}), "
            f"confidence drop {self.confidence_drop:+.2f} "
            f"over {self.n_window} samples"
        )


class DriftMonitor:
    """Compare incoming feature windows against the training distribution.

    Parameters
    ----------
    model:
        The deployed classifier (used for the confidence signal); may be
        ``None`` for feature-only monitoring.
    alpha:
        Per-feature KS significance level.
    drift_fraction_threshold:
        Declare drift when more than this fraction of features reject, or
        when the mean confidence drops by more than ``confidence_threshold``.
    max_reference:
        Reference subsample size (KS cost is linear in it).
    """

    def __init__(
        self,
        model=None,
        alpha: float = 0.01,
        drift_fraction_threshold: float = 0.25,
        confidence_threshold: float = 0.15,
        max_reference: int = 512,
        random_state: int = 0,
    ):
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if not 0 < drift_fraction_threshold <= 1:
            raise ValueError(
                f"drift_fraction_threshold must be in (0, 1], got {drift_fraction_threshold}"
            )
        self.model = model
        self.alpha = alpha
        self.drift_fraction_threshold = drift_fraction_threshold
        self.confidence_threshold = confidence_threshold
        self.max_reference = max_reference
        self.random_state = random_state

    def fit(self, X_reference: np.ndarray) -> "DriftMonitor":
        """Store the training-time reference distribution."""
        X = np.asarray(X_reference, dtype=np.float64)
        if X.ndim != 2 or len(X) < 8:
            raise ValueError("need a 2-D reference with at least 8 samples")
        if len(X) > self.max_reference:
            rng = np.random.default_rng(self.random_state)
            X = X[rng.choice(len(X), size=self.max_reference, replace=False)]
        self.reference_ = X
        if self.model is not None:
            proba = self.model.predict_proba(X)
            self.reference_confidence_ = float(proba.max(axis=1).mean())
        else:
            self.reference_confidence_ = None
        return self

    def check(self, X_window: np.ndarray) -> DriftReport:
        """Test a window of incoming samples for drift."""
        if not hasattr(self, "reference_"):
            raise RuntimeError("fit() the monitor on training features first")
        X = np.asarray(X_window, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.reference_.shape[1]:
            raise ValueError(
                f"window must be (n, {self.reference_.shape[1]}), got {X.shape}"
            )
        if len(X) < 8:
            raise ValueError("window too small for a KS test (need >= 8)")

        # imported here: scipy is costly to import, and serving never
        # reaches this check
        from scipy import stats

        n_features = X.shape[1]
        rejected = 0
        ks_values = np.empty(n_features)
        for j in range(n_features):
            stat, p = stats.ks_2samp(self.reference_[:, j], X[:, j])
            ks_values[j] = stat
            if p < self.alpha:
                rejected += 1
        fraction = rejected / n_features

        confidence_drop = 0.0
        if self.model is not None and self.reference_confidence_ is not None:
            window_conf = float(self.model.predict_proba(X).max(axis=1).mean())
            confidence_drop = self.reference_confidence_ - window_conf

        drifted = fraction > self.drift_fraction_threshold or (
            confidence_drop > self.confidence_threshold
        )
        return DriftReport(
            drifted=bool(drifted),
            feature_drift_fraction=float(fraction),
            mean_ks_statistic=float(ks_values.mean()),
            confidence_drop=float(confidence_drop),
            n_window=len(X),
        )

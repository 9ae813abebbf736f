"""Multinomial logistic regression with L1/L2 penalties (LR in Table IV).

The paper's grid: ``penalty`` ∈ {l1, l2}, ``C`` ∈ {0.001, 0.01, 0.1, 1, 10},
with L1 selected on both systems. L2 problems are smooth and solved with
L-BFGS (scipy); L1 is non-smooth, so we use FISTA (accelerated proximal
gradient with soft-thresholding), which handles the sparsity-inducing
penalty exactly rather than by subgradient approximation.

LR is also the supervised head of the Proctor baseline
(:mod:`repro.active.baselines`).
"""

from __future__ import annotations

import numpy as np

from .base import (
    BaseEstimator,
    ClassifierMixin,
    check_array,
    check_X_y,
    encode_labels,
)

__all__ = ["LogisticRegression"]


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _nll_and_grad(
    W: np.ndarray, b: np.ndarray, X: np.ndarray, onehot: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy and its gradients w.r.t. weights and intercepts."""
    n = X.shape[0]
    p = _softmax(X @ W + b)
    eps = 1e-12
    loss = -np.sum(onehot * np.log(p + eps)) / n
    diff = (p - onehot) / n
    return loss, X.T @ diff, diff.sum(axis=0)


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Multinomial (softmax) logistic regression.

    Parameters
    ----------
    penalty:
        ``"l1"`` or ``"l2"``. Intercepts are never penalized.
    C:
        Inverse regularization strength (scikit-learn convention): the
        objective is ``mean_CE + (1 / (C * n)) * R(W)``.
    max_iter:
        Iteration cap for the solver (L-BFGS iterations or FISTA steps).
    tol:
        Convergence tolerance on the objective / gradient.
    """

    def __init__(
        self,
        penalty: str = "l2",
        C: float = 1.0,
        max_iter: int = 500,
        tol: float = 1e-6,
    ):
        self.penalty = penalty
        self.C = C
        self.max_iter = max_iter
        self.tol = tol

    # ------------------------------------------------------------------
    def _fit_l2(self, X: np.ndarray, onehot: np.ndarray) -> None:
        n, m = X.shape
        k = onehot.shape[1]
        lam = 1.0 / (self.C * n)

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            W = theta[: m * k].reshape(m, k)
            b = theta[m * k :]
            loss, gW, gb = _nll_and_grad(W, b, X, onehot)
            loss += 0.5 * lam * np.sum(W * W)
            gW = gW + lam * W
            return loss, np.concatenate([gW.ravel(), gb])

        # imported here: scipy is costly to import, and only L2 fits need it
        from scipy.optimize import minimize

        theta0 = np.zeros(m * k + k)
        res = minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        self.coef_ = res.x[: m * k].reshape(m, k)
        self.intercept_ = res.x[m * k :]
        self.n_iter_ = int(res.nit)

    def _fit_l1(self, X: np.ndarray, onehot: np.ndarray) -> None:
        """FISTA with soft-thresholding prox on the weight matrix."""
        n, m = X.shape
        k = onehot.shape[1]
        lam = 1.0 / (self.C * n)
        # Lipschitz constant of the softmax CE gradient is bounded by
        # ||X||^2 / (2n); power iteration gives the spectral norm cheaply.
        v = np.ones(m) / np.sqrt(m)
        for _ in range(32):
            v = X.T @ (X @ v)
            norm = np.linalg.norm(v)
            if norm == 0:
                break
            v /= norm
        L = max(norm / (2.0 * n), 1e-12) if norm else 1e-12
        step = 1.0 / L

        W = np.zeros((m, k))
        b = np.zeros(k)
        Wy, by, t = W.copy(), b.copy(), 1.0
        prev_obj = np.inf
        for it in range(self.max_iter):
            loss, gW, gb = _nll_and_grad(Wy, by, X, onehot)
            W_next = Wy - step * gW
            # prox of lam * ||W||_1
            W_next = np.sign(W_next) * np.maximum(np.abs(W_next) - step * lam, 0.0)
            b_next = by - step * gb
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            Wy = W_next + ((t - 1.0) / t_next) * (W_next - W)
            by = b_next + ((t - 1.0) / t_next) * (b_next - b)
            W, b, t = W_next, b_next, t_next
            obj = loss + lam * np.abs(W).sum()
            if abs(prev_obj - obj) < self.tol * max(1.0, abs(obj)):
                break
            prev_obj = obj
        self.coef_ = W
        self.intercept_ = b
        self.n_iter_ = it + 1

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Fit the softmax model by L-BFGS (l2) or FISTA (l1)."""
        if self.penalty not in ("l1", "l2"):
            raise ValueError(f"penalty must be 'l1' or 'l2', got {self.penalty!r}")
        if self.C <= 0:
            raise ValueError(f"C must be positive, got {self.C}")
        X, y = check_X_y(X, y)
        self.classes_, codes = encode_labels(y)
        self.n_features_in_ = X.shape[1]
        k = len(self.classes_)
        onehot = np.zeros((X.shape[0], k))
        onehot[np.arange(X.shape[0]), codes] = 1.0
        if self.penalty == "l2":
            self._fit_l2(X, onehot)
        else:
            self._fit_l1(X, onehot)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw linear scores ``X @ W + b``."""
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}"
            )
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Softmax class probabilities."""
        return _softmax(self.decision_function(X))

    @property
    def sparsity_(self) -> float:
        """Fraction of exactly-zero weights (L1 should drive this up)."""
        return float(np.mean(self.coef_ == 0.0))

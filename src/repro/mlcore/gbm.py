"""LightGBM-style gradient-boosted trees (LGBM in the paper's Table IV).

Multiclass boosting with a softmax objective: each boosting round fits one
second-order regression tree per class to the gradient/hessian of the
cross-entropy loss. Trees grow **leaf-wise** (best-first), which is
LightGBM's signature growth policy, bounded by ``num_leaves`` and
(optionally) ``max_depth`` — both appear in the paper's grid. A depth-wise
mode is kept for the ablation bench in DESIGN.md §5.

Hyperparameters follow Table IV: ``num_leaves`` ∈ {2, 8, 31, 128},
``learning_rate`` ∈ {0.01, 0.1, 0.3}, ``max_depth`` ∈ {-1, 2, 8}
(-1 = unlimited, the LightGBM convention), ``colsample_bytree`` ∈ {0.5, 1.0}.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .base import (
    BaseEstimator,
    ClassifierMixin,
    check_array,
    check_random_state,
    check_X_y,
    encode_labels,
)

__all__ = ["LGBMClassifier"]

_LEAF = -1


@dataclass
class _SplitPlan:
    """A scored candidate split of one leaf, ready for the best-first heap."""

    gain: float
    feature: int
    threshold: float
    idx: np.ndarray  # samples in the leaf
    go_left: np.ndarray  # boolean mask over idx


class _RegressionTree:
    """Second-order regression tree with leaf-wise (best-first) growth."""

    def __init__(
        self,
        num_leaves: int,
        max_depth: int,
        min_child_samples: int,
        reg_lambda: float,
        min_split_gain: float,
        leaf_wise: bool,
    ):
        self.num_leaves = num_leaves
        self.max_depth = max_depth
        self.min_child_samples = min_child_samples
        self.reg_lambda = reg_lambda
        self.min_split_gain = min_split_gain
        self.leaf_wise = leaf_wise

    # -- split search ---------------------------------------------------
    def _leaf_value(self, g_sum: float, h_sum: float) -> float:
        return -g_sum / (h_sum + self.reg_lambda)

    def _score(self, g_sum: float, h_sum: float) -> float:
        return g_sum * g_sum / (h_sum + self.reg_lambda)

    def _best_split(
        self,
        X: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        idx: np.ndarray,
        features: np.ndarray,
    ) -> _SplitPlan | None:
        n = len(idx)
        if n < 2 * self.min_child_samples:
            return None
        g_node, h_node = g[idx], h[idx]
        total_score = self._score(g_node.sum(), h_node.sum())

        # vectorized over all candidate features: one argsort, one cumsum,
        # one argmax over every (cut, feature) cell
        Xs = X[np.ix_(idx, features)]  # (n, f)
        order = np.argsort(Xs, axis=0, kind="stable")
        xs_sorted = np.take_along_axis(Xs, order, axis=0)
        diff = xs_sorted[1:] != xs_sorted[:-1]  # (n-1, f)
        if not diff.any():
            return None
        gl = np.cumsum(g_node[order], axis=0)[:-1]  # (n-1, f)
        hl = np.cumsum(h_node[order], axis=0)[:-1]
        gr = g_node.sum() - gl
        hr = h_node.sum() - hl
        n_left = np.arange(1, n)[:, None]
        valid = (
            diff
            & (n_left >= self.min_child_samples)
            & (n - n_left >= self.min_child_samples)
        )
        if not valid.any():
            return None
        gain = (
            gl * gl / (hl + self.reg_lambda)
            + gr * gr / (hr + self.reg_lambda)
            - total_score
        )
        gain = np.where(valid, gain, -np.inf)
        flat = int(np.argmax(gain))
        cut, fpos = np.unravel_index(flat, gain.shape)
        best_gain = float(gain[cut, fpos])
        if best_gain <= self.min_split_gain:
            return None
        thr = 0.5 * (xs_sorted[cut, fpos] + xs_sorted[cut + 1, fpos])
        j = int(features[fpos])
        go_left = X[idx, j] <= thr
        return _SplitPlan(best_gain, j, float(thr), idx, go_left)

    # -- growth ----------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        features: np.ndarray,
    ) -> "_RegressionTree":
        n = X.shape[0]
        self.feature: list[int] = [_LEAF]
        self.threshold: list[float] = [0.0]
        self.left: list[int] = [_LEAF]
        self.right: list[int] = [_LEAF]
        self.value: list[float] = [self._leaf_value(g.sum(), h.sum())]
        depth = {0: 0}

        # heap entries: (-gain, tiebreak, node_id, plan); leaf-wise pops the
        # globally best leaf; depth-wise degenerates to FIFO order.
        heap: list[tuple[float, int, int, _SplitPlan]] = []
        counter = 0

        def consider(node_id: int, idx: np.ndarray) -> None:
            nonlocal counter
            if self.max_depth >= 0 and depth[node_id] >= self.max_depth:
                return
            plan = self._best_split(X, g, h, idx, features)
            if plan is not None:
                key = -plan.gain if self.leaf_wise else float(counter)
                heapq.heappush(heap, (key, counter, node_id, plan))
                counter += 1

        consider(0, np.arange(n))
        n_leaves = 1
        while heap and n_leaves < self.num_leaves:
            _, _, node_id, plan = heapq.heappop(heap)
            if self.feature[node_id] != _LEAF:
                continue  # stale entry: node already split
            left_idx = plan.idx[plan.go_left]
            right_idx = plan.idx[~plan.go_left]
            for child_idx in (left_idx, right_idx):
                self.feature.append(_LEAF)
                self.threshold.append(0.0)
                self.left.append(_LEAF)
                self.right.append(_LEAF)
                self.value.append(
                    self._leaf_value(g[child_idx].sum(), h[child_idx].sum())
                )
            left_id, right_id = len(self.feature) - 2, len(self.feature) - 1
            depth[left_id] = depth[right_id] = depth[node_id] + 1
            self.feature[node_id] = plan.feature
            self.threshold[node_id] = plan.threshold
            self.left[node_id] = left_id
            self.right[node_id] = right_id
            n_leaves += 1
            consider(left_id, left_idx)
            consider(right_id, right_idx)

        self._feature = np.array(self.feature, dtype=np.int64)
        self._threshold = np.array(self.threshold, dtype=np.float64)
        self._left = np.array(self.left, dtype=np.int64)
        self._right = np.array(self.right, dtype=np.int64)
        self._value = np.array(self.value, dtype=np.float64)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self._feature[node] != _LEAF
        while active.any():
            rows = np.flatnonzero(active)
            cur = node[rows]
            go_left = X[rows, self._feature[cur]] <= self._threshold[cur]
            node[rows] = np.where(go_left, self._left[cur], self._right[cur])
            active[rows] = self._feature[node[rows]] != _LEAF
        return self._value[node]


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class LGBMClassifier(BaseEstimator, ClassifierMixin):
    """Gradient-boosted decision trees with leaf-wise growth.

    Parameters
    ----------
    n_estimators:
        Boosting rounds (trees per class).
    num_leaves:
        Maximum leaves per tree (LightGBM's primary capacity knob).
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth:
        Depth cap; ``-1`` means unlimited (LightGBM convention).
    colsample_bytree:
        Fraction of features sampled (without replacement) per tree.
    reg_lambda:
        L2 regularization on leaf values.
    min_child_samples:
        Minimum samples per leaf.
    growth:
        ``"leaf"`` (LightGBM-style, default) or ``"depth"`` — retained for
        the DESIGN.md §5 growth-policy ablation.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        num_leaves: int = 31,
        learning_rate: float = 0.1,
        max_depth: int = -1,
        colsample_bytree: float = 1.0,
        reg_lambda: float = 1.0,
        min_child_samples: int = 1,
        min_split_gain: float = 1e-12,
        growth: str = "leaf",
        random_state: int | np.random.Generator | None = None,
    ):
        self.n_estimators = n_estimators
        self.num_leaves = num_leaves
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.colsample_bytree = colsample_bytree
        self.reg_lambda = reg_lambda
        self.min_child_samples = min_child_samples
        self.min_split_gain = min_split_gain
        self.growth = growth
        self.random_state = random_state

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LGBMClassifier":
        """Boost ``n_estimators`` rounds of per-class regression trees."""
        if self.growth not in ("leaf", "depth"):
            raise ValueError(f"growth must be 'leaf' or 'depth', got {self.growth!r}")
        if not 0.0 < self.colsample_bytree <= 1.0:
            raise ValueError(
                f"colsample_bytree must be in (0, 1], got {self.colsample_bytree}"
            )
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        self.classes_, codes = encode_labels(y)
        n, m = X.shape
        k = len(self.classes_)
        self.n_features_in_ = m
        onehot = np.zeros((n, k))
        onehot[np.arange(n), codes] = 1.0

        raw = np.zeros((n, k))
        self._trees: list[list[_RegressionTree]] = []
        n_cols = max(1, int(round(self.colsample_bytree * m)))
        for _ in range(self.n_estimators):
            p = _softmax(raw)
            grad = p - onehot
            hess = np.maximum(p * (1.0 - p), 1e-6)
            round_trees: list[_RegressionTree] = []
            for c in range(k):
                feats = (
                    rng.choice(m, size=n_cols, replace=False)
                    if n_cols < m
                    else np.arange(m)
                )
                tree = _RegressionTree(
                    num_leaves=self.num_leaves,
                    max_depth=self.max_depth,
                    min_child_samples=self.min_child_samples,
                    reg_lambda=self.reg_lambda,
                    min_split_gain=self.min_split_gain,
                    leaf_wise=self.growth == "leaf",
                ).fit(X, grad[:, c], hess[:, c], feats)
                raw[:, c] += self.learning_rate * tree.predict(X)
                round_trees.append(tree)
            self._trees.append(round_trees)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw (pre-softmax) per-class boosted scores."""
        X = check_array(X)
        raw = np.zeros((X.shape[0], len(self.classes_)))
        for round_trees in self._trees:
            for c, tree in enumerate(round_trees):
                raw[:, c] += self.learning_rate * tree.predict(X)
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Softmax over the boosted scores."""
        return _softmax(self.decision_function(X))

"""Reference implementations the vectorized feature kernels must match.

Each function here is the straightforward form a faster kernel in
``repro.features`` replaced. They live in the tests only: the kernels are
pinned bitwise against them (``np.array_equal``, no tolerance), and the
data-plane bench times the kernels against them.
"""

from __future__ import annotations

import numpy as np


def approx_entropy_column(
    x: np.ndarray, m: int = 2, r_frac: float = 0.2, max_len: int = 128
) -> float:
    """Approximate entropy of one series (Pincus 1991).

    Uses embedding dimension ``m`` and tolerance ``r = r_frac * std``.
    Constant series and series of at most ``m + 1`` samples return 0. The
    O(T²) pairwise comparison runs on the first ``max_len`` samples.
    Oracle for ``repro.features.tsfresh_lite._approx_entropy_matrix``.
    """
    if len(x) > max_len:
        x = x[:max_len]
    T = len(x)
    sd = x.std()
    if sd < 1e-18 or T <= m + 1:
        return 0.0
    r = r_frac * sd

    def phi(mm: int) -> float:
        # embedding matrix (n, mm), pairwise Chebyshev distances (n, n)
        emb = np.lib.stride_tricks.sliding_window_view(x, mm)
        dist = np.max(np.abs(emb[:, None, :] - emb[None, :, :]), axis=2)
        counts = np.mean(dist <= r, axis=1)
        return float(np.mean(np.log(counts)))

    return phi(m) - phi(m + 1)


def longest_true_run_loop(mask: np.ndarray) -> np.ndarray:
    """Per-column length of the longest run of True in a (T, M) mask.

    The row-by-row loop that ``repro.features.mvts._longest_true_run``
    replaced with a prefix max.
    """
    T, M = mask.shape
    best = np.zeros(M, dtype=np.int64)
    current = np.zeros(M, dtype=np.int64)
    for t in range(T):
        current = np.where(mask[t], current + 1, 0)
        best = np.maximum(best, current)
    return best

"""Histogram binning for the tree-training hot path (LightGBM-style).

The paper's experiment loop retrains a random forest after every
active-learning query, so split search dominates end-to-end wall clock.
Exact split search argsorts every candidate feature at every node —
O(n log n) per (node, feature). Quantile-binning the matrix **once** into
``uint8`` codes turns the per-node work into an O(n) bincount over at most
256 bins, and lets the whole stack share one compact representation:

* :class:`Binner` learns per-feature bin edges (density-aware quantile
  cuts placed at midpoints between adjacent distinct values) and maps raw
  values to codes;
* :class:`BinnedDataset` bundles the code matrix with its binner so a
  forest can be fit from codes alone and the active-learning loop can
  cache the representation across refits, re-binning only new rows.

Semantics that make binned training interchangeable with exact training:

* every edge lies strictly between two adjacent distinct training values,
  so ``code(x) <= b  ⟺  x <= edges[b]`` — a tree grown on codes emits the
  real-valued edge as its threshold and predicts on raw matrices with the
  exact same partition it trained on;
* ties share a bin (values equal to an edge go left, matching the exact
  splitter's ``<=`` convention);
* NaN/inf are rejected up front (same contract as ``check_array``).
"""

from __future__ import annotations

import numpy as np

from .base import check_array

__all__ = ["Binner", "BinnedDataset", "DEFAULT_MAX_BINS"]

DEFAULT_MAX_BINS = 256


class _CodeBuffer:
    """Amortized-doubling backing store shared by a BinnedDataset lineage.

    The active-learning loop appends one code row per query; reallocating
    (or ``np.vstack``-ing) the whole matrix every round is O(rounds · n)
    copies. This buffer doubles capacity on overflow, so a lineage of
    appends costs O(n) amortized, and it maintains the feature-major
    transpose *incrementally*: once built, each append writes ``m`` new
    columns instead of re-transposing the matrix.

    Several :class:`BinnedDataset` instances may share one buffer (each
    records its own row count); only the dataset whose length equals the
    buffer's high-water mark may grow in place — anyone else gets a
    private copy, so a parent's rows can never be overwritten by a
    sibling's append.
    """

    __slots__ = ("rows", "n_used", "_rows_T", "_t_filled", "_t_view", "_t_view_n")

    def __init__(self, codes: np.ndarray):
        self.rows = codes  # (capacity, f); rows beyond n_used are free
        self.n_used = len(codes)
        self._rows_T: np.ndarray | None = None
        self._t_filled = 0  # columns of the transpose kept in sync
        self._t_view: np.ndarray | None = None  # memoized transpose slice
        self._t_view_n = -1

    def append(self, new_codes: np.ndarray, at_n: int) -> int | None:
        """Append rows at the tail; returns the new length or ``None``.

        ``None`` means ``at_n`` is not the buffer tail (another dataset
        already grew past it) and the caller must copy instead.
        """
        if at_n != self.n_used:
            return None
        m = len(new_codes)
        need = self.n_used + m
        cap = len(self.rows)
        if need > cap:
            new_cap = max(2 * cap, need)
            grown = np.empty((new_cap, self.rows.shape[1]), dtype=np.uint8)
            grown[: self.n_used] = self.rows[: self.n_used]
            self.rows = grown
            if self._rows_T is not None:
                grown_T = np.empty(
                    (self.rows.shape[1], new_cap), dtype=np.uint8
                )
                grown_T[:, : self._t_filled] = self._rows_T[:, : self._t_filled]
                self._rows_T = grown_T
                self._t_view = None
                self._t_view_n = -1
        self.rows[self.n_used : need] = new_codes
        if self._rows_T is not None and self._t_filled == self.n_used:
            self._rows_T[:, self.n_used : need] = new_codes.T
            self._t_filled = need
        self.n_used = need
        return need

    def transpose(self, n: int) -> np.ndarray:
        """Feature-major view of the first ``n`` rows, built lazily.

        The returned view is memoized per requested length, so repeated
        reads of an unchanged dataset hand back the identical object.
        """
        if self._rows_T is None:
            self._rows_T = np.empty(
                (self.rows.shape[1], len(self.rows)), dtype=np.uint8
            )
            self._rows_T[:, : self.n_used] = self.rows[: self.n_used].T
            self._t_filled = self.n_used
        elif self._t_filled < n:
            self._rows_T[:, self._t_filled : n] = self.rows[self._t_filled : n].T
            self._t_filled = n
        if self._t_view_n != n:
            self._t_view = self._rows_T[:, :n]
            self._t_view_n = n
        return self._t_view

    def __getstate__(self) -> dict:
        # compact on pickle: ship only the live rows, drop the transpose
        return {"rows": np.ascontiguousarray(self.rows[: self.n_used])}

    def __setstate__(self, state: dict) -> None:
        self.rows = state["rows"]
        self.n_used = len(self.rows)
        self._rows_T = None
        self._t_filled = 0
        self._t_view = None
        self._t_view_n = -1


def _feature_edges(col: np.ndarray, max_bins: int) -> np.ndarray:
    """Bin edges for one feature column: at most ``max_bins - 1`` cuts.

    Small cardinality gets exact midpoints between every pair of adjacent
    distinct values (binned split search then sees the *same* candidate
    thresholds as the exact splitter). High cardinality gets quantile
    cuts snapped to midpoints between the distinct values around them,
    which keeps bins roughly equal-mass.
    """
    uniq = np.unique(col)
    if len(uniq) <= max_bins:
        return (uniq[:-1] + uniq[1:]) / 2.0
    qs = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    cuts = np.quantile(col, qs)
    # snap each cut between the nearest distinct values so no edge ever
    # coincides with a data value (keeps the <= tie rule unambiguous)
    j = np.clip(np.searchsorted(uniq, cuts, side="right"), 1, len(uniq) - 1)
    return np.unique((uniq[j - 1] + uniq[j]) / 2.0)


def _rank_cut_positions(n: int, max_bins: int) -> np.ndarray:
    """Equal-mass cut positions for a tie-free column of ``n`` values.

    Cut ``m`` sits between sorted positions ``j_m - 1`` and ``j_m`` where
    ``j_m = floor(m (n-1) / max_bins) + 1`` — the rank the ``m/max_bins``
    quantile falls next to. Positions are data-independent, so one vector
    serves every tie-free column of the matrix; they are strictly
    increasing whenever ``n > max_bins``.
    """
    m = np.arange(1, max_bins)
    return (m * (n - 1)) // max_bins + 1


class Binner:
    """Per-feature quantile binning into ``uint8`` codes.

    Parameters
    ----------
    max_bins:
        Upper bound on bins per feature; must fit ``uint8`` (<= 256).
    """

    def __init__(self, max_bins: int = DEFAULT_MAX_BINS):
        if not 2 <= max_bins <= 256:
            raise ValueError(f"max_bins must be in [2, 256], got {max_bins}")
        self.max_bins = max_bins

    def fit(self, X: np.ndarray) -> "Binner":
        """Learn bin edges from ``X`` (one edge array per feature)."""
        X = check_array(X)
        Xs = np.sort(np.asfortranarray(X), axis=0)
        self._edges_from_sorted(Xs)
        return self

    def _edges_from_sorted(self, Xs: np.ndarray) -> np.ndarray:
        """Edges from a column-sorted matrix; returns the tie-free mask.

        Tie-free columns all share the same rank-space cut positions
        (:func:`_rank_cut_positions`), so their edges come from two row
        gathers instead of 2000 per-column quantile calls. Columns with
        repeated values (or fewer distinct values than bins) fall back to
        the per-column density-aware path.
        """
        n, f = Xs.shape
        self.n_features_in_ = f
        edges: list[np.ndarray | None] = [None] * f
        if n > self.max_bins:
            tie_free = ~(Xs[1:] == Xs[:-1]).any(axis=0)
        else:
            tie_free = np.zeros(f, dtype=bool)
        if tie_free.any():
            cuts = _rank_cut_positions(n, self.max_bins)
            mids = (Xs[cuts - 1] + Xs[cuts]) / 2.0
            for j in np.flatnonzero(tie_free):
                edges[j] = mids[:, j]
        for j in np.flatnonzero(~tie_free):
            edges[j] = _feature_edges(Xs[:, j], self.max_bins)
        self.bin_edges_ = edges
        return tie_free

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map raw values to bin codes; rows append-cheap (O(log bins))."""
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}"
            )
        codes = np.empty(X.shape, dtype=np.uint8)
        for j, edges in enumerate(self.bin_edges_):
            # side="left": count of edges strictly below x, hence
            # code <= b  ⟺  x <= edges[b]
            codes[:, j] = np.searchsorted(edges, X[:, j], side="left")
        return codes

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """``fit(X)`` then ``transform(X)``, sharing one sort.

        For tie-free columns the training codes are pure rank arithmetic:
        the value at sorted position ``i`` lands in bin
        ``#{cuts <= i}``, a vector shared by every such column, scattered
        back through the argsort permutation. Only columns with repeated
        values pay a per-column ``searchsorted``.
        """
        X = check_array(X)
        order = np.argsort(np.asfortranarray(X), axis=0)
        Xs = np.take_along_axis(X, order, axis=0)
        tie_free = self._edges_from_sorted(Xs)
        codes = np.empty(X.shape, dtype=np.uint8)
        if tie_free.any():
            cuts = _rank_cut_positions(X.shape[0], self.max_bins)
            pos_codes = np.searchsorted(
                cuts, np.arange(X.shape[0]), side="right"
            ).astype(np.uint8)
            np.put_along_axis(codes, order, pos_codes[:, None], axis=0)
        for j in np.flatnonzero(~tie_free):
            codes[:, j] = np.searchsorted(
                self.bin_edges_[j], X[:, j], side="left"
            )
        return codes

    def fit_dataset(self, X: np.ndarray) -> "BinnedDataset":
        """``fit_transform`` bundled with this binner (the fast entry)."""
        return BinnedDataset(self.fit_transform(X), self)


class BinnedDataset:
    """A code matrix plus the binner that produced it.

    The handle the forest trains from and the active-learning loop caches
    across refits: growing the labeled set appends already computed codes
    into an amortized-doubling buffer (:class:`_CodeBuffer`), never a
    re-quantization — or even a full copy — of the whole matrix.
    """

    def __init__(self, codes: np.ndarray, binner: Binner):
        codes = np.asarray(codes)
        if codes.dtype != np.uint8:
            raise ValueError(f"codes must be uint8, got {codes.dtype}")
        if codes.ndim != 2:
            raise ValueError(f"codes must be 2-D, got shape {codes.shape}")
        if codes.shape[1] != binner.n_features_in_:
            raise ValueError(
                f"codes have {codes.shape[1]} features, "
                f"binner expects {binner.n_features_in_}"
            )
        self._buf = _CodeBuffer(codes)
        self._n = len(codes)
        self.binner = binner

    @classmethod
    def _from_buffer(
        cls, buf: _CodeBuffer, n: int, binner: Binner
    ) -> "BinnedDataset":
        ds = cls.__new__(cls)
        ds._buf = buf
        ds._n = n
        ds.binner = binner
        return ds

    @property
    def codes(self) -> np.ndarray:
        """Row-major view of this dataset's code rows (never a copy)."""
        return self._buf.rows[: self._n]

    @property
    def codes_T(self) -> np.ndarray:
        """Feature-major codes, built lazily and maintained incrementally.

        Every tree's histogram kernels gather (bootstrap rows × candidate
        features) blocks; the transposed layout makes each candidate
        feature a contiguous row. The transpose lives in the shared
        growth buffer: the first access pays one full transpose, after
        which each :meth:`append_codes` keeps it current by writing only
        the new columns — refit rounds never re-transpose the matrix.
        """
        return self._buf.transpose(self._n)

    @property
    def n_samples(self) -> int:
        return self._n

    @property
    def n_features(self) -> int:
        return self._buf.rows.shape[1]

    @property
    def bin_edges_(self) -> list[np.ndarray]:
        return self.binner.bin_edges_

    def append_codes(self, code_rows: np.ndarray) -> "BinnedDataset":
        """New dataset with already-binned rows stacked underneath.

        O(rows) amortized: when this dataset sits at its buffer's tail
        the rows are written in place (doubling capacity as needed) and
        the returned dataset shares the buffer — including the
        incrementally maintained transpose. Otherwise (a sibling grew the
        buffer first) the lineage forks with one copy. ``self`` is never
        mutated either way: its views cover only its own rows.
        """
        code_rows = np.asarray(code_rows, dtype=np.uint8)
        if code_rows.ndim != 2 or code_rows.shape[1] != self.n_features:
            raise ValueError(
                f"code rows must be (m, {self.n_features}), "
                f"got shape {code_rows.shape}"
            )
        new_n = self._buf.append(code_rows, self._n)
        if new_n is None:  # not at the tail: fork the lineage with a copy
            forked = _CodeBuffer(
                np.vstack([self.codes, code_rows]).astype(np.uint8)
            )
            return BinnedDataset._from_buffer(forked, forked.n_used, self.binner)
        return BinnedDataset._from_buffer(self._buf, new_n, self.binner)

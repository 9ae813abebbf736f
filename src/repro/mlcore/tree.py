"""CART decision-tree classifier, grown many trees at a time.

This is the base learner behind :class:`repro.mlcore.forest.RandomForestClassifier`,
the model ALBADross uses for every headline result (Table V, Figs. 3–8).
It supports the hyperparameters the paper grid-searches in Table IV
(``max_depth``, ``criterion`` ∈ {gini, entropy}) plus the knobs a forest
needs (``max_features`` feature subsampling, ``min_samples_leaf``).

Implementation notes (per the hpc-parallel guides: vectorize the hot path,
profile-driven):

* One grower, :func:`_grow_lockstep`, grows every tree of a forest chunk
  in lockstep; a single tree is a chunk of one. Each step takes every
  tree's next frontier in that tree's own order — the exact splitter's
  next depth-first splittable node, the hist splitter's next level —
  draws its candidate features from that tree's own RNG, and scores the
  frontier nodes of all trees in one call of a segmented split-search
  kernel. Each tree comes out bitwise what growing it alone gives, so
  results do not depend on lockstep or on how trees are chunked.
* Both splitters search integer codes. ``splitter="exact"`` ranks every
  column once per fit (dense ranks: tied values share a rank), so sorting
  a node's rows is a radix sort of narrow ``(node, rank)`` integer keys
  rather than a float argsort per node, and the threshold is the
  midpoint of the two neighbouring values. ``splitter="hist"``
  quantile-bins the matrix once (``repro.mlcore.binning``); nodes wider
  than ``max_bins`` rows replace the sort with one O(n) bincount over
  (feature, bin, class) cells — the LightGBM trick that makes repeated
  refits cheap — and thresholds are emitted as real bin-edge values so a
  hist-trained tree predicts on raw matrices.
* The tree is stored in flat parallel arrays (``feature``, ``threshold``,
  ``left``, ``right``, ``value``) so prediction is an iterative array walk
  rather than recursive object traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .base import (
    BaseEstimator,
    ClassifierMixin,
    check_array,
    check_random_state,
    check_X_y,
    encode_labels,
)
from .binning import DEFAULT_MAX_BINS, BinnedDataset, Binner

__all__ = ["DecisionTreeClassifier"]

_LEAF = -1

# numpy's stable sort is a radix sort for integer keys of at most 16 bits;
# a split-search call packs at most this many (node, code) keys
_RADIX_KEYS = 1 << 16

# bound on a split-search call's working set, in (rows · f · k) cells:
# ~4 MB per float64 tensor. At 4096 × 2000 a 100-tree hist fit and a
# 16-tree exact fit ran fastest at 2**18–2**20 cells, ~15 % faster than
# at 8M, where one step's tensors outgrow the caches
_CHUNK_CELLS = 1 << 19


@dataclass
class _TreeBuffers:
    """Growable flat-array representation of a binary tree."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[np.ndarray] = field(default_factory=list)

    def add_node(self, class_counts: np.ndarray) -> int:
        """Append a provisional leaf and return its index."""
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(class_counts)
        return len(self.feature) - 1


def _impurity(counts: np.ndarray, totals: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of class-count rows ``counts`` with row sums ``totals``.

    ``counts`` is ``(n, k)``; ``totals`` is ``(n,)`` and may contain zeros
    (empty partitions), which get impurity 0 so they never look attractive.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        p = counts / totals[:, None]
    p = np.nan_to_num(p)
    if criterion == "gini":
        return 1.0 - np.sum(p * p, axis=1)
    # entropy: 0 * log(0) := 0
    with np.errstate(invalid="ignore", divide="ignore"):
        logp = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -np.sum(p * logp, axis=1)


def _mass_impurity(
    counts: np.ndarray,
    totals: np.ndarray,
    criterion: str,
    log2_counts: np.ndarray | None = None,
) -> np.ndarray:
    """``totals * impurity(counts)`` without forming probability tensors.

    ``counts`` is ``(..., k)`` class counts, ``totals`` the matching
    ``(...)`` row sums (zeros allowed — empty partitions score 0). The
    algebra folds the normalization into the count tensors, which halves
    the number of full-tensor passes in the split-search hot loop:

    * gini:    n·(1 − Σp²)      = n − Σc²/n
    * entropy: n·(−Σp·log2 p)  = n·log2 n − Σc·log2 c

    ``log2_counts`` is ``log2(counts)`` (0 for empty counts) when the
    caller already looked it up in :func:`_log2_table`.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        if criterion == "gini":
            out = totals - np.einsum("...k,...k->...", counts, counts) / totals
        else:
            if log2_counts is None:
                log2_counts = np.log2(np.where(counts > 0, counts, 1.0))
            c_logc = np.einsum("...k,...k->...", counts, log2_counts)
            out = totals * np.log2(np.where(totals > 0, totals, 1.0)) - c_logc
    return np.where(totals > 0, out, 0.0)


def _log2_table(n_max: int) -> np.ndarray:
    """``log2(c)`` for every integer count ``0 <= c <= n_max`` (0 ↦ 0).

    Evaluated the same way :func:`_mass_impurity` evaluates it on a
    count tensor (``np.log2`` over a contiguous float array, 0 read as
    1), so a lookup returns the identical bits.
    """
    return np.log2(np.maximum(np.arange(n_max + 1, dtype=np.float64), 1.0))


def _key_dtype(n_keys: int) -> type:
    """Narrowest unsigned integer dtype holding keys ``0 .. n_keys - 1``."""
    for dt in (np.uint8, np.uint16, np.uint32):
        if n_keys <= int(np.iinfo(dt).max) + 1:
            return dt
    return np.uint64


def _dense_ranks(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column dense value ranks of ``X`` and the rank → value table.

    ``ranks[i, j]`` is the number of distinct values of column ``j`` below
    ``X[i, j]`` (tied values share a rank), so a stable sort of a node's
    rows by rank is the stable sort by value, tie order included.
    ``values[j, r]`` is the value of rank ``r`` in column ``j``, so
    ``values[j, ranks[i, j]] == X[i, j]``. Computed once per fit, this
    turns the exact splitter's per-node float argsort into the segmented
    kernel's integer radix sort.
    """
    n, n_features = X.shape
    rank_dtype = _key_dtype(n)
    ranks = np.empty((n_features, n), dtype=rank_dtype)
    values = np.zeros((n_features, n))
    n_ranks = 1
    # feature-major blocks (each column one contiguous row to sort) of
    # ~2**22 cells bound the sort's temporaries
    step = max(1, (1 << 22) // n)
    for lo in range(0, n_features, step):
        XT = np.ascontiguousarray(X[:, lo : lo + step].T)
        order = np.argsort(XT, axis=1)
        xs = np.take_along_axis(XT, order, axis=1)
        steps = np.zeros(XT.shape, dtype=rank_dtype)
        np.not_equal(xs[:, 1:], xs[:, :-1], out=steps[:, 1:])
        rank_sorted = np.cumsum(steps, axis=1, dtype=rank_dtype)
        np.put_along_axis(ranks[lo : lo + step], order, rank_sorted, axis=1)
        np.put_along_axis(
            values[lo : lo + step], rank_sorted.astype(np.intp), xs, axis=1
        )
        n_ranks = max(n_ranks, int(rank_sorted[:, -1].max()) + 1)
    return np.ascontiguousarray(ranks.T), values[:, :n_ranks]


def _best_splits_hist(
    sub: np.ndarray,
    y_cat: np.ndarray,
    sizes: np.ndarray,
    node_counts: np.ndarray,
    parent_imps: np.ndarray,
    k: int,
    criterion: str,
    min_samples_leaf: int,
):
    """Segmented histogram split search over many nodes at once.

    The LightGBM kernel, batched: one flattened bincount builds the
    (node, feature, bin, class) count tensor for a whole step's worth
    of large nodes in O(R · f), and one cumulative sum over bins scores
    every candidate cut of every node — no sorting anywhere. Interface
    matches :func:`_best_splits_small` (stacked code blocks in, per-node
    winners out); ``cut`` is the largest *bin* code that goes left, which
    the caller maps to the real-valued edge threshold.

    Returns ``(ok, fpos, cut, score)``; nodes with ``ok[i] == False``
    found no improving split.
    """
    R, f = sub.shape
    S = len(sizes)
    msl = max(1, min_samples_leaf)
    slot = np.repeat(np.arange(S, dtype=np.int64), sizes)
    nb = int(sub.max()) + 1
    if nb < 2:  # every candidate feature constant in every node
        return np.zeros(S, dtype=bool), None, None, None
    cells = S * f * nb * k
    # int32 index arithmetic halves the bandwidth of the three passes
    # below; bincount re-casts to intp internally either way
    idt = np.int32 if cells < 2**31 else np.int64
    flat = (
        ((slot.astype(idt) * f)[:, None] + np.arange(f, dtype=idt)) * (nb * k)
        + sub.astype(idt) * k
        + y_cat.astype(idt)[:, None]
    )
    hist = np.bincount(flat.ravel(), minlength=cells).reshape(S, f, nb, k)
    if R < 40_000:  # sums of squared counts stay below int32 overflow
        hist = hist.astype(np.int32)
    left = np.cumsum(hist, axis=2)[:, :, :-1, :]  # (S, f, nb-1, k)
    n_left = left.sum(axis=3)  # (S, f, nb-1)
    n_node = sizes[:, None, None]
    n_right = n_node - n_left
    valid = (n_left >= msl) & (n_right >= msl)
    counts = node_counts.astype(hist.dtype)
    with np.errstate(invalid="ignore", divide="ignore"):
        if criterion == "gini":
            # right-side Σc² expands as Σt² − 2Σt·c_left + Σc_left², so
            # the right-count tensor never has to be materialized; the
            # integer sums are exact, and the float ops below mirror
            # _mass_impurity's operation order bit-for-bit so tied
            # candidates score identically in both kernels
            e_l = np.einsum("sfbk,sfbk->sfb", left, left)
            d = np.einsum("sk,sfbk->sfb", counts, left)
            t2 = np.einsum("sk,sk->s", counts, counts)[:, None, None]
            mass_l = n_left - e_l / n_left
            mass_r = n_right - (t2 - 2 * d + e_l) / n_right
            weighted = (mass_l + mass_r) / n_node
        else:
            right = counts[:, None, None, :] - left
            table = _log2_table(int(sizes.max()))
            weighted = (
                _mass_impurity(left, n_left, criterion, table[left])
                + _mass_impurity(right, n_right, criterion, table[right])
            ) / n_node
    weighted = np.where(valid, weighted, np.inf)
    wflat = weighted.reshape(S, -1)
    best = np.argmin(wflat, axis=1)
    score = wflat[np.arange(S), best]
    if np.count_nonzero(wflat == score[:, None]) > S:
        # among tied cells pick the smallest (n_left, feature, bin) —
        # the candidate the sort kernel's C-order (cut row, feature)
        # argmin lands on, so hist and exact agree even under ties
        tiekey = (
            n_left.astype(np.int64) * f
            + np.arange(f, dtype=np.int64)[:, None]
        ) * (nb - 1) + np.arange(nb - 1, dtype=np.int64)
        tiekey = np.where(
            weighted == score[:, None, None],
            tiekey,
            np.iinfo(np.int64).max,
        )
        best = np.argmin(tiekey.reshape(S, -1), axis=1)
    fpos, cut = np.unravel_index(best, (f, nb - 1))
    ok = np.isfinite(score) & (score < parent_imps - 1e-12)
    return ok, fpos, cut, score


def _best_splits_small(
    sub: np.ndarray,
    y_cat: np.ndarray,
    sizes: np.ndarray,
    node_counts: np.ndarray,
    parent_imps: np.ndarray,
    k: int,
    criterion: str,
    min_samples_leaf: int,
    span: int,
):
    """Segmented sort-based split search over many nodes at once.

    ``sub`` is feature-major: ``(f, R)``, the gathered code blocks of
    ``S`` nodes side by side (segment ``i`` spans ``sizes[i]`` columns;
    codes lie in ``[0, span)``). ``y_cat`` holds the matching class
    codes, ``node_counts`` the ``(S, k)`` per-node class totals,
    ``parent_imps`` the ``(S,)`` parent impurities. A composite ``slot ·
    span + code`` key in the narrowest unsigned dtype makes one stable
    argsort order every segment independently — a radix sort while ``S ·
    span ≤ 2**16`` — so all the nodes cost one set of tensor passes
    instead of ~20 numpy calls each. Per node the result is what a float
    argsort of its values gives: same cuts, same scores bit for bit, same
    C-order (cut row, feature) tie-break.

    Returns ``(ok, fpos, lo, hi, score)``: ``lo`` and ``hi`` are the codes
    on either side of each node's cut row (the largest code that goes
    left, and the next code in sorted order). Nodes with ``ok[i] ==
    False`` found no improving split.
    """
    f, R = sub.shape
    S = len(sizes)
    msl = max(1, min_samples_leaf)
    starts = np.zeros(S, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    slot = np.repeat(np.arange(S, dtype=np.int64), sizes)  # (R,)
    kdt = _key_dtype(S * span)
    offs = np.arange(S, dtype=np.int64) * span
    key = offs.astype(kdt)[slot] + sub.astype(kdt, copy=False)  # (f, R)
    order = np.argsort(key, axis=1, kind="stable")
    key_sorted = np.take_along_axis(key, order, axis=1)
    y_sorted = y_cat.astype(np.uint8)[order]  # (f, R), k <= 256
    # int16 running counts wrap across segments, but each segment's
    # counts (differences within it) stay exact while it holds < 2**15
    # rows; sums of squared counts then fit int32
    n_max = int(sizes.max())
    cdt, sdt = (np.int16, np.int32) if n_max < 2**15 else (np.int64, np.int64)
    onehot = y_sorted[:, None, :] == np.arange(k, dtype=np.uint8)[:, None]
    # (f, k, R) running class counts across all segments
    cs = np.cumsum(onehot.view(np.uint8), axis=2, dtype=cdt)
    if S > 1:
        # subtract each segment's prefix so counts restart at its first row
        base = np.zeros((f, k, S), dtype=cdt)
        base[:, :, 1:] = cs[:, :, starts[1:] - 1]
        cs -= base[:, :, slot]
    n_left = np.arange(R, dtype=np.int64) - starts[slot] + 1  # (R,)
    n_node = sizes[slot]
    n_right = n_node - n_left
    # a cut after sorted row r is real only if row r+1 holds a different
    # code *in the same segment*; segment-final rows die on n_right < 1
    diff = np.zeros((f, R), dtype=bool)
    diff[:, :-1] = key_sorted[:, 1:] != key_sorted[:, :-1]
    valid = diff & ((n_left >= msl) & (n_right >= msl))
    with np.errstate(invalid="ignore", divide="ignore"):
        if criterion == "gini":
            # same Σc_right² expansion as the histogram kernel: integer
            # sums (exact in any order) instead of a right-count tensor,
            # float ops in _mass_impurity's order for tie parity
            tot = node_counts.T.astype(cdt)[:, slot]  # (k, R)
            e_l = np.einsum("fkr,fkr->fr", cs, cs, dtype=sdt)
            d = np.einsum("kr,fkr->fr", tot, cs, dtype=sdt)
            t2 = np.einsum("kr,kr->r", tot, tot, dtype=sdt)
            mass_l = n_left - e_l / n_left
            mass_r = n_right - (t2 - 2 * d + e_l) / n_right
            weighted = (mass_l + mass_r) / n_node  # (f, R)
        else:
            # Σc·log2 c reduces over a contiguous class axis, as in
            # _mass_impurity, so the sums round identically
            table = _log2_table(n_max)
            left = cs.transpose(0, 2, 1).astype(np.intp, order="C")
            right = node_counts.astype(np.intp)[slot] - left  # (f, R, k)
            weighted = (
                _mass_impurity(left.astype(np.float64), n_left, criterion, table[left])
                + _mass_impurity(
                    right.astype(np.float64), n_right, criterion, table[right]
                )
            ) / n_node
    weighted = np.where(valid, weighted, np.inf)
    rowmin = weighted.min(axis=0)  # (R,)
    segmin = np.minimum.reduceat(rowmin, starts)  # (S,)
    ok = np.isfinite(segmin) & (segmin < parent_imps - 1e-12)
    # first row attaining each segment's min, then first feature at that
    # row — matches the per-node C-order argmin tie-break exactly
    hit_rows = np.flatnonzero(rowmin == segmin[slot])
    r_star = hit_rows[np.unique(slot[hit_rows], return_index=True)[1]]
    fpos = np.argmin(weighted[:, r_star], axis=0)  # (S,)
    lo = key_sorted[fpos, r_star].astype(np.int64) - offs
    # a valid cut row always has a same-segment successor
    nxt = np.minimum(r_star + 1, R - 1)
    hi = np.where(ok, key_sorted[fpos, nxt].astype(np.int64) - offs, lo)
    return ok, fpos, lo, hi, segmin


class _Node(NamedTuple):
    """A frontier node waiting for this step's split search."""

    growth: "_Growth"
    node_id: int
    rows: np.ndarray
    depth: int
    impurity: float
    feats: np.ndarray  # candidate features drawn for it


class _Split(NamedTuple):
    """The winning split of one frontier node."""

    feature: int
    threshold: float
    score: float  # weighted child impurity
    left_rows: np.ndarray
    right_rows: np.ndarray
    left_counts: np.ndarray
    right_counts: np.ndarray
    left_impurity: float
    right_impurity: float


@dataclass
class _Growth:
    """One tree's state inside :func:`_grow_lockstep`."""

    tree: "DecisionTreeClassifier"
    rng: np.random.Generator
    y: np.ndarray  # tree-local class codes of every row of the code matrix
    n_samples: int
    buf: _TreeBuffers
    importances: np.ndarray
    # (node id, row indices, depth, impurity) entries: a depth-first
    # stack for the exact splitter, the current level for hist
    frontier: list = field(default_factory=list)

    def take(self, search: "_SplitSearch") -> list[_Node]:
        """This tree's nodes for the next step, features drawn in order.

        Exact: the next depth-first splittable node. Hist: every
        splittable node of the next level.
        """
        if search.exact:
            while self.frontier:
                entry = self.frontier.pop()
                if self._splittable(entry):
                    return [_Node(self, *entry, search.draw(self.rng))]
            return []
        level, self.frontier = self.frontier, []
        return [
            _Node(self, *entry, search.draw(self.rng))
            for entry in level
            if self._splittable(entry)
        ]

    def _splittable(self, entry: tuple) -> bool:
        node_id, rows, depth, _imp = entry
        tree = self.tree
        return (
            (tree.max_depth is None or depth < tree.max_depth)
            and np.count_nonzero(self.buf.value[node_id]) > 1
            and len(rows) >= tree.min_samples_split
        )

    def apply(self, node: _Node, split: _Split) -> None:
        """Turn ``node`` into an internal node and queue its children."""
        # mean decrease in impurity, weighted by node population
        self.importances[split.feature] += (len(node.rows) / self.n_samples) * (
            node.impurity - split.score
        )
        buf = self.buf
        left_id = buf.add_node(split.left_counts)
        right_id = buf.add_node(split.right_counts)
        buf.feature[node.node_id] = split.feature
        buf.threshold[node.node_id] = split.threshold
        buf.left[node.node_id] = left_id
        buf.right[node.node_id] = right_id
        depth = node.depth + 1
        self.frontier.append((left_id, split.left_rows, depth, split.left_impurity))
        self.frontier.append((right_id, split.right_rows, depth, split.right_impurity))


class _SplitSearch:
    """Scores a step's frontier nodes, all trees at once.

    Holds what every tree of a lockstep growth shares: the code matrix
    (dense ranks + their ``values`` table, or bin codes + ``edges``) and
    the hyperparameters. Nodes are grouped by their tree's class count,
    hist nodes wider than ``max_bins`` rows go to the histogram kernel
    and every other node to the segmented sort kernel, in chunks that
    bound each call's working set and keep sort keys radix-sortable.
    """

    def __init__(
        self,
        proto: "DecisionTreeClassifier",
        codes: np.ndarray,
        edges: list[np.ndarray] | None,
        values: np.ndarray | None,
        codes_T: np.ndarray | None,
    ):
        self.exact = values is not None
        self.codes, self.edges, self.values = codes, edges, values
        self.n_features = codes.shape[1]
        self.n_cand = proto._n_candidate_features(self.n_features)
        self.all_feats = np.arange(self.n_features)
        self.criterion = proto.criterion
        self.min_samples_leaf = proto.min_samples_leaf
        self.max_bins = proto.max_bins
        self.span = values.shape[1] if self.exact else max(len(e) for e in edges) + 1
        if not self.exact and codes_T is None and len(codes) > self.max_bins:
            # row-major codes scatter one cache line per gathered cell;
            # routing big nodes through the transposed copy keeps each
            # node's candidate block (n_cand contiguous rows of codes.T)
            # cache-resident
            codes_T = np.ascontiguousarray(codes.T)
        self.codes_T = codes_T

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        if self.n_cand < self.n_features:
            return rng.choice(self.n_features, size=self.n_cand, replace=False)
        return self.all_feats

    def split(self, nodes: list[_Node]) -> list[_Split | None]:
        """The best improving split of every node (``None``: none)."""
        out: list = [None] * len(nodes)
        by_k: dict[int, list[int]] = {}
        for i, node in enumerate(nodes):
            by_k.setdefault(node.growth.tree._n_classes, []).append(i)
        for k, members in by_k.items():
            is_big = [
                not self.exact and len(nodes[i].rows) > self.max_bins for i in members
            ]
            rows_cap = _CHUNK_CELLS // max(1, self.n_cand * k)
            if not self.exact:
                rows_cap = max(self.max_bins, rows_cap)
            found: list[tuple] = []
            for hist in (True, False):
                positions = [i for i, big in zip(members, is_big) if big == hist]
                # a histogram node costs a full bin axis, a sorted node its
                # rows; a sort call also packs at most _RADIX_KEYS keys
                cost = (lambda i: self.max_bins) if hist else (lambda i: len(nodes[i].rows))
                max_segs = len(positions) if hist else max(1, _RADIX_KEYS // self.span)
                at = 0
                while at < len(positions):
                    chunk = [positions[at]]
                    used = cost(positions[at])
                    at += 1
                    while (
                        at < len(positions)
                        and len(chunk) < max_segs
                        and used + cost(positions[at]) <= rows_cap
                    ):
                        used += cost(positions[at])
                        chunk.append(positions[at])
                        at += 1
                    found += self._split_chunk(nodes, chunk, hist, k)
            if not found:
                continue
            # every child's impurity in one call; rows are independent
            cc = np.concatenate([f[1] for f in found])
            imps = _impurity(cc, cc.sum(axis=1), self.criterion)
            for n, (i, counts, head) in enumerate(found):
                out[i] = _Split(
                    *head, counts[0], counts[1],
                    float(imps[2 * n]), float(imps[2 * n + 1]),
                )
        return out

    def _split_chunk(
        self, nodes: list[_Node], chunk: list[int], hist: bool, k: int
    ) -> list[tuple]:
        """One kernel call over ``nodes[chunk]``; partition the winners.

        Returns ``(node position, (left, right) class counts, (feature,
        threshold, score, left rows, right rows))`` per improving split.
        """
        part = [nodes[i] for i in chunk]
        S = len(part)
        sizes = np.array([len(node.rows) for node in part], dtype=np.int64)
        idx_cat = np.concatenate([node.rows for node in part])
        slot = np.repeat(np.arange(S), sizes)
        featmat = np.stack([node.feats for node in part])
        if len({id(node.growth.y) for node in part}) == 1:
            y_cat = part[0].growth.y[idx_cat]
        else:
            y_cat = np.concatenate([node.growth.y[node.rows] for node in part])
        counts = np.stack([node.growth.buf.value[node.node_id] for node in part])
        parent_imps = np.array([node.impurity for node in part])
        args = (
            y_cat, sizes, counts.astype(np.int32), parent_imps, k,
            self.criterion, self.min_samples_leaf,
        )
        if hist:
            sub = np.vstack(
                [self.codes_T[node.feats][:, node.rows].T for node in part]
            )
            ok, fpos, lo, score = _best_splits_hist(sub, *args)
        else:
            sub = self.codes[idx_cat, featmat[slot].T]  # (n_cand, R)
            ok, fpos, lo, hi, score = _best_splits_small(sub, *args, self.span)
        if not ok.any():
            return []
        j = featmat[np.arange(S), fpos]
        col = self.codes[idx_cat, j[slot]]
        if self.exact:
            # the midpoint of the two neighbouring values, and the rows
            # partitioned by value (x <= thr), as a float search does
            thr = 0.5 * (self.values[j, lo] + self.values[j, hi])
            mask = self.values[j[slot], col] <= thr[slot]
        else:
            mask = col <= lo[slot]
        left = np.bincount((slot * k + y_cat)[mask], minlength=S * k).reshape(S, k)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        found = []
        for s in np.flatnonzero(ok):
            rows = part[s].rows
            m = mask[bounds[s] : bounds[s + 1]]
            feature = int(j[s])
            # hist emits the bin's real-valued upper edge
            threshold = float(thr[s] if self.exact else self.edges[feature][lo[s]])
            cc = np.empty((2, k))
            cc[0] = left[s]
            cc[1] = counts[s] - cc[0]
            found.append(
                (chunk[s], cc, (feature, threshold, float(score[s]), rows[m], rows[~m]))
            )
        return found


def _grow_lockstep(
    trees: list["DecisionTreeClassifier"],
    codes: np.ndarray,
    y: np.ndarray,
    samples: list[np.ndarray | None],
    *,
    edges: list[np.ndarray] | None = None,
    values: np.ndarray | None = None,
    codes_T: np.ndarray | None = None,
) -> None:
    """Grow ``trees`` (same hyperparameters) together on one code matrix.

    ``codes`` is ``(n, F)``: dense ranks with their rank → value table
    ``values`` for the exact splitter (:func:`_dense_ranks`), or bin codes
    with their per-feature ``edges`` for hist (``codes_T`` is the cached
    feature-major copy, built here when a node can need it).
    ``samples[t]`` holds tree ``t``'s root rows (duplicates allowed — a
    bootstrap resample) or ``None`` for every row; each tree's
    ``random_state`` drives its own feature draws. Every step advances
    each tree by its next frontier — exact: the next depth-first
    splittable node; hist: the next level — and scores all of them in one
    :class:`_SplitSearch`. Trees come out bitwise what growing each alone
    gives, field by field.
    """
    search = _SplitSearch(trees[0], codes, edges, values, codes_T)
    classes, all_codes = encode_labels(y)
    growths: list[_Growth] = []
    for tree, rows in zip(trees, samples):
        rng = check_random_state(tree.random_state)
        if rows is None:
            rows = np.arange(len(codes))
            tree.classes_, tree_y = classes.copy(), all_codes
        else:
            rows = np.asarray(rows)
            # class list comes from the resample, matching fit(X[rows], y[rows])
            seen = np.unique(all_codes[rows])
            tree.classes_ = classes[seen]
            # garbage for unseen classes: ok, they never occur in rows
            tree_y = all_codes if len(seen) == len(classes) else np.searchsorted(
                seen, all_codes
            )
        k = len(tree.classes_)
        tree._n_classes = k
        tree.n_features_in_ = search.n_features
        buf = _TreeBuffers()
        buf.add_node(np.bincount(tree_y[rows], minlength=k).astype(float))
        growth = _Growth(tree, rng, tree_y, len(rows), buf, np.zeros(search.n_features))
        growth.frontier.append(rows)
        growths.append(growth)
    # root impurities, one call per class count (rows are independent)
    for k in {g.tree._n_classes for g in growths}:
        group = [g for g in growths if g.tree._n_classes == k]
        roots = np.stack([g.buf.value[0] for g in group])
        for g, imp in zip(group, _impurity(roots, roots.sum(axis=1), search.criterion)):
            g.frontier = [(0, g.frontier[0], 0, float(imp))]

    # without a feature to split on every tree stays a stump
    live = growths if search.n_features else []
    while live:
        nodes = [node for g in live for node in g.take(search)]
        if not nodes:
            break
        for node, split in zip(nodes, search.split(nodes)):
            if split is not None:
                node.growth.apply(node, split)
        live = [g for g in live if g.frontier]
    for g in growths:
        g.tree._finalize(g.buf, g.importances)


class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """Binary-split CART classifier.

    Parameters
    ----------
    criterion:
        Split quality measure, ``"gini"`` or ``"entropy"`` (Table IV space).
    max_depth:
        Maximum tree depth; ``None`` grows until leaves are pure or too small.
    min_samples_split:
        Smallest node size still eligible for splitting.
    min_samples_leaf:
        Smallest child size a split may produce.
    max_features:
        Number of features examined per split: ``None`` (all), ``"sqrt"``,
        ``"log2"``, an int, or a float fraction. Forests pass ``"sqrt"``.
    splitter:
        ``"exact"`` (every distinct value is a candidate cut — the
        reference path, default for seeded reproducibility) or ``"hist"``
        (bin once; cuts on bin edges, O(n) histogram search for big nodes).
    max_bins:
        Bins per feature for the hist splitter (2..256; uint8 codes).
    random_state:
        Seed/Generator used for feature subsampling only.
    """

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        splitter: str = "exact",
        max_bins: int = DEFAULT_MAX_BINS,
        random_state: int | np.random.Generator | None = None,
    ):
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.splitter = splitter
        self.max_bins = max_bins
        self.random_state = random_state

    # ------------------------------------------------------------------
    def _n_candidate_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None:
            return n_features
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if mf == "log2":
            return max(1, int(np.log2(n_features)))
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError(f"max_features fraction out of (0, 1]: {mf}")
            return max(1, int(mf * n_features))
        if isinstance(mf, (int, np.integer)):
            if mf < 1:
                raise ValueError(f"max_features must be >= 1, got {mf}")
            return min(int(mf), n_features)
        raise ValueError(f"unsupported max_features: {mf!r}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        """Grow the tree on ``(X, y)``."""
        X, y = check_X_y(X, y)
        if self.splitter not in ("exact", "hist"):
            raise ValueError(
                f"splitter must be 'exact' or 'hist', got {self.splitter!r}"
            )
        if self.splitter == "hist":
            binner = Binner(self.max_bins)
            codes = binner.fit_transform(X)
            _grow_lockstep([self], codes, y, [None], edges=binner.bin_edges_)
        else:
            ranks, values = _dense_ranks(X)
            _grow_lockstep([self], ranks, y, [None], values=values)
        return self

    def fit_binned(
        self,
        binned: BinnedDataset,
        y: np.ndarray,
        sample_indices: np.ndarray | None = None,
    ) -> "DecisionTreeClassifier":
        """Grow from a pre-binned dataset (shared across a forest / refits).

        ``sample_indices`` selects the training rows (duplicates allowed —
        a forest passes its bootstrap resample here) without ever copying
        the shared code matrix.
        """
        y = np.asarray(y)
        if len(y) != binned.n_samples:
            raise ValueError(
                f"binned has {binned.n_samples} samples but y has {len(y)}"
            )
        _grow_lockstep(
            [self], binned.codes, y, [sample_indices],
            edges=binned.bin_edges_, codes_T=binned.codes_T,
        )
        return self

    def _finalize(
        self, buf: _TreeBuffers, importances: np.ndarray
    ) -> "DecisionTreeClassifier":
        """Freeze growth buffers into the flat prediction arrays."""
        self.tree_feature_ = np.array(buf.feature, dtype=np.int64)
        self.tree_threshold_ = np.array(buf.threshold, dtype=np.float64)
        self.tree_left_ = np.array(buf.left, dtype=np.int64)
        self.tree_right_ = np.array(buf.right, dtype=np.int64)
        values = np.vstack(buf.value)
        sums = values.sum(axis=1, keepdims=True)
        # raw class counts kept alongside the normalized frequencies so
        # warm refits can fold new rows into leaves (absorb_labeled)
        self.tree_count_ = values.astype(np.float64)
        self.tree_value_ = values / np.where(sums > 0, sums, 1.0)
        self.node_count_ = len(buf.feature)
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        return self

    # ------------------------------------------------------------------
    def absorb_labeled(self, X_rows: np.ndarray, y_labels: np.ndarray) -> np.ndarray:
        """Fold labeled rows into leaf statistics without regrowing.

        The warm-refit fast path for *kept* trees: each row descends to
        its leaf (the split structure is untouched) and increments that
        leaf's class count; the leaf's predicted distribution is
        renormalized from the updated counts. Labels outside this tree's
        bootstrap-time class list extend it in place (the new class gets
        a zero column everywhere else). Returns the unique leaf ids whose
        distributions changed, so a pool scorer can patch exactly those
        contributions.

        Internal-node counts are left stale on purpose — only leaf rows
        of ``tree_value_`` feed prediction, and importances are frozen at
        grow time (documented in docs/mlcore.md).
        """
        X_rows = np.asarray(X_rows, dtype=np.float64)
        if X_rows.ndim == 1:
            X_rows = X_rows[None, :]
        y_labels = np.atleast_1d(np.asarray(y_labels))
        if len(y_labels) != len(X_rows):
            raise ValueError(
                f"{len(X_rows)} rows but {len(y_labels)} labels"
            )
        merged = np.unique(np.concatenate([self.classes_, y_labels]))
        if len(merged) != len(self.classes_):
            old_cols = np.searchsorted(merged, self.classes_)
            counts = np.zeros((self.node_count_, len(merged)), dtype=np.float64)
            counts[:, old_cols] = self.tree_count_
            self.tree_count_ = counts
            self.classes_ = merged
            self._n_classes = len(merged)
        y_local = np.searchsorted(self.classes_, y_labels)
        leaves = self._leaf_indices(X_rows)
        np.add.at(self.tree_count_, (leaves, y_local), 1.0)
        touched = np.unique(leaves)
        counts = self.tree_count_
        sums = counts.sum(axis=1, keepdims=True)
        if len(merged) != self.tree_value_.shape[1]:
            # class set grew: every row needs the widened column layout
            self.tree_value_ = counts / np.where(sums > 0, sums, 1.0)
        else:
            self.tree_value_[touched] = counts[touched] / np.where(
                sums[touched] > 0, sums[touched], 1.0
            )
        return touched

    # ------------------------------------------------------------------
    def _leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Vectorized descent: route every row of ``X`` to its leaf id."""
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.tree_feature_[node] != _LEAF
        while active.any():
            idx = np.flatnonzero(active)
            cur = node[idx]
            feats = self.tree_feature_[cur]
            go_left = X[idx, feats] <= self.tree_threshold_[cur]
            node[idx] = np.where(go_left, self.tree_left_[cur], self.tree_right_[cur])
            active[idx] = self.tree_feature_[node[idx]] != _LEAF
        return node

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-frequency distribution of the leaf each sample lands in."""
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}"
            )
        return self.tree_value_[self._leaf_indices(X)]

    @property
    def depth_(self) -> int:
        """Realized tree depth (0 for a stump that never split).

        Level-order array sweep: each iteration expands the whole
        frontier of internal nodes into their children with three array
        gathers, so the cost is O(depth) numpy calls instead of an
        O(node_count) Python loop per access (monitors and stats read
        this per tree per round).
        """
        if not self.node_count_:
            return 0
        internal = self.tree_feature_ != _LEAF
        frontier = np.array([0], dtype=np.int64)
        depth = 0
        while True:
            frontier = frontier[internal[frontier]]
            if not frontier.size:
                return depth
            frontier = np.concatenate(
                [self.tree_left_[frontier], self.tree_right_[frontier]]
            )
            depth += 1

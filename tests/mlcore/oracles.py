"""Reference tree growers the lockstep grower must match bit for bit.

``repro.mlcore.tree._grow_lockstep`` grows every tree of a forest chunk
together and scores all their frontier nodes in one kernel call. The
functions here are the straightforward forms it replaced, kept in the
tests only:

* :func:`fit_exact` — depth-first growth, one node per call: a float
  argsort of the node's candidate columns, a one-hot running count and one
  impurity tensor per node;
* :func:`fit_hist` — level-wise growth of one tree over bin codes: nodes
  wider than ``max_bins`` run the histogram kernel, the rest of the level
  one row-major segmented sort (:func:`best_splits_small`, ``int32`` keys);
* :func:`fit_forest` — one tree after another with the forest's per-tree
  seed streams and bootstrap resamples.

Every tree they grow is pinned against the production grower with
``np.array_equal`` on each fitted array (``tests/mlcore/test_lockstep.py``).
"""

from __future__ import annotations

import numpy as np

from repro.mlcore.base import check_random_state, encode_labels
from repro.mlcore.binning import Binner
from repro.mlcore.forest import _bootstrap_indices
from repro.mlcore.tree import (
    DecisionTreeClassifier,
    _best_splits_hist,
    _impurity,
    _mass_impurity,
    _TreeBuffers,
)


def best_split(tree, Xs, y_node, parent_impurity):
    """Best (candidate position, threshold, child impurity, left mask).

    ``Xs`` is the node's gathered ``(n, f)`` candidate-feature block and
    ``y_node`` its class codes: one argsort, one one-hot running count,
    one argmin over all cuts in C order (cut row, then feature). ``None``
    when no cut is valid or none strictly improves on the parent.
    """
    n, _ = Xs.shape
    k = tree._n_classes
    order = np.argsort(Xs, axis=0, kind="stable")
    xs_sorted = np.take_along_axis(Xs, order, axis=0)
    diff = xs_sorted[1:] != xs_sorted[:-1]  # (n-1, f)
    if not diff.any():
        return None
    y_sorted = y_node[order]  # (n, f)
    onehot = (
        y_sorted[:, :, None] == np.arange(k)[None, None, :]
    ).astype(np.float64)  # (n, f, k)
    left_counts = np.cumsum(onehot, axis=0)[:-1]  # (n-1, f, k)
    total_counts = left_counts[-1] + onehot[-1]  # (f, k)
    right_counts = total_counts[None] - left_counts
    n_left = np.arange(1, n, dtype=np.float64)[:, None]  # (n-1, 1)
    n_right = n - n_left
    valid = (
        diff
        & (n_left >= tree.min_samples_leaf)
        & (n_right >= tree.min_samples_leaf)
    )
    if not valid.any():
        return None
    weighted = (
        _mass_impurity(left_counts, np.broadcast_to(n_left, diff.shape), tree.criterion)
        + _mass_impurity(right_counts, np.broadcast_to(n_right, diff.shape), tree.criterion)
    ) / n  # (n-1, f)
    weighted = np.where(valid, weighted, np.inf)
    flat = int(np.argmin(weighted))
    cut, fpos = np.unravel_index(flat, weighted.shape)
    score = float(weighted[cut, fpos])
    if score >= parent_impurity - 1e-12:  # must strictly improve
        return None
    thr = 0.5 * (xs_sorted[cut, fpos] + xs_sorted[cut + 1, fpos])
    return int(fpos), float(thr), score, Xs[:, fpos] <= thr


def fit_exact(tree: DecisionTreeClassifier, X: np.ndarray, y: np.ndarray):
    """Exact-splitter growth, depth-first, one node per split search."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    rng = check_random_state(tree.random_state)
    tree.classes_, codes = encode_labels(y)
    tree._n_classes = len(tree.classes_)
    n_samples, n_features = X.shape
    tree.n_features_in_ = n_features
    n_cand = tree._n_candidate_features(n_features)

    buf = _TreeBuffers()
    root_counts = np.bincount(codes, minlength=tree._n_classes).astype(float)
    root = buf.add_node(root_counts)
    importances = np.zeros(n_features)
    # stack of (node_id, sample indices, depth)
    stack = [(root, np.arange(n_samples), 0)]
    while stack:
        node_id, idx, depth = stack.pop()
        counts = buf.value[node_id]
        pure = np.count_nonzero(counts) <= 1
        too_deep = tree.max_depth is not None and depth >= tree.max_depth
        too_small = len(idx) < tree.min_samples_split
        if pure or too_deep or too_small:
            continue
        parent_imp = float(
            _impurity(counts[None, :], np.array([counts.sum()]), tree.criterion)[0]
        )
        if n_cand < n_features:
            feats = rng.choice(n_features, size=n_cand, replace=False)
        else:
            feats = np.arange(n_features)
        split = best_split(tree, X[np.ix_(idx, feats)], codes[idx], parent_imp)
        if split is None:
            continue
        fpos, thr, child_imp, mask = split
        j = int(feats[fpos])
        # mean decrease in impurity, weighted by node population
        importances[j] += (len(idx) / n_samples) * (parent_imp - child_imp)
        left_idx, right_idx = idx[mask], idx[~mask]
        left_counts = np.bincount(codes[left_idx], minlength=tree._n_classes)
        right_counts = counts - left_counts
        left_id = buf.add_node(left_counts.astype(float))
        right_id = buf.add_node(right_counts.astype(float))
        buf.feature[node_id] = j
        buf.threshold[node_id] = thr
        buf.left[node_id] = left_id
        buf.right[node_id] = right_id
        stack.append((left_id, left_idx, depth + 1))
        stack.append((right_id, right_idx, depth + 1))
    return tree._finalize(buf, importances)


def best_splits_small(tree, sub, y_cat, sizes, node_counts, parent_imps):
    """Row-major segmented sort search with ``slot * 256 + code`` keys.

    ``sub`` stacks the ``(n_i, f)`` bin-code blocks of ``S`` nodes row-wise.
    Returns ``(ok, fpos, cut_code, score, left_counts, left_mask)``.
    """
    R, f = sub.shape
    S = len(sizes)
    k = tree._n_classes
    msl = max(1, tree.min_samples_leaf)
    starts = np.zeros(S, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    slot = np.repeat(np.arange(S, dtype=np.int32), sizes)  # (R,)
    key = slot[:, None] * np.int32(256) + sub  # (R, f) int32
    order = np.argsort(key, axis=0, kind="stable")
    key_sorted = np.take_along_axis(key, order, axis=0)
    y_sorted = y_cat.astype(np.uint8)[order]  # (R, f)
    cs = np.cumsum(
        y_sorted[:, :, None] == np.arange(k, dtype=np.uint8),
        axis=0,
        dtype=np.int32,
    )  # (R, f, k)
    base = np.zeros((S, f, k), dtype=np.int32)
    if S > 1:
        base[1:] = cs[starts[1:] - 1]
    left_counts = cs - base[slot]  # (R, f, k)
    n_left = (np.arange(R, dtype=np.int64) - starts[slot] + 1)[:, None]
    n_node = sizes[slot][:, None]
    n_right = n_node - n_left
    diff = np.zeros((R, f), dtype=bool)
    diff[:-1] = key_sorted[1:] != key_sorted[:-1]
    valid = diff & (n_left >= msl) & (n_right >= msl)
    tot_rows = node_counts[slot]  # (R, k)
    with np.errstate(invalid="ignore", divide="ignore"):
        if tree.criterion == "gini":
            e_l = np.einsum("rfk,rfk->rf", left_counts, left_counts)
            d = np.einsum("rk,rfk->rf", tot_rows, left_counts)
            t2 = np.einsum("rk,rk->r", tot_rows, tot_rows)[:, None]
            mass_l = n_left - e_l / n_left
            mass_r = n_right - (t2 - 2 * d + e_l) / n_right
            weighted = (mass_l + mass_r) / n_node
        else:
            right_counts = tot_rows[:, None, :] - left_counts
            weighted = (
                _mass_impurity(left_counts, n_left, tree.criterion)
                + _mass_impurity(right_counts, n_right, tree.criterion)
            ) / n_node
    weighted = np.where(valid, weighted, np.inf)
    rowmin = weighted.min(axis=1)
    segmin = np.minimum.reduceat(rowmin, starts)
    ok = np.isfinite(segmin) & (segmin < parent_imps - 1e-12)
    hit_rows = np.flatnonzero(rowmin == segmin[slot])
    r_star = hit_rows[np.unique(slot[hit_rows], return_index=True)[1]]
    fpos = np.argmin(weighted[r_star], axis=1)
    cut_code = key_sorted[r_star, fpos] - np.arange(S, dtype=np.int32) * 256
    col = sub[np.arange(R), fpos[slot]]
    left_mask = col <= cut_code[slot]
    lc = left_counts[r_star, fpos]
    return ok, fpos, cut_code, segmin, lc, left_mask


def _hist_kernel(tree, sub, y_cat, sizes, node_counts, parent_imps):
    """The histogram kernel with left counts and masks derived here."""
    ok, fpos, cut, score = _best_splits_hist(
        sub, y_cat, sizes, node_counts, parent_imps,
        tree._n_classes, tree.criterion, tree.min_samples_leaf,
    )
    if not ok.any():
        return ok, fpos, cut, score, None, None
    slot = np.repeat(np.arange(len(sizes)), sizes)
    left_mask = sub[np.arange(len(sub)), fpos[slot]] <= cut[slot]
    lc = np.zeros((len(sizes), tree._n_classes), dtype=np.int64)
    np.add.at(lc, (slot[left_mask], y_cat[left_mask]), 1)
    return ok, fpos, cut, score, lc, left_mask


def fit_hist(
    tree: DecisionTreeClassifier,
    X: np.ndarray,
    edges: list[np.ndarray],
    y: np.ndarray,
    sample_indices: np.ndarray | None = None,
):
    """Level-wise growth of one tree over bin codes ``X``."""
    y = np.asarray(y)
    rng = check_random_state(tree.random_state)
    n_features = X.shape[1]
    if sample_indices is None:
        root_idx = np.arange(X.shape[0])
        tree.classes_, codes = encode_labels(y)
    else:
        root_idx = np.asarray(sample_indices)
        tree.classes_, all_codes = encode_labels(y)
        seen = np.unique(all_codes[root_idx])
        tree.classes_ = tree.classes_[seen]
        codes = np.searchsorted(seen, all_codes)
    tree._n_classes = len(tree.classes_)
    n_samples = len(root_idx)
    tree.n_features_in_ = n_features
    n_cand = tree._n_candidate_features(n_features)
    k = tree._n_classes
    codes_T = np.ascontiguousarray(X.T)

    buf = _TreeBuffers()
    root_counts = np.bincount(codes[root_idx], minlength=k).astype(float)
    root = buf.add_node(root_counts)
    importances = np.zeros(n_features)
    root_imp = float(
        _impurity(root_counts[None, :], np.array([root_counts.sum()]), tree.criterion)[0]
    )
    # (node_id, row indices, class counts, impurity)
    level = [(root, root_idx, root_counts, root_imp)]
    depth = 0
    while level:
        if tree.max_depth is not None and depth >= tree.max_depth:
            break
        splittable = [
            node
            for node in level
            if np.count_nonzero(node[2]) > 1 and len(node[1]) >= tree.min_samples_split
        ]
        if not splittable:
            break
        if n_cand < n_features:
            featmat = np.stack(
                [rng.choice(n_features, size=n_cand, replace=False) for _ in splittable]
            )
        else:
            featmat = np.broadcast_to(np.arange(n_features), (len(splittable), n_features))
        found = []
        for pos, node in enumerate(splittable):
            idx = node[1]
            counts = node[2].astype(np.int32)[None, :]
            imps = np.array([node[3]])
            sizes = np.array([len(idx)], dtype=np.int64)
            if len(idx) > tree.max_bins:
                sub = codes_T[featmat[pos]][:, idx].T
                kernel = _hist_kernel
            else:
                sub = X[idx[:, None], featmat[pos][None, :]]
                kernel = best_splits_small
            ok, fpos, cut, score, lc, mask = kernel(
                tree, sub, codes[idx], sizes, counts, imps
            )
            if ok[0]:
                found.append((pos, int(fpos[0]), int(cut[0]), float(score[0]), lc[0], mask))
        if not found:
            break
        level_next = []
        m = len(found)
        pos_a = np.array([t[0] for t in found])
        fpos_a = np.array([t[1] for t in found])
        score_a = np.array([t[3] for t in found])
        j_a = featmat[pos_a, fpos_a]
        sz_a = np.array([len(splittable[p][1]) for p in pos_a], dtype=float)
        imp_a = np.array([splittable[p][3] for p in pos_a])
        np.add.at(importances, j_a, (sz_a / n_samples) * (imp_a - score_a))
        lc_mat = np.stack([t[4] for t in found]).astype(float)
        counts_mat = np.stack([splittable[p][2] for p in pos_a])
        cc = np.empty((2 * m, k))
        cc[0::2] = lc_mat
        cc[1::2] = counts_mat - lc_mat
        first_child = len(buf.feature)
        for row in cc:
            buf.add_node(row)
        imps = _impurity(cc, cc.sum(axis=1), tree.criterion)
        for i, (pos, _fpos, cut, _score, _lc, mask) in enumerate(found):
            node_id, idx = splittable[pos][0], splittable[pos][1]
            j = int(j_a[i])
            left_id = first_child + 2 * i
            buf.feature[node_id] = j
            buf.threshold[node_id] = float(edges[j][cut])
            buf.left[node_id] = left_id
            buf.right[node_id] = left_id + 1
            level_next.append((left_id, idx[mask], cc[2 * i], float(imps[2 * i])))
            level_next.append(
                (left_id + 1, idx[~mask], cc[2 * i + 1], float(imps[2 * i + 1]))
            )
        level = level_next
        depth += 1
    return tree._finalize(buf, importances)


def fit_tree(tree: DecisionTreeClassifier, X: np.ndarray, y: np.ndarray):
    """``DecisionTreeClassifier.fit`` through the reference growers."""
    X = np.asarray(X, dtype=np.float64)
    if tree.splitter == "hist":
        binner = Binner(tree.max_bins)
        return fit_hist(tree, binner.fit_transform(X), binner.bin_edges_, y)
    return fit_exact(tree, X, y)


def fit_forest(forest, X: np.ndarray, y: np.ndarray) -> list[DecisionTreeClassifier]:
    """The trees ``forest.fit(X, y)`` must grow, one tree after another.

    Mirrors the forest's seed protocol: one seed per tree drawn up front
    from ``random_state``; each tree's own generator draws its bootstrap
    and then its candidate features.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    rng = check_random_state(forest.random_state)
    seeds = rng.integers(0, 2**63, size=forest.n_estimators)
    n_classes = len(np.unique(y))
    binned = None
    if forest.splitter == "hist":
        binned = Binner(forest.max_bins).fit_dataset(X)
    trees = []
    for seed in seeds:
        tree_rng = np.random.default_rng(int(seed))
        idx = _bootstrap_indices(tree_rng, y, n_classes, len(y)) if forest.bootstrap else None
        tree = DecisionTreeClassifier(
            criterion=forest.criterion,
            max_depth=forest.max_depth,
            min_samples_split=forest.min_samples_split,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=forest.max_features,
            splitter=forest.splitter,
            max_bins=forest.max_bins,
            random_state=tree_rng,
        )
        if binned is not None:
            fit_hist(tree, binned.codes, binned.bin_edges_, y, idx)
        elif idx is not None:
            fit_exact(tree, X[idx], y[idx])
        else:
            fit_exact(tree, X, y)
        trees.append(tree)
    return trees


TREE_ARRAYS = (
    "tree_feature_",
    "tree_threshold_",
    "tree_left_",
    "tree_right_",
    "tree_count_",
    "tree_value_",
    "feature_importances_",
    "classes_",
)


def assert_trees_equal(a: DecisionTreeClassifier, b: DecisionTreeClassifier) -> None:
    """Every fitted array equal, bit for bit and dtype for dtype."""
    assert a.node_count_ == b.node_count_
    assert a._n_classes == b._n_classes
    assert a.n_features_in_ == b.n_features_in_
    for name in TREE_ARRAYS:
        x, z = getattr(a, name), getattr(b, name)
        assert x.dtype == z.dtype, name
        assert np.array_equal(x, z), name


"""Run → feature-vector pipeline (paper Sec. IV-E1).

Reproduces the paper's data preparation exactly, in order:

1. **Trim** the initialization and termination intervals (their metrics
   "fluctuate significantly from their expected values").
2. **Difference** cumulative performance counters — "we are interested in
   the change, not the raw value".
3. **Linearly interpolate** missing values (LDMS loses samples in flight).
4. **Extract** statistical features per metric (MVTS or TSFRESH-lite).
5. **Drop** features that are NaN or identically zero across the dataset.

Step 5 is a *fit* operation (the survivor mask is learned on the training
corpus and reapplied to new runs), mirroring how the paper reports post-drop
feature counts per dataset (6436 MVTS / 80839 TSFRESH on Eclipse, …).

Extraction is **run-batched**: since every kernel in
:mod:`~repro.features.mvts` / :mod:`~repro.features.tsfresh_lite` reduces
per-column, runs of equal length are ``hstack``-ed into one ``(T, B*M)``
panel and pushed through steps 1–4 in a single kernel pass per group
(:func:`batched_feature_rows`). The output is bit-identical to featurizing
each run separately; what changes is that the fixed Python/numpy dispatch
cost of the ~hundreds of kernels is paid once per *corpus*, not once per
*run*.

Extraction is also **planned** by (metric column, statistic group):
:meth:`FeatureExtractor.transform` takes a :class:`ColumnPlan` naming the
features wanted, slices the metric columns they read out of the corpus
before step 1, runs each statistic group of the extractor
(:data:`~repro.features.mvts.MVTS_GROUPS`,
:data:`~repro.features.tsfresh_lite.TSFRESH_GROUPS`) only on the columns
where a wanted feature needs it, and gathers the features from the
narrower output. Because every step works per column, the gathered
features are bit-identical to extracting every statistic of every column
and then indexing; the default plan is every kept feature, with every
group on every column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..parallel import map_blocks
from ..telemetry.catalog import MetricCatalog
from ..telemetry.collector import RunRecord
from ..telemetry.corpus import (
    DEFAULT_MAX_PANEL_ELEMS,
    RunCorpus,
    plan_length_groups,
)
from .mvts import MVTS_FEATURE_NAMES, MVTS_GROUPS, StatGroup, extract_mvts
from .tsfresh_lite import TSFRESH_FEATURE_NAMES, TSFRESH_GROUPS, extract_tsfresh

__all__ = [
    "interpolate_missing",
    "preprocess_run",
    "batched_feature_rows",
    "ColumnPlan",
    "FeatureDataset",
    "FeatureExtractor",
]

_EXTRACTORS: dict[
    str, tuple[Callable[..., np.ndarray], tuple[str, ...], tuple[StatGroup, ...]]
] = {
    "mvts": (extract_mvts, MVTS_FEATURE_NAMES, MVTS_GROUPS),
    "tsfresh": (extract_tsfresh, TSFRESH_FEATURE_NAMES, TSFRESH_GROUPS),
}


def interpolate_missing(data: np.ndarray) -> np.ndarray:
    """Linearly interpolate NaNs per column; edge NaNs take the nearest value.

    Columns that are entirely NaN become zero (they will be dropped by the
    zero-feature filter downstream).

    The columns with a gap are filled in one masked-gather pass — the
    previous- and next-good-sample indices come from prefix max/min scans,
    so there is no per-column Python loop. The arithmetic mirrors
    ``np.interp`` (``slope * (t - t_prev) + v_prev`` in float64), keeping
    the output bit-identical to the historical per-column implementation.
    """
    out = np.asarray(data, dtype=np.float64).copy()
    bad = np.isnan(out)
    gaps = np.flatnonzero(bad.any(axis=0))
    if not len(gaps):
        return out
    # every step below is elementwise within a column, so only the
    # columns with a gap need it
    data, bad = out[:, gaps], bad[:, gaps]
    T = data.shape[0]
    t_idx = np.arange(T, dtype=np.int64)[:, None]
    # index of the last good sample at or before t (-1: none yet) and the
    # first good sample at or after t (T: none remaining), per column
    prev = np.maximum.accumulate(np.where(bad, -1, t_idx), axis=0)
    nxt = np.where(bad, T, t_idx)[::-1]
    nxt = np.minimum.accumulate(nxt, axis=0)[::-1]
    vp = np.take_along_axis(data, np.clip(prev, 0, T - 1), axis=0)
    vn = np.take_along_axis(data, np.clip(nxt, 0, T - 1), axis=0)
    denom = (nxt - prev).astype(np.float64)
    denom[denom == 0.0] = 1.0  # only at good rows, which are never written
    slope = (vn - vp) / denom
    interior = slope * (t_idx.astype(np.float64) - prev) + vp
    filled = np.where(prev < 0, vn, np.where(nxt >= T, vp, interior))
    data[bad] = filled[bad]
    # columns entirely NaN become zero
    data[:, bad.all(axis=0)] = 0.0
    out[:, gaps] = data
    return out


def preprocess_run(
    data: np.ndarray,
    counter_mask: np.ndarray,
    trim_frac: tuple[float, float] = (0.08, 0.06),
) -> np.ndarray:
    """Apply steps 1–3 to one raw (T, M) run matrix.

    ``counter_mask`` flags cumulative counters: those columns are first
    differenced (rates), shrinking the matrix by one row; gauge columns
    simply drop their first row to stay aligned. Trimming removes
    ``trim_frac`` = (head, tail) fractions of the run.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"expected (T, M), got {data.shape}")
    counter_mask = np.asarray(counter_mask, dtype=bool)
    if counter_mask.shape != (data.shape[1],):
        raise ValueError("counter_mask / data column mismatch")
    head, tail = trim_frac
    if head < 0 or tail < 0 or head + tail >= 0.9:
        raise ValueError(f"unreasonable trim fractions: {trim_frac}")

    T = data.shape[0]
    lo = int(np.floor(head * T))
    hi = T - int(np.floor(tail * T))
    if hi - lo < 8:
        raise ValueError(f"run too short after trimming: {hi - lo} samples")
    data = data[lo:hi]
    data = interpolate_missing(data)
    out = data[1:].copy()
    if counter_mask.any():
        out[:, counter_mask] = np.diff(data[:, counter_mask], axis=0)
    return out


@dataclass
class FeatureDataset:
    """A featurized run corpus: matrix + aligned metadata.

    Rows of ``X`` correspond one-to-one with entries of the metadata
    arrays; ``feature_names`` matches the columns.
    """

    X: np.ndarray
    labels: np.ndarray
    apps: np.ndarray
    input_decks: np.ndarray
    intensities: np.ndarray
    node_counts: np.ndarray
    feature_names: list[str] = field(repr=False, default_factory=list)

    def __post_init__(self) -> None:
        n = self.X.shape[0]
        for name in ("labels", "apps", "input_decks", "intensities", "node_counts"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length does not match X rows")

    def __len__(self) -> int:
        return self.X.shape[0]

    def subset(self, mask: np.ndarray) -> "FeatureDataset":
        """Row-filtered view (boolean mask or index array)."""
        return FeatureDataset(
            X=self.X[mask],
            labels=self.labels[mask],
            apps=self.apps[mask],
            input_decks=self.input_decks[mask],
            intensities=self.intensities[mask],
            node_counts=self.node_counts[mask],
            feature_names=self.feature_names,
        )


def batched_feature_rows(
    buffer: np.ndarray,
    offsets: np.ndarray,
    counter_mask: np.ndarray,
    trim_frac: tuple[float, float],
    method: str,
    max_panel_elems: int = DEFAULT_MAX_PANEL_ELEMS,
    groups: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """Featurize every run of a packed buffer in one kernel pass per length.

    ``buffer[offsets[i]:offsets[i + 1]]`` is run ``i``'s ``(T_i, M)``
    matrix (offsets need not start at zero — shared-memory workers pass
    absolute offsets into the campaign segment). Runs are grouped by raw
    length via :func:`~repro.telemetry.corpus.plan_length_groups`; each
    group's matrices are ``hstack``-ed into a ``(T, B*M)`` panel, the
    counter mask is tiled across the B runs (so column semantics survive
    the stacking and the trim/diff), and ``preprocess_run`` + the
    extractor run **once** for the whole group. Because every kernel in
    the extractors reduces per-column with width-stable accumulation, the
    scattered per-run rows are bit-identical to featurizing each run
    separately — the batching only amortizes the fixed cost of hundreds
    of numpy dispatches over the whole group.

    A run too short to survive trimming raises the same ``ValueError`` as
    ``preprocess_run`` on that run alone (it checks post-trim length before
    touching the data, and every run in a group shares one length).

    ``groups`` is a :attr:`ColumnPlan.groups`: for each statistic group of
    the method, the buffer columns it runs on (None: every group on every
    column). It is tiled across each panel's runs; cells it leaves out are
    NaN.
    """
    extract = _EXTRACTORS[method][0]
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    width = buffer.shape[1]
    out: np.ndarray | None = None
    for idx in plan_length_groups(lengths, width, max_panel_elems):
        mats = [buffer[offsets[i]:offsets[i + 1]] for i in idx]
        if len(mats) == 1:
            panel, mask = mats[0], counter_mask
        else:
            panel = np.hstack(mats)
            mask = np.tile(counter_mask, len(mats))
        clean = preprocess_run(panel, mask, trim_frac)
        plan = None if groups is None else [
            (np.arange(0, len(mats) * width, width)[:, None] + cols).ravel()
            for cols in groups
        ]
        rows = extract(clean, plan).reshape(len(mats), -1)
        if out is None:
            out = np.empty((len(lengths), rows.shape[1]))
        out[idx] = rows
    assert out is not None  # plan_length_groups never returns empty plans
    return out


@dataclass(frozen=True)
class ColumnPlan:
    """Which (metric column, statistic group) cells a feature subset
    reads, and where each feature lands.

    ``features`` are indices into the extractor's full raw row (metric-
    major, ``n_stats`` features per metric), ascending. ``columns`` are
    the metric columns those features read, ascending; ``positions``
    locate each feature in the raw row of a corpus sliced to ``columns``.
    ``groups`` holds, for each statistic group of the method
    (``MVTS_GROUPS`` / ``TSFRESH_GROUPS``), the indices into ``columns``
    it must run on; an empty array skips the group. Build one with
    :meth:`FeatureExtractor.plan`.
    """

    features: np.ndarray
    columns: np.ndarray
    positions: np.ndarray
    groups: tuple[np.ndarray, ...]


def _featurize_runs(
    counter_mask: np.ndarray,
    trim_frac: tuple[float, float],
    method: str,
    groups: tuple[np.ndarray, ...] | None,
    runs: range,
    buffer: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """Feature rows of runs ``runs`` of a packed corpus, run-batched.

    The worker body of :meth:`FeatureExtractor._featurize_corpus`, in-process
    or in a pool worker alike: :func:`batched_feature_rows` takes the
    block's absolute offsets into the whole buffer, and its output is
    bit-identical at any blocking.
    """
    return batched_feature_rows(
        buffer, offsets[runs.start:runs.stop + 1], counter_mask, trim_frac,
        method, groups=groups,
    )


class FeatureExtractor:
    """End-to-end extraction over a run corpus, with the NaN/zero drop.

    Accepts either a ``Sequence[RunRecord]`` or a packed
    :class:`~repro.telemetry.corpus.RunCorpus`; record lists are packed
    into a corpus up front so both entry points share one code path.
    Runs must carry the extractor's metric catalog: packed runs whose
    non-empty ``metric_names`` differ from ``catalog.names`` (or a record
    list that cannot pack) raise ``ValueError`` rather than being
    featurized under the wrong feature names.
    Extraction is **run-batched**: runs of equal length are stacked into
    one ``(T, B*M)`` panel and preprocessed + featurized in a single
    kernel pass (:func:`batched_feature_rows`), amortizing the fixed
    dispatch overhead of the ~hundreds of numpy kernels per call
    over the whole corpus — bit-identical to per-run extraction, just
    without paying the dispatch tax once per run. :meth:`transform`
    extracts only the (metric column, statistic group) cells its
    :class:`ColumnPlan` reads, so a caller that needs a few selected
    features (``ALBADross.featurize``) never pays for the others.

    With ``n_jobs > 1`` the corpus goes through
    :func:`repro.parallel.map_blocks` as blocks of contiguous runs, each
    block batching internally. That layer runs the blocks in-process or
    fans them out over the warm process pool, with the corpus buffer in
    shared memory and only run ranges in the tasks; results are
    bit-identical to serial extraction either way.

    Parameters
    ----------
    catalog:
        The metric catalog the runs were collected with (provides the
        counter mask and metric names).
    method:
        ``"mvts"`` (48 features/metric) or ``"tsfresh"`` (112/metric).
    trim_frac:
        Head/tail trim fractions passed to :func:`preprocess_run`.
    n_jobs:
        Workers for block-wise extraction; ``None`` or 1 keeps
        extraction serial and in-process.

    Each batched-extraction panel holds at most ``DEFAULT_MAX_PANEL_ELEMS``
    elements (:func:`~repro.telemetry.corpus.plan_length_groups`), which
    bounds peak memory without changing a single output bit.
    """

    def __init__(
        self,
        catalog: MetricCatalog,
        method: str = "mvts",
        trim_frac: tuple[float, float] = (0.08, 0.06),
        n_jobs: int | None = None,
    ):
        if method not in _EXTRACTORS:
            raise ValueError(
                f"unknown method {method!r}; available: {sorted(_EXTRACTORS)}"
            )
        self.catalog = catalog
        self.method = method
        self.trim_frac = trim_frac
        self.n_jobs = n_jobs
        self.keep_mask_: np.ndarray | None = None

    def __setstate__(self, state: dict) -> None:
        # extractors pickled before the parallel data plane lack its knobs
        state.setdefault("n_jobs", None)
        # extractors pickled with removed options carry their keys: a
        # private pool, the per-run hook, the transport choice, the
        # feature-name table (now derived on demand) and the panel cap
        # (now a constant)
        for key in (
            "_executor", "map_fn", "_extract", "backend", "_all_names",
            "max_panel_elems",
        ):
            state.pop(key, None)
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    def _featurize_corpus(
        self,
        corpus: RunCorpus,
        counter_mask: np.ndarray,
        groups: tuple[np.ndarray, ...] | None,
    ) -> np.ndarray:
        worker = partial(
            _featurize_runs, counter_mask, self.trim_frac, self.method, groups
        )
        parts = map_blocks(
            worker, range(len(corpus)), (corpus.buffer, corpus.offsets), self.n_jobs
        )
        return parts[0] if len(parts) == 1 else np.vstack(parts)

    def _featurize_all(
        self,
        runs: Sequence[RunRecord] | RunCorpus,
        columns: np.ndarray | None = None,
        groups: tuple[np.ndarray, ...] | None = None,
    ) -> np.ndarray:
        """Raw feature rows of ``runs`` over metric ``columns`` (all if
        None), each statistic group on its ``groups`` columns (all if None)."""
        # pack record lists up front: serving micro-batches and serial
        # callers get the run-batched kernel pass too, and parallel blocks
        # share one flat buffer (raises on empty or mixed-catalog lists)
        corpus = runs if isinstance(runs, RunCorpus) else RunCorpus.from_records(list(runs))
        if corpus.metric_names and corpus.metric_names != self.catalog.names:
            raise ValueError(
                "runs were collected with a different metric catalog than "
                "the extractor's; their features would be misnamed"
            )
        counter_mask = self.catalog.counter_mask
        if corpus.n_metrics != len(counter_mask):
            # checked here, not left to preprocess_run: a column slice
            # would otherwise accept a run wider than the catalog
            raise ValueError(
                f"counter_mask / data column mismatch: runs have "
                f"{corpus.n_metrics} metric columns, the catalog "
                f"{len(counter_mask)}"
            )
        if columns is not None and len(columns) < corpus.n_metrics:
            corpus = corpus.take_columns(columns)
            counter_mask = counter_mask[columns]
        return self._featurize_corpus(corpus, counter_mask, groups)

    def fit_transform(self, runs: Sequence[RunRecord] | RunCorpus) -> FeatureDataset:
        """Featurize a corpus and learn the NaN/zero drop mask from it."""
        if len(runs) == 0:
            raise ValueError("empty run corpus")
        raw = self._featurize_all(runs)
        nan_cols = np.isnan(raw).any(axis=0)
        zero_cols = np.all(raw == 0.0, axis=0)
        self.keep_mask_ = ~(nan_cols | zero_cols)
        return self._package(runs, raw[:, self.keep_mask_], self.plan().features)

    def plan(self, support: np.ndarray | None = None) -> ColumnPlan:
        """Compile the learned drop mask into a :class:`ColumnPlan`.

        ``support`` indexes the *kept* features (a fitted
        ``SelectKBest.support_``) and narrows the plan to them: each
        statistic group runs only on the columns where a planned feature
        needs it. ``None`` plans every kept feature with every group on
        every planned column, which is what :meth:`transform` does by
        default.
        """
        if self.keep_mask_ is None:
            raise RuntimeError("call fit_transform on a training corpus first")
        features = np.flatnonzero(self.keep_mask_)
        if support is not None:
            features = features[support]
        _, stats, groups = _EXTRACTORS[self.method]
        metric, stat = np.divmod(features, len(stats))
        columns, col = np.unique(metric, return_inverse=True)
        positions = col * len(stats) + stat
        if support is None:
            every = np.arange(len(columns))
            return ColumnPlan(features, columns, positions, tuple(every for _ in groups))
        group_of = np.empty(len(stats), dtype=np.intp)
        for k, group in enumerate(groups):
            group_of[list(group.slots)] = k
        # the distinct (group, column) cells, sorted by group then column
        cells = np.unique(group_of[stat] * len(columns) + col)
        cell_group, cell_col = np.divmod(cells, len(columns))
        bounds = np.searchsorted(cell_group, np.arange(len(groups) + 1))
        return ColumnPlan(features, columns, positions, tuple(
            cell_col[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
        ))

    def transform(
        self,
        runs: Sequence[RunRecord] | RunCorpus,
        plan: ColumnPlan | None = None,
    ) -> FeatureDataset:
        """Featurize new runs with the already-learned drop mask.

        Only the (metric column, statistic group) cells that ``plan`` reads
        are extracted (see :meth:`plan`); the output columns are
        ``plan.features``, in order.
        """
        if plan is None:
            plan = self.plan()
        raw = self._featurize_all(runs, plan.columns, plan.groups)
        # test-time NaNs (e.g. all-missing metric) are zero-filled: the
        # model must not crash on a degraded run
        return self._package(runs, np.nan_to_num(raw[:, plan.positions]), plan.features)

    def _package(
        self,
        runs: Sequence[RunRecord] | RunCorpus,
        X: np.ndarray,
        features: np.ndarray,
    ) -> FeatureDataset:
        # names (metric::statistic) of just these raw indices: the full
        # table is n_metrics * n_stats strings, most never read
        stats = _EXTRACTORS[self.method][1]
        n_stats, metrics = len(stats), self.catalog.names
        names = [f"{metrics[i // n_stats]}::{stats[i % n_stats]}" for i in features.tolist()]
        if isinstance(runs, RunCorpus):
            return FeatureDataset(
                X=X,
                labels=runs.labels,
                apps=runs.apps.copy(),
                input_decks=runs.input_decks.copy(),
                intensities=runs.intensities.copy(),
                node_counts=runs.node_counts.copy(),
                feature_names=names,
            )
        return FeatureDataset(
            X=X,
            labels=np.array([r.label for r in runs]),
            apps=np.array([r.app for r in runs]),
            input_decks=np.array([r.input_deck for r in runs]),
            intensities=np.array([r.intensity for r in runs]),
            node_counts=np.array([r.node_count for r in runs]),
            feature_names=names,
        )

    @property
    def n_features_raw(self) -> int:
        """Feature count before the NaN/zero drop."""
        return len(self.catalog.names) * len(_EXTRACTORS[self.method][1])

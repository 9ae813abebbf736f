"""MVTS-style statistical feature extraction (paper Sec. III-A).

The MVTS-Data Toolkit computes 48 statistical features per metric:
descriptive statistics, absolute differences between the first- and
second-half statistics of the series, and long-run trend features (longest
monotonic increase, etc.). This module reproduces that inventory exactly —
48 named features per metric — with every feature computed as a vectorized
operation over a whole ``(T, M)`` panel at once: the hot path contains no
per-metric Python loop.

The 48 features fall into **statistic groups** (:data:`MVTS_GROUPS`): sets
of kernels that share intermediates, such as the moments, the order
statistics (one ``np.percentile`` pass) or the half-split statistics.
:func:`extract_mvts` takes an optional plan naming the columns each group
runs on, so a caller that reads a few features pays only for their groups
on their columns; cells no group computed are NaN. Without a plan every
group runs on every column. The intermediates live on a :class:`Panel`,
computed on first use and at most once per panel.

Every kernel treats columns independently (all reductions run over axis 0
with width-stable accumulation), so *B* runs of equal length can be
``hstack``-ed into one ``(T, B*M)`` panel and featurized in a single pass,
and any column subset gives the same bits as the full panel. The batched
pipeline (:mod:`repro.features.pipeline`) leans on exactly this contract.
Width-stable needs care: numpy sums axis 0 of a C-ordered panel row by row
when it is at least two columns wide, but pairwise when the panel is one
column wide or F-ordered, and the two round differently. So every panel is
formed by :func:`take_panel`: ``np.take`` (C order, where ``X[:, cols]``
returns F order), with a single column widened to two.

Input series must be NaN-free (the pipeline interpolates first).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "MVTS_FEATURE_NAMES",
    "MVTS_GROUPS",
    "Panel",
    "StatGroup",
    "checked_panel",
    "extract_groups",
    "extract_mvts",
    "feature_names_for",
    "take_panel",
]

# a per-group column plan: one entry per group, the columns it runs on
# (ascending), None for every column
GroupPlan = Sequence["np.ndarray | None"]


def _longest_true_run(mask: np.ndarray) -> np.ndarray:
    """Per-column length of the longest run of True in a (T, M) mask.

    A prefix max finds, for every row ``t`` (counted from 1), the last
    False row at or before it (0: none yet); the run of True ending at
    ``t`` is the distance between the two. Integer-exact, in the
    narrowest unsigned dtype that holds ``T``.
    """
    T, M = mask.shape
    if T == 0:
        return np.zeros(M, dtype=np.int64)
    t = np.arange(1, T + 1, dtype=np.min_scalar_type(T))[:, None]
    last_false = np.maximum.accumulate(t * ~mask, axis=0)
    return (t - last_false).max(axis=0).astype(np.int64)


def _linfit(X: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column least-squares slope and intercept against time.

    ``mu`` is the column means. The time-weighted sum is an explicit
    ``np.sum`` over axis 0 rather than a ``@`` matmul: BLAS picks its
    accumulation order from the matrix *width*, so a matmul would make
    each column's slope depend on how many sibling columns ride in the
    same call — breaking the bit-identity contract between per-run and
    run-batched extraction.
    """
    T = X.shape[0]
    t = np.arange(T, dtype=np.float64)
    t_mean = t.mean()
    t_var = np.sum((t - t_mean) ** 2)
    slope = np.sum((t - t_mean)[:, None] * (X - mu), axis=0) / t_var
    intercept = mu - slope * t_mean
    return slope, intercept


class Panel:
    """A C-ordered ``(T, m)`` panel (``m >= 2``) and the intermediates its
    statistic groups share, each computed on first use.

    Groups planned on the same columns run on one panel, so each
    intermediate is computed once however many of them read it.
    """

    QUANTILES: tuple[int, ...] = (5, 25, 50, 75, 95)

    def __init__(self, X: np.ndarray):
        self.X = X
        self.T = X.shape[0]
        self._acs: dict[int, np.ndarray] = {}

    @cached_property
    def mu(self) -> np.ndarray:
        return self.X.mean(axis=0)

    @cached_property
    def sd(self) -> np.ndarray:
        return self.X.std(axis=0)

    @cached_property
    def var(self) -> np.ndarray:
        return self.X.var(axis=0)

    @cached_property
    def safe_sd(self) -> np.ndarray:
        return np.where(self.sd > 1e-18, self.sd, 1.0)

    @cached_property
    def centered(self) -> np.ndarray:
        return self.X - self.mu

    @cached_property
    def z(self) -> np.ndarray:
        return self.centered / self.safe_sd

    @cached_property
    def above(self) -> np.ndarray:
        return self.X > self.mu

    @cached_property
    def below(self) -> np.ndarray:
        return self.X < self.mu

    @cached_property
    def mn(self) -> np.ndarray:
        return self.X.min(axis=0)

    @cached_property
    def mx(self) -> np.ndarray:
        return self.X.max(axis=0)

    @cached_property
    def sq(self) -> np.ndarray:
        return self.X**2

    @cached_property
    def abs(self) -> np.ndarray:
        return np.abs(self.X)

    @cached_property
    def diffs(self) -> np.ndarray:
        return np.diff(self.X, axis=0)

    @cached_property
    def abs_diffs(self) -> np.ndarray:
        return np.abs(self.diffs)

    @cached_property
    def ascending(self) -> np.ndarray:
        """Each column sorted: ``np.percentile`` and ``np.median`` select
        the same order statistics from it as from ``X``, several times
        faster."""
        return np.sort(self.X, axis=0)

    @cached_property
    def quantiles(self) -> dict[int, np.ndarray]:
        """Every percentile in :attr:`QUANTILES`, from one partition pass.

        Each quantile's linear interpolation is elementwise, so each
        equals its own one-quantile call.
        """
        return dict(zip(self.QUANTILES, np.percentile(self.ascending, self.QUANTILES, axis=0)))

    @cached_property
    def halves(self) -> tuple[np.ndarray, np.ndarray]:
        half = self.T // 2
        return self.X[:half], self.X[half:]

    def autocorr(self, lag: int) -> np.ndarray:
        """Per-column lag-``lag`` autocorrelation; 0 for constant columns."""
        ac = self._acs.get(lag)
        if ac is None:
            if lag >= self.T:
                ac = np.zeros(self.X.shape[1])
            else:
                X, mu, var = self.X, self.mu, self.var
                cov = np.mean((X[:-lag] - mu) * (X[lag:] - mu), axis=0)
                with np.errstate(invalid="ignore", divide="ignore"):
                    ac = np.where(var > 1e-18, cov / np.where(var > 1e-18, var, 1.0), 0.0)
            self._acs[lag] = ac
        return ac


@dataclass(frozen=True)
class StatGroup:
    """Kernels that share intermediates: the feature slots they fill.

    ``fill(panel)`` returns one row per slot, in ``slots`` order.
    """

    name: str
    slots: tuple[int, ...]
    fill: Callable[[Panel], tuple]


def stat_group(registry: list[StatGroup], names: Sequence[str], *stats: str):
    """Decorator: register ``fill`` as the group computing ``stats``."""

    def register(fill: Callable[[Panel], tuple]) -> Callable[[Panel], tuple]:
        slots = tuple(names.index(s) for s in stats)
        registry.append(StatGroup(fill.__name__.lstrip("_"), slots, fill))
        return fill

    return register


def take_panel(X: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
    """Columns ``cols`` of C-ordered ``X`` (None: all) as a C-ordered
    panel at least two columns wide.

    A single column is duplicated, and the caller keeps the first copy:
    numpy reduces a one-column panel pairwise, a wider one row by row.
    """
    if cols is None:
        if X.shape[1] > 1:
            return X
        cols = np.zeros(1, dtype=np.intp)
    if len(cols) == 1:
        cols = np.repeat(cols, 2)
    return np.take(X, cols, axis=1)


def extract_groups(
    X: np.ndarray,
    groups: Sequence[StatGroup],
    panel: type[Panel],
    plan: GroupPlan | None = None,
) -> np.ndarray:
    """Run each statistic group on its planned columns of ``(T, M)`` ``X``.

    ``plan`` has one entry per group: the columns of ``X`` it runs on,
    ascending (None: all, an empty array: none); no plan runs every group
    on every column. Returns the ``(n_stats, M)`` feature block; a cell
    whose group did not run on its column is NaN. Groups planned on the
    same columns share one panel and its intermediates.
    """
    M = X.shape[1]
    n_stats = sum(len(g.slots) for g in groups)
    if plan is None:
        plan = [None] * len(groups)
    elif len(plan) != len(groups):
        raise ValueError(f"plan has {len(plan)} entries for {len(groups)} statistic groups")
    by_cols: dict[bytes | None, tuple[np.ndarray | None, list[StatGroup]]] = {}
    for group, cols in zip(groups, plan):
        if cols is not None and len(cols) == M:
            cols = None
        if cols is None or len(cols):
            key = None if cols is None else np.asarray(cols).tobytes()
            by_cols.setdefault(key, (cols, []))[1].append(group)
    whole = len(by_cols) == 1 and None in by_cols and len(by_cols[None][1]) == len(groups)
    out = np.empty((n_stats, M)) if whole else np.full((n_stats, M), np.nan)
    for cols, members in by_cols.values():
        p = panel(take_panel(X, cols))
        direct = cols is None and M > 1
        block = out if direct else np.empty((n_stats, p.X.shape[1]))
        for group in members:
            for slot, row in zip(group.slots, group.fill(p)):
                block[slot] = row
        if not direct:
            slots = [s for g in members for s in g.slots]
            dest = np.arange(M) if cols is None else cols
            out[np.ix_(slots, dest)] = block[slots, : len(dest)]
    return out


def checked_panel(X: np.ndarray, min_T: int) -> np.ndarray:
    """``X`` as a C-ordered float64 ``(T, M)`` panel, validated."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected (T, M), got {X.shape}")
    if X.shape[0] < min_T:
        raise ValueError(f"need at least {min_T} timesteps, got {X.shape[0]}")
    if np.isnan(X).any():
        raise ValueError("input contains NaNs; interpolate first (see pipeline)")
    return np.ascontiguousarray(X)


# the canonical, ordered 48-feature inventory
MVTS_FEATURE_NAMES: tuple[str, ...] = (
    "mean", "median", "std", "var", "min", "max", "range", "iqr",
    "q1", "q3", "skew", "kurtosis", "rms", "abs_mean", "total", "abs_energy",
    "mean_abs_change", "mean_change", "mean_second_derivative",
    "count_above_mean", "count_below_mean",
    "longest_strike_above_mean", "longest_strike_below_mean",
    "longest_monotonic_increase", "longest_monotonic_decrease",
    "n_mean_crossings", "linear_slope", "linear_intercept",
    "first_loc_of_max", "first_loc_of_min", "last_loc_of_max", "last_loc_of_min",
    "half_diff_mean", "half_diff_median", "half_diff_std", "half_diff_var",
    "half_diff_min", "half_diff_max", "half_diff_q1", "half_diff_q3",
    "autocorr_lag1", "autocorr_lag2",
    "ratio_beyond_1sigma", "ratio_beyond_2sigma",
    "variation_coefficient", "p5", "p95", "median_abs_deviation",
)

assert len(MVTS_FEATURE_NAMES) == 48

_groups: list[StatGroup] = []


def _group(*stats: str):
    return stat_group(_groups, MVTS_FEATURE_NAMES, *stats)


# the partition-based groups first: they run fastest while the panel is
# fresh in cache (order changes no bit, only the full extraction's cost)
@_group("median", "iqr", "q1", "q3", "p5", "p95")
def _order(p: Panel) -> tuple:
    q = p.quantiles
    return q[50], q[75] - q[25], q[25], q[75], q[5], q[95]


@_group("median_abs_deviation")
def _mad(p: Panel) -> tuple:
    # sorted first, as Panel.ascending: the median selects the same
    # order statistics, faster
    dev = np.sort(np.abs(p.X - p.quantiles[50]), axis=0)
    return (np.median(dev, axis=0),)


@_group("half_diff_median", "half_diff_q1", "half_diff_q3")
def _half_order(p: Panel) -> tuple:
    # sorted first, as Panel.ascending
    A, B = (np.sort(half, axis=0) for half in p.halves)
    a25, a75 = np.percentile(A, [25, 75], axis=0)
    b25, b75 = np.percentile(B, [25, 75], axis=0)
    return (
        np.abs(np.median(A, axis=0) - np.median(B, axis=0)),
        np.abs(a25 - b25),
        np.abs(a75 - b75),
    )


@_group(
    "mean", "std", "var", "rms", "abs_mean", "total", "abs_energy",
    "count_above_mean", "count_below_mean",
    "ratio_beyond_1sigma", "ratio_beyond_2sigma", "variation_coefficient",
)
def _moments(p: Panel) -> tuple:
    mu, sd, X = p.mu, p.sd, p.X
    abs_centered = np.abs(p.centered)
    with np.errstate(invalid="ignore", divide="ignore"):
        cv = np.where(np.abs(mu) > 1e-18, sd / np.where(np.abs(mu) > 1e-18, mu, 1.0), 0.0)
    return (
        mu, sd, sd**2,
        np.sqrt(np.mean(p.sq, axis=0)),  # rms
        np.mean(p.abs, axis=0),
        X.sum(axis=0),
        np.sum(p.sq, axis=0),
        p.above.sum(axis=0),
        p.below.sum(axis=0),
        np.mean(abs_centered > p.safe_sd, axis=0),
        np.mean(abs_centered > 2 * p.safe_sd, axis=0),
        cv,
    )


# z**3 and z**4 take numpy's per-lane pow() on negative lanes, ~130 ns
# each against ~3 ns for a positive base: the powers are exact products
# instead, in place.
# Each stays its own group: a read set often takes a moment on columns
# that need neither, and folded into _moments they would compute z there
@_group("skew")
def _skew(p: Panel) -> tuple:
    cube = p.z * p.z
    cube *= p.z
    return (np.where(p.sd > 1e-18, np.mean(cube, axis=0), 0.0),)


@_group("kurtosis")
def _kurtosis(p: Panel) -> tuple:
    quad = p.z * p.z
    quad *= quad
    return (np.where(p.sd > 1e-18, np.mean(quad, axis=0) - 3.0, 0.0),)  # excess


@_group(
    "min", "max", "range",
    "first_loc_of_max", "first_loc_of_min", "last_loc_of_max", "last_loc_of_min",
)
def _extrema(p: Panel) -> tuple:
    X, T = p.X, p.T
    return (
        p.mn, p.mx, p.mx - p.mn,
        np.argmax(X, axis=0) / T,
        np.argmin(X, axis=0) / T,
        (T - 1 - np.argmax(X[::-1], axis=0)) / T,
        (T - 1 - np.argmin(X[::-1], axis=0)) / T,
    )


@_group("mean_abs_change", "mean_change", "mean_second_derivative")
def _changes(p: Panel) -> tuple:
    X = p.X
    return (
        np.mean(p.abs_diffs, axis=0),
        np.mean(p.diffs, axis=0),
        np.mean(X[2:] - 2 * X[1:-1] + X[:-2], axis=0),
    )


@_group(
    "longest_strike_above_mean", "longest_strike_below_mean",
    "longest_monotonic_increase", "longest_monotonic_decrease",
    "n_mean_crossings",
)
def _strikes(p: Panel) -> tuple:
    sign = np.sign(p.centered)
    return (
        _longest_true_run(p.above),
        _longest_true_run(p.below),
        _longest_true_run(p.diffs > 0) + 1,  # run length in points
        _longest_true_run(p.diffs < 0) + 1,
        np.sum(np.abs(np.diff(sign, axis=0)) > 1, axis=0),  # mean crossings
    )


@_group("linear_slope", "linear_intercept")
def _linear_trend(p: Panel) -> tuple:
    return _linfit(p.X, p.mu)


@_group("half_diff_mean", "half_diff_std", "half_diff_var", "half_diff_min", "half_diff_max")
def _half_moments(p: Panel) -> tuple:
    A, B = p.halves
    return (
        np.abs(A.mean(axis=0) - B.mean(axis=0)),
        np.abs(A.std(axis=0) - B.std(axis=0)),
        np.abs(A.var(axis=0) - B.var(axis=0)),
        np.abs(A.min(axis=0) - B.min(axis=0)),
        np.abs(A.max(axis=0) - B.max(axis=0)),
    )


@_group("autocorr_lag1", "autocorr_lag2")
def _autocorrelation(p: Panel) -> tuple:
    return p.autocorr(1), p.autocorr(2)


MVTS_GROUPS: tuple[StatGroup, ...] = tuple(_groups)

assert sorted(s for g in MVTS_GROUPS for s in g.slots) == list(range(48))


def extract_mvts(X: np.ndarray, plan: GroupPlan | None = None) -> np.ndarray:
    """Compute the 48 MVTS features for every column of a (T, M) matrix.

    Returns a flat ``(M * 48,)`` vector ordered metric-major: all 48
    features of metric 0, then metric 1, … (matching
    :func:`feature_names_for`). ``plan`` names, for each group of
    :data:`MVTS_GROUPS`, the columns it runs on (see
    :func:`extract_groups`); cells left out are NaN.
    """
    X = checked_panel(X, 4)
    return extract_groups(X, MVTS_GROUPS, Panel, plan).T.ravel()  # metric-major


def feature_names_for(metric_names: list[str]) -> list[str]:
    """Full feature-name list matching :func:`extract_mvts` output order."""
    return [f"{m}::{f}" for m in metric_names for f in MVTS_FEATURE_NAMES]

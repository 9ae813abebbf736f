"""Statistic-group pushdown: planned extraction equals the full one.

Both extractors are split into statistic groups that run only on the
columns a :class:`ColumnPlan` names. Every test compares against the
single-body extractors kept in ``tests/features/oracles.py`` or against
the full transform, with ``np.array_equal`` — a planned cell must carry
the same bits however few cells ride along with it.
"""

import numpy as np
import pytest

from repro.features.mvts import MVTS_FEATURE_NAMES, MVTS_GROUPS, extract_mvts
from repro.features.pipeline import FeatureExtractor, preprocess_run
from repro.features.tsfresh_lite import (
    TSFRESH_FEATURE_NAMES,
    TSFRESH_GROUPS,
    extract_tsfresh,
)
from repro.telemetry.catalog import build_catalog
from repro.telemetry.collector import RunRecord
from repro.telemetry.corpus import RunCorpus
from tests.features.oracles import extract_mvts_monolithic, extract_tsfresh_monolithic

_METHODS = {
    "mvts": (extract_mvts, extract_mvts_monolithic, MVTS_GROUPS, MVTS_FEATURE_NAMES),
    "tsfresh": (
        extract_tsfresh, extract_tsfresh_monolithic, TSFRESH_GROUPS, TSFRESH_FEATURE_NAMES,
    ),
}


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(n_cores=1, n_nics=1, n_extra_cray=2)


def _records(catalog, lengths, seed):
    rng = np.random.default_rng(seed)
    M = len(catalog.names)
    records = []
    for i, T in enumerate(lengths):
        data = rng.normal(loc=5.0, scale=2.0, size=(T, M))
        data[:, catalog.counter_mask] = np.abs(data[:, catalog.counter_mask]).cumsum(axis=0)
        data[:, 1] = np.round(data[:, 1])  # ties
        data[rng.random(size=data.shape) < 0.02] = np.nan
        records.append(RunRecord(
            app="CG" if i % 2 else "BT", input_deck=i % 3, node_count=4,
            node_id=i, anomaly=None if i % 2 else "membw",
            intensity=0.0 if i % 2 else 1.0, data=data,
            metric_names=list(catalog.names),
        ))
    return records


def _panels(seed):
    """Panels with ties, a constant column and short and long runs."""
    rng = np.random.default_rng(seed)
    for T in (8, 9, 33, 64, 130):
        X = rng.normal(scale=10.0 ** float(rng.integers(-3, 4)), size=(T, 6)).cumsum(axis=0)
        X[:, 1] = np.round(X[:, 1])
        X[:, 2] = 3.0
        yield X


def _planned_cells(groups, plan, M):
    """(M, n_stats) mask of the cells ``plan`` computes."""
    cells = np.zeros((M, sum(len(g.slots) for g in groups)), dtype=bool)
    for group, cols in zip(groups, plan):
        cells[np.ix_(cols, list(group.slots))] = True
    return cells


class TestGroups:
    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_groups_partition_the_statistics(self, method):
        _, _, groups, names = _METHODS[method]
        slots = [s for g in groups for s in g.slots]
        assert sorted(slots) == list(range(len(names)))
        assert len({g.name for g in groups}) == len(groups)

    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_plan_needs_one_entry_per_group(self, method):
        extract, _, groups, _ = _METHODS[method]
        with pytest.raises(ValueError, match="statistic groups"):
            extract(next(_panels(0)), [None] * (len(groups) - 1))

    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_full_extraction_equals_oracle(self, method):
        extract, oracle, _, _ = _METHODS[method]
        for X in _panels(1):
            assert np.array_equal(extract(X), oracle(X))
            # an F-ordered panel reduces like the C-ordered one
            assert np.array_equal(extract(np.asfortranarray(X)), oracle(X))

    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_random_plans(self, method):
        extract, oracle, groups, names = _METHODS[method]
        rng = np.random.default_rng(2)
        for X in _panels(3):
            M = X.shape[1]
            want = oracle(X).reshape(M, len(names))
            for _ in range(4):
                plan = [np.flatnonzero(rng.random(M) < 0.4) for _ in groups]
                got = extract(X, plan).reshape(M, len(names))
                cells = _planned_cells(groups, plan, M)
                assert np.array_equal(got[cells], want[cells])
                assert np.isnan(got[~cells]).all()

    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_single_group_plans(self, method):
        extract, oracle, groups, names = _METHODS[method]
        X = next(_panels(4))
        M = X.shape[1]
        want = oracle(X).reshape(M, len(names))
        every = np.arange(M)
        for k, group in enumerate(groups):
            plan = [every if j == k else every[:0] for j in range(len(groups))]
            got = extract(X, plan).reshape(M, len(names))
            slots = list(group.slots)
            assert np.array_equal(got[:, slots], want[:, slots]), group.name
            assert np.isnan(np.delete(got, slots, axis=1)).all()

    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_one_column_equals_its_column_of_a_wide_panel(self, method):
        """numpy reduces a one-column panel pairwise, a wider one row by
        row; the extractor widens it so both give the same bits."""
        extract, oracle, groups, names = _METHODS[method]
        for X in _panels(5):
            want = oracle(X).reshape(X.shape[1], len(names))
            for j in range(X.shape[1]):
                assert np.array_equal(extract(X[:, [j]]), want[j])
                plan = [np.array([j]) for _ in groups]
                got = extract(X, plan).reshape(X.shape[1], len(names))
                assert np.array_equal(got[j], want[j])


def _fitted(catalog, method):
    fe = FeatureExtractor(catalog, method=method)
    fe.fit_transform(_records(catalog, [64, 96, 64, 80, 64, 96], seed=6))
    return fe


@pytest.fixture(scope="module", params=["mvts", "tsfresh"])
def fitted(request, catalog):
    return _fitted(catalog, request.param)


class TestPlannedTransform:
    def test_default_plan_runs_every_group_on_every_column(self, fitted):
        plan = fitted.plan()
        for cols in plan.groups:
            assert np.array_equal(cols, np.arange(len(plan.columns)))

    def test_plan_names_only_the_groups_selected_features_need(self, fitted):
        groups = _METHODS[fitted.method][2]
        kept = np.flatnonzero(fitted.keep_mask_)
        n_stats = len(_METHODS[fitted.method][3])
        support = np.array([0, 5, len(kept) - 1])
        plan = fitted.plan(support)
        needed = {
            (k, int(np.searchsorted(plan.columns, f // n_stats)))
            for f in kept[support]
            for k, g in enumerate(groups) if f % n_stats in g.slots
        }
        planned = {(k, int(c)) for k, cols in enumerate(plan.groups) for c in cols}
        assert planned == needed

    @pytest.mark.parametrize("lengths", [[64], [96, 64], [64, 96, 80, 64, 112, 96, 64]])
    def test_random_supports(self, catalog, fitted, lengths):
        runs = _records(catalog, lengths, seed=7)
        full = fitted.transform(runs).X
        oracle = _METHODS[fitted.method][1]
        raw = np.vstack([
            oracle(preprocess_run(r.data, catalog.counter_mask)) for r in runs
        ])
        assert np.array_equal(full, np.nan_to_num(raw[:, fitted.keep_mask_]))
        rng = np.random.default_rng(len(lengths))
        for size in (1, 3, 12, full.shape[1] // 2):
            support = np.sort(rng.choice(full.shape[1], size=size, replace=False))
            part = fitted.transform(runs, fitted.plan(support))
            assert np.array_equal(part.X, full[:, support])
            corpus = fitted.transform(RunCorpus.from_records(runs), fitted.plan(support))
            assert np.array_equal(corpus.X, full[:, support])

    def test_single_column_plans_over_one_run(self, catalog, fitted):
        """Each column's own plan transforms one run to the bits of the
        full transform (a one-run, one-column panel reduced pairwise)."""
        kept = np.flatnonzero(fitted.keep_mask_)
        metric = kept // len(_METHODS[fitted.method][3])
        for run in _records(catalog, [64, 96], seed=8):
            full = fitted.transform([run]).X
            for column in np.unique(metric):
                support = np.flatnonzero(metric == column)
                part = fitted.transform([run], fitted.plan(support))
                assert np.array_equal(part.X, full[:, support]), column

    def test_approx_entropy_on_one_column_only(self, catalog, monkeypatch):
        from repro.features import tsfresh_lite

        fe = _fitted(catalog, "tsfresh")
        kept = np.flatnonzero(fe.keep_mask_)
        stat = kept % len(TSFRESH_FEATURE_NAMES)
        apen = np.flatnonzero(stat == TSFRESH_FEATURE_NAMES.index("approx_entropy"))
        support = np.array([apen[1], *np.flatnonzero(stat == 0)[:3]])
        support.sort()
        runs = _records(catalog, [64, 64, 96], seed=9)
        full = fe.transform(runs).X

        widths = []
        real = tsfresh_lite._approx_entropy_matrix

        def spy(X, *args, **kwargs):
            widths.append(X.shape[1])
            return real(X, *args, **kwargs)

        monkeypatch.setattr(tsfresh_lite, "_approx_entropy_matrix", spy)
        part = fe.transform(runs, fe.plan(support))
        assert np.array_equal(part.X, full[:, support])
        # one panel per run length, ApEn on the one column only: the two
        # 64-sample runs give two columns, the 96-sample run one, widened
        assert sorted(widths) == [2, 2]

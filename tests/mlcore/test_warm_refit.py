"""Tests for warm-start forest refits (RandomForestClassifier.refit).

The contract under test:

* ``refresh_fraction=1.0`` is **bit-identical** to a from-scratch
  ``fit_binned`` of a fresh clone (same integer seed) on the stacked
  data — the exact parity oracle that anchors every partial refit;
* the replacement schedule is deterministic and independent of
  ``n_jobs`` (it derives from the per-tree seed stream, not live RNG);
* a warm forest pickles and keeps refitting identically after a
  roundtrip;
* new classes appearing in ``y_new`` widen the forest consistently.
"""

import pickle

import numpy as np
import pytest

from repro.mlcore.binning import BinnedDataset, Binner
from repro.mlcore.forest import RandomForestClassifier, RefitReport


def _problem(seed=0, n=220, f=12):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f))
    y = (X[:, 0] + X[:, 1] > 0).astype(int) + (X[:, 2] > 1.1)
    Xq = rng.normal(size=(60, f))
    return X, y, Xq


def _hist_rf(**kw):
    kw.setdefault("n_estimators", 8)
    kw.setdefault("max_depth", 6)
    kw.setdefault("splitter", "hist")
    kw.setdefault("random_state", 3)
    return RandomForestClassifier(**kw)


class TestFullRefreshParity:
    def test_bit_identical_to_from_scratch_fit(self):
        X, y, Xq = _problem()
        warm = _hist_rf().fit(X[:180], y[:180])
        report = warm.refit(X[180:], y[180:], refresh_fraction=1.0)
        assert np.array_equal(report.replaced, np.arange(warm.n_estimators))
        assert report.touched_leaves == []

        # fresh clone, same integer seed, fit on the stacked dataset: the
        # per-tree seed streams replay exactly
        cold = _hist_rf()
        grown = warm.binned_dataset_
        cold.fit_binned(
            BinnedDataset(np.ascontiguousarray(grown.codes), grown.binner), y
        )
        for tw, tc in zip(warm.estimators_, cold.estimators_):
            assert np.array_equal(tw.tree_feature_, tc.tree_feature_)
            assert np.array_equal(tw.tree_threshold_, tc.tree_threshold_)
            assert np.array_equal(tw.tree_value_, tc.tree_value_)
        pw, pc = warm.predict_proba(Xq), cold.predict_proba(Xq)
        assert pw.tobytes() == pc.tobytes()

    def test_parity_survives_many_single_row_refits(self):
        X, y, Xq = _problem()
        warm = _hist_rf().fit(X[:200], y[:200])
        for i in range(200, 210):
            warm.refit(X[i], y[i], refresh_fraction=1.0)
        cold = _hist_rf()
        grown = warm.binned_dataset_
        cold.fit_binned(
            BinnedDataset(np.ascontiguousarray(grown.codes), grown.binner),
            y[:210],
        )
        assert warm.predict_proba(Xq).tobytes() == cold.predict_proba(Xq).tobytes()


class TestReplacementSchedule:
    def test_deterministic_across_n_jobs(self, fan_out):
        # fits and refits at n_jobs 2 and 4 run in the process pool
        X, y, Xq = _problem()
        results = {}
        for n_jobs in (1, 2, 4):
            rf = _hist_rf(n_estimators=10, n_jobs=n_jobs).fit(X[:180], y[:180])
            r1 = rf.refit(X[180:200], y[180:200], refresh_fraction=0.3)
            r2 = rf.refit(X[200:], y[200:], refresh_fraction=0.3)
            results[n_jobs] = (r1.replaced, r2.replaced, rf.predict_proba(Xq))
        for n_jobs in (2, 4):
            assert np.array_equal(results[1][0], results[n_jobs][0])
            assert np.array_equal(results[1][1], results[n_jobs][1])
            assert results[1][2].tobytes() == results[n_jobs][2].tobytes()

    def test_schedule_varies_across_rounds(self):
        X, y, _ = _problem()
        rf = _hist_rf(n_estimators=20).fit(X[:180], y[:180])
        drawn = [
            rf.refit(X[180 + i], y[180 + i], refresh_fraction=0.2).replaced
            for i in range(6)
        ]
        # the per-round schedules must not be one frozen subset: over a few
        # rounds the replacement set cycles through the forest
        assert len({tuple(d) for d in drawn}) > 1
        assert len(np.unique(np.concatenate(drawn))) > len(drawn[0])

    def test_partial_refresh_counts(self):
        X, y, _ = _problem()
        rf = _hist_rf(n_estimators=10).fit(X[:200], y[:200])
        report = rf.refit(X[200:], y[200:], refresh_fraction=0.3)
        assert len(report.replaced) == 3  # ceil(0.3 * 10)
        kept = [t for t, _ in report.touched_leaves]
        assert sorted(kept + list(report.replaced)) == list(range(10))
        assert isinstance(report, RefitReport)
        assert report.n_new_rows == 20

    def test_kept_trees_absorb_rows(self):
        X, y, _ = _problem()
        rf = _hist_rf(n_estimators=6).fit(X[:200], y[:200])
        before = [t.tree_count_.sum() for t in rf.estimators_]
        report = rf.refit(X[200:], y[200:], refresh_fraction=0.2)
        n_new = 20
        for t, leaves in report.touched_leaves:
            assert len(leaves) > 0
            # every new row lands in exactly one leaf of every kept tree
            assert rf.estimators_[t].tree_count_.sum() == before[t] + n_new


class TestPickleRoundtrip:
    def test_warm_forest_pickles_and_keeps_refitting(self):
        X, y, Xq = _problem()
        rf = _hist_rf().fit(X[:180], y[:180])
        rf.refit(X[180:200], y[180:200], refresh_fraction=0.5)
        clone = pickle.loads(pickle.dumps(rf))
        assert rf.predict_proba(Xq).tobytes() == clone.predict_proba(Xq).tobytes()
        ra = rf.refit(X[200:], y[200:], refresh_fraction=0.5)
        rb = clone.refit(X[200:], y[200:], refresh_fraction=0.5)
        assert np.array_equal(ra.replaced, rb.replaced)
        assert rf.predict_proba(Xq).tobytes() == clone.predict_proba(Xq).tobytes()


class TestClassGrowth:
    def test_new_class_in_y_new(self):
        X, y, Xq = _problem()
        rf = _hist_rf().fit(X[:200], y[:200])
        y_new = np.full(10, 7)
        report = rf.refit(X[200:210], y_new, refresh_fraction=0.4)
        assert report.classes_changed
        assert 7 in rf.classes_
        proba = rf.predict_proba(Xq)
        assert proba.shape == (len(Xq), len(rf.classes_))
        assert np.allclose(proba.sum(axis=1), 1.0)


class TestErrors:
    def test_refit_requires_binned_fit(self):
        X, y, _ = _problem()
        rf = RandomForestClassifier(n_estimators=3, random_state=0)
        rf.fit(X[:100], y[:100])  # exact splitter: no binned dataset
        with pytest.raises(RuntimeError, match="fit_binned"):
            rf.refit(X[100:105], y[100:105])

    def test_refit_before_fit(self):
        X, y, _ = _problem()
        with pytest.raises(RuntimeError, match="fit"):
            _hist_rf().refit(X[:5], y[:5])

    def test_bad_refresh_fraction(self):
        X, y, _ = _problem()
        rf = _hist_rf().fit(X[:100], y[:100])
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="refresh_fraction"):
                rf.refit(X[100:105], y[100:105], refresh_fraction=bad)

    def test_feature_mismatch(self):
        X, y, _ = _problem()
        rf = _hist_rf().fit(X[:100], y[:100])
        with pytest.raises(ValueError, match="features"):
            rf.refit(X[100:105, :5], y[100:105])

    def test_length_mismatch(self):
        X, y, _ = _problem()
        rf = _hist_rf().fit(X[:100], y[:100])
        with pytest.raises(ValueError, match="labels"):
            rf.refit(X[100:105], y[100:103])


class TestCachedCodesPath:
    def test_precomputed_codes_match_transform(self):
        X, y, Xq = _problem()
        binner = Binner(64)
        codes = binner.fit_transform(X)
        a = _hist_rf(max_bins=64)
        a.fit_binned(BinnedDataset(codes[:200].copy(), binner), y[:200])
        b = _hist_rf(max_bins=64)
        b.fit_binned(BinnedDataset(codes[:200].copy(), binner), y[:200])
        ra = a.refit(X[200:], y[200:], refresh_fraction=0.5, codes=codes[200:])
        rb = b.refit(X[200:], y[200:], refresh_fraction=0.5)
        assert np.array_equal(ra.replaced, rb.replaced)
        assert a.predict_proba(Xq).tobytes() == b.predict_proba(Xq).tobytes()

"""Extract once: ``fit_initial``, ``tune`` and ``learn`` gather the rows
``fit_features`` already extracted instead of extracting the runs again.

The gathered path must be bit-identical to re-extraction. Passing
``copy.copy``'d records forces re-extraction with no option: a copy is a
different object, so it never matches the cached corpus.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import ALBADross
from repro.telemetry.catalog import build_catalog
from repro.telemetry.collector import RunRecord
from repro.telemetry.corpus import RunCorpus

_ANOMALIES = (None, "membw", "cpuoccupy")


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(n_cores=1, n_nics=1, n_extra_cray=2)


def _records(catalog, n, seed):
    """Labeled synthetic runs of mixed raw lengths, with missing samples."""
    rng = np.random.default_rng(seed)
    M = len(catalog.names)
    records = []
    for i in range(n):
        cls = i % len(_ANOMALIES)
        T = (60, 72)[i % 2]
        data = rng.normal(loc=5.0, scale=1.0, size=(T, M))
        data[:, 2 * cls:2 * cls + 2] += 1.5 * cls
        data[:, catalog.counter_mask] = np.abs(data[:, catalog.counter_mask]).cumsum(axis=0)
        data[rng.random(size=data.shape) < 0.02] = np.nan
        records.append(RunRecord(
            app="CG" if i % 2 else "BT", input_deck=i % 3, node_count=4,
            node_id=i, anomaly=_ANOMALIES[cls],
            intensity=0.0 if cls == 0 else 1.0, data=data,
            metric_names=list(catalog.names),
        ))
    return records


@pytest.fixture(scope="module")
def split(catalog):
    runs = _records(catalog, 36, seed=11)
    return runs[:6], runs[6:24], runs[24:30], runs[30:]


def _framework(catalog, method):
    return ALBADross(catalog, FrameworkConfig(
        feature_method=method, n_features=12, max_queries=6,
        model_params={"n_estimators": 5}, random_state=0,
    ))


def _spy_transform(fw):
    """Count the runs ``fw.extractor.transform`` is asked to extract."""
    calls = []
    inner = fw.extractor.transform

    def transform(runs, plan=None):
        calls.append(len(runs))
        return inner(runs, plan)

    fw.extractor.transform = transform
    return calls


def _campaign(catalog, method, split, fresh):
    """fit_features -> fit_initial -> learn -> diagnose; ``fresh`` hands
    fit_initial and learn copies of the records."""
    seed, pool, val, test = split
    give = (lambda runs: [copy.copy(r) for r in runs]) if fresh else list
    fw = _framework(catalog, method)
    fw.fit_features(seed + pool)
    calls = _spy_transform(fw)
    fw.fit_initial(give(seed), [r.label for r in seed])
    X_seed = fw._X_seed.copy()
    result = fw.learn(give(pool), [r.label for r in pool], val, [r.label for r in val])
    history = [(q.pool_index, q.label) for q in result.oracle.history]
    diagnoses = [(d.label, d.confidence) for d in fw.diagnose(test)]
    del fw.extractor.transform
    return fw, X_seed, history, diagnoses, calls


@pytest.mark.parametrize("method", ["mvts", "tsfresh"])
def test_gathered_rows_match_re_extraction(catalog, split, method):
    seed, pool, val, test = split
    fw, X_seed, history, diagnoses, calls = _campaign(catalog, method, split, fresh=False)
    ref, X_ref, history_ref, diagnoses_ref, calls_ref = _campaign(
        catalog, method, split, fresh=True
    )
    assert np.array_equal(X_seed, X_ref)
    assert np.array_equal(fw.selector.support_, ref.selector.support_)
    assert history == history_ref
    assert len(history) == 6
    assert diagnoses == diagnoses_ref
    # the whole trained state, memory layouts included: the chi-square
    # matmul rounds differently on a C- than on an F-ordered matrix
    assert np.array_equal(fw.selector.scores_, ref.selector.scores_)
    assert pickle.dumps(fw) == pickle.dumps(ref)
    # only the validation and held-out runs were extracted on the cached
    # side; the copies re-extracted the seed and the pool as well
    assert calls == [len(val), len(test)]
    assert calls_ref == [len(seed), len(pool), len(val), len(test)]


@pytest.mark.parametrize("after_fit_initial", [False, True])
def test_gathered_rows_keep_the_extracted_layout(catalog, split, after_fit_initial):
    # BLAS-backed consumers round by memory layout, so the gathered matrix
    # must be ordered like the extractor's output, not only hold its bytes
    seed, pool, _, _ = split
    fw = _framework(catalog, "mvts")
    fw.fit_features(seed + pool)
    support = None
    if after_fit_initial:
        fw.fit_initial(seed, [r.label for r in seed])
        support = fw.selector.support_
    calls = _spy_transform(fw)
    for runs in (pool, pool[:1]):
        got = fw._features(runs, support, gather=True)
        assert calls == []
        want = fw._features([copy.copy(r) for r in runs], support, gather=True)
        assert calls == [len(runs)]
        calls.clear()
        assert np.array_equal(got, want)
        assert got.strides == want.strides


def test_fit_initial_narrows_the_rows_to_the_selection(catalog, split):
    seed, pool, _, _ = split
    fw = _framework(catalog, "mvts")
    fw.fit_features(seed + pool)
    n_kept = int(fw.extractor.keep_mask_.sum())
    assert fw._train_rows.X.shape == (len(seed + pool), n_kept)
    fw.fit_initial(seed, [r.label for r in seed])
    assert fw._train_rows.X.shape == (len(seed + pool), 12)
    X_seed = fw._X_seed
    # every kept feature is no longer held: a second fit_initial extracts
    calls = _spy_transform(fw)
    fw.fit_initial(seed, [r.label for r in seed])
    assert calls == [len(seed)]
    assert np.array_equal(fw._X_seed, X_seed)


def test_learn_releases_the_rows(catalog, split):
    seed, pool, val, _ = split
    fw = _framework(catalog, "mvts")
    fw.fit_features(seed + pool)
    fw.fit_initial(seed, [r.label for r in seed])
    assert fw._train_rows is not None
    fw.learn(pool, [r.label for r in pool], val, [r.label for r in val])
    assert fw._train_rows is None


def test_reassigned_data_is_a_cache_miss(catalog, split):
    seed, pool, _, _ = split
    seed_rows, extracted = [], []
    for reassign in (False, True):
        runs = [copy.copy(r) for r in seed + pool]
        fw = _framework(catalog, "mvts")
        fw.fit_features(runs)
        if reassign:
            # same values, new array: the run is no longer the one extracted
            runs[2].data = runs[2].data.copy()
        calls = _spy_transform(fw)
        fw.fit_initial(runs[:6], [r.label for r in runs[:6]])
        seed_rows.append(fw._X_seed)
        extracted.append(calls)
    assert extracted == [[], [6]]
    assert np.array_equal(seed_rows[0], seed_rows[1])


def test_runs_outside_the_corpus_extract_all(catalog, split):
    seed, pool, val, _ = split
    fw = _framework(catalog, "mvts")
    fw.fit_features(seed + pool)
    calls = _spy_transform(fw)
    mixed = seed[:5] + val[:1]
    fw.fit_initial(mixed, [r.label for r in mixed])
    assert calls == [6]


def test_corpus_input_keeps_no_rows(catalog, split):
    seed, pool, _, _ = split
    fw = _framework(catalog, "mvts")
    fw.fit_features(RunCorpus.from_records(seed + pool))
    assert fw._train_rows is None
    fw.fit_initial(seed, [r.label for r in seed])
    ref = _framework(catalog, "mvts")
    ref.fit_features(seed + pool)
    ref.fit_initial(seed, [r.label for r in seed])
    assert np.array_equal(fw._X_seed, ref._X_seed)


def test_tune_gathers_too(catalog, split):
    seed, pool, _, _ = split
    fw = ALBADross(catalog, FrameworkConfig(model="logistic_regression", n_features=12))
    fw.fit_features(seed + pool)
    calls = _spy_transform(fw)
    runs = seed + pool
    best = fw.tune(runs, [r.label for r in runs], cv=2)
    assert calls == []
    ref = ALBADross(catalog, FrameworkConfig(model="logistic_regression", n_features=12))
    ref.fit_features(seed + pool)
    assert ref.tune([copy.copy(r) for r in runs], [r.label for r in runs], cv=2) == best


def test_pickle_carries_no_rows_or_runs(catalog, split):
    seed, pool, val, _ = split
    fw = _framework(catalog, "mvts")
    fw.fit_features(seed + pool)
    fw.fit_initial(seed, [r.label for r in seed])
    assert fw._train_rows is not None
    blob = pickle.dumps(fw)
    assert b"RunRecord" not in blob and b"_CorpusRows" not in blob
    assert pickle.loads(blob)._train_rows is None
    # the cache leaves no trace: same bytes as the framework without it
    rows, fw._train_rows = fw._train_rows, None
    assert pickle.dumps(fw) == blob
    fw._train_rows = rows
    fw.learn(pool, [r.label for r in pool], val, [r.label for r in val])
    blob = pickle.dumps(fw)
    assert b"RunRecord" not in blob and b"_CorpusRows" not in blob
    restored = pickle.loads(blob)
    assert restored._train_rows is None
    assert np.array_equal(restored.featurize(val), fw.featurize(val))

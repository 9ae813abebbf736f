"""Selection pushdown: ``ALBADross.featurize`` extracts only the metric
columns the selected features read, bit-identical to the full path.

Every test compares against a test-local oracle that never sees a
column plan: each run is preprocessed and extracted on its own over all
metric columns, then the learned drop mask, the zero-fill, the Min-Max
scaler and the chi-square selector are applied in that order.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import ALBADross
from repro.features.mvts import extract_mvts
from repro.features.pipeline import preprocess_run
from repro.features.tsfresh_lite import extract_tsfresh
from repro.serving.registry import ModelRegistry
from repro.telemetry.catalog import build_catalog
from repro.telemetry.collector import RunRecord
from repro.telemetry.corpus import RunCorpus

_EXTRACT = {"mvts": extract_mvts, "tsfresh": extract_tsfresh}
_ANOMALIES = (None, "membw", "cpuoccupy")


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(n_cores=1, n_nics=1, n_extra_cray=2)


def _records(catalog, lengths, seed, missing_rate=0.02):
    """Synthetic labeled runs of the given raw lengths: each class shifts
    its own handful of metrics, so chi-square picks a few columns."""
    rng = np.random.default_rng(seed)
    M = len(catalog.names)
    records = []
    for i, T in enumerate(lengths):
        cls = i % len(_ANOMALIES)
        data = rng.normal(loc=5.0, scale=1.0, size=(T, M))
        data[:, 2 * cls:2 * cls + 2] += 4.0 * cls
        data[:, catalog.counter_mask] = np.abs(
            data[:, catalog.counter_mask]
        ).cumsum(axis=0)
        if missing_rate:
            data[rng.random(size=data.shape) < missing_rate] = np.nan
        records.append(RunRecord(
            app="CG" if i % 2 else "BT", input_deck=i % 3, node_count=4,
            node_id=i, anomaly=_ANOMALIES[cls],
            intensity=0.0 if cls == 0 else 1.0, data=data,
            metric_names=list(catalog.names),
        ))
    return records


def _framework(catalog, method, train, n_features=6, **config):
    fw = ALBADross(catalog, FrameworkConfig(
        feature_method=method, n_features=n_features,
        model_params={"n_estimators": 5}, random_state=0, **config,
    ))
    fw.fit_features(train)
    fw.fit_initial(train, [r.label for r in train])
    return fw


def _oracle(fw, runs):
    """Full extract -> drop -> zero-fill -> scale -> select, run by run."""
    extract = _EXTRACT[fw.extractor.method]
    mask = fw.catalog.counter_mask
    raw = np.vstack([extract(preprocess_run(r.data, mask)) for r in runs])
    X = np.nan_to_num(raw[:, fw.extractor.keep_mask_])
    return fw.selector.transform(fw.scaler.transform(X))


def _unnamed(record, data):
    """``record`` with other data and no metric names (no catalog check)."""
    return RunRecord(
        app=record.app, input_deck=record.input_deck,
        node_count=record.node_count, node_id=record.node_id,
        anomaly=record.anomaly, intensity=record.intensity, data=data,
    )


@pytest.fixture(scope="module", params=["mvts", "tsfresh"])
def trained(request, catalog):
    train = _records(catalog, [64, 80, 64, 96, 80, 64] * 3, seed=1)
    fw = _framework(catalog, request.param, train)
    plan = fw.extractor.plan(fw.selector.support_)
    # the tests below only mean something if the plan really narrows
    assert len(plan.columns) < len(catalog.names)
    return fw


class TestParity:
    @pytest.mark.parametrize("lengths", [[64], [64] * 7, [64, 96, 80, 64, 112, 96, 64]])
    def test_mixed_length_batches(self, catalog, trained, lengths):
        runs = _records(catalog, lengths, seed=2)
        assert np.array_equal(trained.featurize(runs), _oracle(trained, runs))
        corpus = RunCorpus.from_records(runs)
        assert np.array_equal(trained.featurize(corpus), _oracle(trained, runs))

    def test_all_nan_columns_read_and_unread(self, catalog, trained):
        """A metric lost for a whole run interpolates to zeros whether or
        not the plan reads it; NaN gaps elsewhere interpolate as usual."""
        columns = trained.extractor.plan(trained.selector.support_).columns
        unread = np.setdiff1d(np.arange(len(catalog.names)), columns)
        runs = _records(catalog, [64, 64, 96], seed=3, missing_rate=0.1)
        runs[0].data[:, columns[0]] = np.nan
        runs[1].data[:, unread[0]] = np.nan
        runs[2].data[:, [columns[-1], unread[-1]]] = np.nan
        assert np.array_equal(trained.featurize(runs), _oracle(trained, runs))

    def test_n_jobs_2(self, catalog, trained, fan_out):
        from repro.parallel import active_segments

        before = set(active_segments())
        runs = _records(catalog, [64, 96, 64, 80, 64, 96, 64, 80], seed=4)
        fw = pickle.loads(pickle.dumps(trained))
        fw.extractor.n_jobs = 2
        assert np.array_equal(fw.featurize(runs), _oracle(trained, runs))
        assert set(active_segments()) == before

    def test_full_plan_without_selector(self, catalog, trained):
        """Before selection exists the plan is every kept feature."""
        fw = pickle.loads(pickle.dumps(trained))
        fw.selector = None
        runs = _records(catalog, [64, 96], seed=5)
        raw = np.vstack([
            _EXTRACT[fw.extractor.method](preprocess_run(r.data, catalog.counter_mask))
            for r in runs
        ])
        expected = fw.scaler.transform(np.nan_to_num(raw[:, fw.extractor.keep_mask_]))
        assert np.array_equal(fw.featurize(runs), expected)

    def test_learn_featurizes_pool_and_validation(self, catalog, trained, monkeypatch):
        import repro.core.framework as framework_module

        seen = {}
        real = framework_module.run_active_learning

        def spy(model, strategy, X_seed, y_seed, X_pool, y_pool, X_val, y_val, **kw):
            seen.update(pool=X_pool, val=X_val)
            return real(model, strategy, X_seed, y_seed, X_pool, y_pool, X_val, y_val, **kw)

        monkeypatch.setattr(framework_module, "run_active_learning", spy)
        pool = _records(catalog, [64, 80, 96] * 3, seed=6)
        val = _records(catalog, [64, 96, 80], seed=7)
        fw = pickle.loads(pickle.dumps(trained))
        fw.config = dataclasses.replace(fw.config, max_queries=3)
        fw.learn(pool, [r.label for r in pool], val, [r.label for r in val])
        assert np.array_equal(seen["pool"], _oracle(trained, pool))
        assert np.array_equal(seen["val"], _oracle(trained, val))

    @pytest.mark.parametrize("warm", [True, False])
    def test_absorb(self, catalog, warm):
        train = _records(catalog, [64, 80, 64, 96, 80, 64] * 3, seed=8)
        fw = _framework(catalog, "mvts", train, splitter="hist", warm_start=True)
        new = _records(catalog, [64, 96, 80, 64], seed=9)
        fw.absorb(new, [r.label for r in new], warm=warm)
        assert fw.last_absorb_warm is warm
        assert np.array_equal(fw._X_seed[-len(new):], _oracle(fw, new))

    def test_registry_roundtrip_featurizes_identically(self, catalog, trained, tmp_path):
        """A published framework loads and featurizes bit for bit, and
        featurizing stores no plan: the plan is derived from the fitted
        extractor, scaler and selector, which every older pickle has."""
        registry = ModelRegistry(tmp_path / "reg")
        keys = {id(o): set(vars(o)) for o in (trained, trained.extractor, trained.scaler)}
        trained.featurize(_records(catalog, [64], seed=10))
        assert keys == {id(o): set(vars(o)) for o in (trained, trained.extractor, trained.scaler)}
        registry.publish(trained, tag="t")
        loaded, _ = registry.load()
        runs = _records(catalog, [64, 96, 64], seed=11)
        assert np.array_equal(loaded.featurize(runs), _oracle(trained, runs))
        assert np.array_equal(loaded.featurize(runs), trained.featurize(runs))


class TestInputValidation:
    """The column slice must not weaken the checks the full path made."""

    def test_wider_run_without_names_is_rejected(self, catalog, trained):
        run = _records(catalog, [64], seed=12)[0]
        wide = _unnamed(run, np.hstack([run.data, run.data[:, :1]]))
        with pytest.raises(ValueError, match="column mismatch"):
            trained.featurize([wide])
        with pytest.raises(ValueError, match="column mismatch"):
            trained.extractor.transform([wide])

    def test_narrower_run_without_names_is_rejected(self, catalog, trained):
        run = _records(catalog, [64], seed=13)[0]
        narrow = _unnamed(run, run.data[:, :-1])
        with pytest.raises(ValueError, match="column mismatch"):
            trained.featurize([narrow])

    def test_permuted_catalog_is_rejected(self, catalog, trained):
        run = _records(catalog, [64], seed=14)[0]
        perm = np.random.default_rng(14).permutation(len(catalog.names))
        permuted = RunRecord(
            app=run.app, input_deck=run.input_deck, node_count=run.node_count,
            node_id=run.node_id, anomaly=run.anomaly, intensity=run.intensity,
            data=run.data[:, perm], metric_names=[catalog.names[j] for j in perm],
        )
        with pytest.raises(ValueError, match="metric catalog"):
            trained.featurize([permuted])

    def test_too_short_run_is_rejected(self, catalog, trained):
        runs = _records(catalog, [64, 7], seed=15)
        with pytest.raises(ValueError, match="too short"):
            trained.featurize(runs)

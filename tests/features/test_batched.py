"""Run-batched extraction: bit-parity with the per-run path + edge cases.

The batched path hstacks equal-length runs into one ``(T, B*M)`` panel and
runs preprocessing + extraction once per group. Every test here pins the
contract that batching is *invisible* in the output bytes: mixed-length
corpora, single-run groups, constant/sd=0 columns, the error contracts,
counter-mask alignment, and the process pool at n_jobs ∈ {1, 2, 4}.
"""

import numpy as np
import pytest

from repro.features import mvts, tsfresh_lite
from repro.features.mvts import extract_mvts
from repro.features.pipeline import (
    FeatureExtractor,
    batched_feature_rows,
    preprocess_run,
)
from repro.features.tsfresh_lite import extract_tsfresh
from repro.telemetry.catalog import build_catalog
from repro.telemetry.collector import RunRecord
from repro.telemetry.corpus import (
    DEFAULT_MAX_PANEL_ELEMS,
    RunCorpus,
    plan_length_groups,
)

_EXTRACT = {"mvts": extract_mvts, "tsfresh": extract_tsfresh}
_NAMES = {"mvts": mvts.feature_names_for, "tsfresh": tsfresh_lite.feature_names_for}


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(n_cores=1, n_nics=1, n_extra_cray=2)


def _mixed_records(catalog, lengths, seed=0, missing_rate=0.02):
    """Synthetic runs of the given raw lengths sharing one catalog."""
    rng = np.random.default_rng(seed)
    M = len(catalog.names)
    records = []
    for i, T in enumerate(lengths):
        data = rng.normal(loc=5.0, scale=2.0, size=(T, M))
        # counters must accumulate so differencing yields sane rates
        data[:, catalog.counter_mask] = np.abs(
            data[:, catalog.counter_mask]
        ).cumsum(axis=0)
        if missing_rate:
            data[rng.random(size=data.shape) < missing_rate] = np.nan
        records.append(
            RunRecord(
                app="CG" if i % 2 else "BT",
                input_deck=i % 3,
                node_count=4,
                node_id=i,
                anomaly=None if i % 2 else "membw",
                intensity=0.0 if i % 2 else 1.0,
                data=data,
                metric_names=list(catalog.names),
            )
        )
    return records


def _with_names(record, data, metric_names):
    """A copy of ``record`` carrying other data columns and metric names."""
    return RunRecord(
        app=record.app, input_deck=record.input_deck,
        node_count=record.node_count, node_id=record.node_id,
        anomaly=record.anomaly, intensity=record.intensity,
        data=data, metric_names=metric_names,
    )


def _per_run_reference(corpus, counter_mask, method):
    """The historical path: one preprocess + extract call per run."""
    extract = _EXTRACT[method]
    return np.vstack([
        extract(preprocess_run(corpus.run_data(i), counter_mask))
        for i in range(len(corpus))
    ])


class TestPlanner:
    def test_groups_partition_all_runs(self):
        lengths = np.array([64, 96, 64, 128, 96, 64])
        groups = plan_length_groups(lengths, n_metrics=10)
        seen = np.sort(np.concatenate(groups))
        assert np.array_equal(seen, np.arange(len(lengths)))
        for idx in groups:
            assert len(np.unique(lengths[idx])) == 1  # one T per panel

    def test_ordering_is_deterministic(self):
        lengths = np.array([96, 64, 96, 64, 200])
        a = plan_length_groups(lengths, n_metrics=7)
        b = plan_length_groups(lengths, n_metrics=7)
        assert len(a) == len(b)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga, gb)

    def test_max_panel_elems_splits_groups(self):
        lengths = np.full(10, 100)
        # each run is 100 * 5 = 500 elems; cap at 3 runs per panel
        groups = plan_length_groups(lengths, n_metrics=5, max_panel_elems=1500)
        assert [len(g) for g in groups] == [3, 3, 3, 1]

    def test_cap_smaller_than_one_run_degrades_to_per_run(self):
        lengths = np.full(4, 100)
        groups = plan_length_groups(lengths, n_metrics=5, max_panel_elems=10)
        assert [len(g) for g in groups] == [1, 1, 1, 1]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n_metrics"):
            plan_length_groups(np.array([10]), n_metrics=0)
        with pytest.raises(ValueError, match="max_panel_elems"):
            plan_length_groups(np.array([10]), n_metrics=3, max_panel_elems=0)

    def test_corpus_lengths_property(self, catalog):
        corpus = RunCorpus.from_records(
            _mixed_records(catalog, [64, 96, 64], seed=1)
        )
        assert np.array_equal(corpus.lengths, [64, 96, 64])


class TestBatchedBitParity:
    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_mixed_length_corpus(self, catalog, method):
        """Multiple T groups in one corpus: batched == per-run, bitwise."""
        lengths = [64, 96, 64, 128, 96, 64, 128, 64]
        corpus = RunCorpus.from_records(_mixed_records(catalog, lengths))
        ref = _per_run_reference(corpus, catalog.counter_mask, method)
        batched = batched_feature_rows(
            corpus.buffer, corpus.offsets, catalog.counter_mask,
            (0.08, 0.06), method,
        )
        assert np.array_equal(ref, batched)

    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_single_run_groups(self, catalog, method):
        """All-distinct lengths: every panel holds exactly one run."""
        corpus = RunCorpus.from_records(
            _mixed_records(catalog, [64, 80, 96, 112], seed=2)
        )
        ref = _per_run_reference(corpus, catalog.counter_mask, method)
        batched = batched_feature_rows(
            corpus.buffer, corpus.offsets, catalog.counter_mask,
            (0.08, 0.06), method,
        )
        assert np.array_equal(ref, batched)

    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_panel_splitting_does_not_move_bits(self, catalog, method):
        """A tiny max_panel_elems forces many small panels — same bytes."""
        corpus = RunCorpus.from_records(
            _mixed_records(catalog, [64] * 6 + [96] * 3, seed=3)
        )
        whole = batched_feature_rows(
            corpus.buffer, corpus.offsets, catalog.counter_mask,
            (0.08, 0.06), method, max_panel_elems=DEFAULT_MAX_PANEL_ELEMS,
        )
        split = batched_feature_rows(
            corpus.buffer, corpus.offsets, catalog.counter_mask,
            (0.08, 0.06), method, max_panel_elems=64 * len(catalog.names) * 2,
        )
        assert np.array_equal(whole, split)

    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_constant_and_all_nan_columns(self, catalog, method):
        """sd=0 guards (skew, ApEn, variation coefficient …) survive
        batching: a constant column in one run must not pick up scale
        from its panel neighbors."""
        records = _mixed_records(catalog, [64, 64, 96], seed=4, missing_rate=0)
        records[0].data[:, 3] = 7.5          # constant column
        records[1].data[:, 5] = np.nan       # all-NaN column -> interpolated to 0
        corpus = RunCorpus.from_records(records)
        ref = _per_run_reference(corpus, catalog.counter_mask, method)
        batched = batched_feature_rows(
            corpus.buffer, corpus.offsets, catalog.counter_mask,
            (0.08, 0.06), method,
        )
        assert np.array_equal(ref, batched)

    def test_counter_mask_alignment_after_trim(self, catalog):
        """Each run's counters are differenced against its *own* columns:
        give every run a distinct accumulation rate and check the rate
        comes back per run after batched trim + diff."""
        M = len(catalog.names)
        counters = np.flatnonzero(catalog.counter_mask)
        records = []
        for i, T in enumerate([64, 64, 64, 96]):
            data = np.full((T, M), 3.0)
            data[:, counters] = float(i + 1) * np.arange(T)[:, None]
            records.append(
                RunRecord(
                    app="CG", input_deck=0, node_count=1, node_id=i,
                    anomaly=None, intensity=0.0, data=data,
                    metric_names=list(catalog.names),
                )
            )
        corpus = RunCorpus.from_records(records)
        rows = batched_feature_rows(
            corpus.buffer, corpus.offsets, catalog.counter_mask,
            (0.08, 0.06), "mvts",
        )
        n_feats = len(rows[0]) // M
        for i in range(len(records)):
            per_metric = rows[i].reshape(M, n_feats)
            # feature 0 is the mean; a rate-k counter differences to k
            assert np.allclose(per_metric[counters, 0], float(i + 1))
            gauges = ~catalog.counter_mask
            assert np.allclose(per_metric[gauges, 0], 3.0)


class TestErrorContracts:
    def test_too_short_run_raises_like_per_run_path(self, catalog):
        records = _mixed_records(catalog, [64, 7], seed=5)  # 7 < 8 post-trim
        corpus = RunCorpus.from_records(records)
        with pytest.raises(ValueError, match="too short"):
            _per_run_reference(corpus, catalog.counter_mask, "mvts")
        with pytest.raises(ValueError, match="too short"):
            batched_feature_rows(
                corpus.buffer, corpus.offsets, catalog.counter_mask,
                (0.08, 0.06), "mvts",
            )

    @pytest.mark.parametrize("extract", [extract_mvts, extract_tsfresh])
    def test_nan_contract_on_panels(self, extract):
        panel = np.ones((32, 6))
        panel[4, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            extract(panel)

    def test_tsfresh_min_length_contract_on_panels(self):
        with pytest.raises(ValueError, match="at least 8"):
            extract_tsfresh(np.ones((7, 4)))


class TestEntryPoints:
    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_record_list_equals_corpus(self, catalog, method):
        """The record-list path routes through the batched corpus path —
        both entry points, identical matrices."""
        records = _mixed_records(catalog, [64, 96, 64, 80], seed=6)
        corpus = RunCorpus.from_records(records)
        a = FeatureExtractor(catalog, method=method).fit_transform(records)
        b = FeatureExtractor(catalog, method=method).fit_transform(corpus)
        assert np.array_equal(a.X, b.X)
        assert a.feature_names == b.feature_names
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_record_list_equals_per_run_oracle(self, catalog, method):
        """Featurizing each record on its own, then applying the learned
        drop mask, gives the batched matrix bit for bit."""
        records = _mixed_records(catalog, [64, 96, 64], seed=7)
        fe = FeatureExtractor(catalog, method=method)
        batched = fe.fit_transform(records)
        oracle = np.vstack([
            _EXTRACT[method](preprocess_run(r.data, catalog.counter_mask))
            for r in records
        ])
        assert np.array_equal(batched.X, oracle[:, fe.keep_mask_])

    def test_transform_reuses_batched_path(self, catalog):
        records = _mixed_records(catalog, [64, 96, 64, 96], seed=8)
        fe = FeatureExtractor(catalog, method="mvts")
        fe.fit_transform(records[:2])
        a = fe.transform(records[2:])
        b = fe.transform(RunCorpus.from_records(records[2:]))
        assert np.array_equal(a.X, b.X)

    def test_heterogeneous_record_list_is_rejected(self, catalog):
        """Records disagreeing on metric names cannot pack, so the list
        is refused instead of featurized under one catalog's names."""
        records = _mixed_records(catalog, [64, 64], seed=9)
        renamed = list(records[1].metric_names)
        renamed[0] = "rogue_metric"
        records[1] = _with_names(records[1], records[1].data, renamed)
        with pytest.raises(ValueError, match="metric names"):
            FeatureExtractor(catalog, method="mvts").fit_transform(records)

    def test_permuted_catalog_is_rejected(self, catalog):
        """Runs collected under a column-permuted catalog carry the same
        names in another order: both entry points refuse them."""
        records = _mixed_records(catalog, [64, 64, 96], seed=11)
        perm = np.random.default_rng(11).permutation(len(catalog.names))
        names = [catalog.names[j] for j in perm]
        permuted = [_with_names(r, r.data[:, perm], names) for r in records]
        fe = FeatureExtractor(catalog, method="mvts")
        with pytest.raises(ValueError, match="metric catalog"):
            fe.fit_transform(permuted)
        with pytest.raises(ValueError, match="metric catalog"):
            fe.fit_transform(RunCorpus.from_records(permuted))
        fe.fit_transform(records)
        with pytest.raises(ValueError, match="metric catalog"):
            fe.transform(permuted)


class TestColumnPlan:
    def test_plan_maps_features_into_the_sliced_row(self, catalog):
        fe = FeatureExtractor(catalog, method="mvts")  # 48 stats per metric
        fe.keep_mask_ = np.zeros(fe.n_features_raw, dtype=bool)
        fe.keep_mask_[[5, 50, 100, 101, 200]] = True
        plan = fe.plan()
        assert list(plan.features) == [5, 50, 100, 101, 200]
        assert list(plan.columns) == [0, 1, 2, 4]
        assert list(plan.positions) == [5, 48 + 2, 96 + 4, 96 + 5, 144 + 8]
        # support indexes the kept features
        plan = fe.plan(np.array([1, 4]))
        assert list(plan.features) == [50, 200]
        assert list(plan.columns) == [1, 4]
        assert list(plan.positions) == [2, 48 + 8]

    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_planned_transform_equals_full_transform_columns(self, catalog, method):
        """Extracting only the planned metric columns gives the planned
        features of the full extract bit for bit, names included."""
        records = _mixed_records(catalog, [64, 96, 64, 80], seed=12)
        fe = FeatureExtractor(catalog, method=method)
        fe.fit_transform(records)
        full = fe.transform(records)
        assert full.feature_names == [
            n for n, keep in zip(_NAMES[method](catalog.names), fe.keep_mask_) if keep
        ]
        support = np.array([0, 7, len(full.feature_names) - 1])
        plan = fe.plan(support)
        assert len(plan.columns) < len(catalog.names)
        part = fe.transform(records, plan)
        assert np.array_equal(part.X, full.X[:, support])
        assert part.feature_names == [full.feature_names[j] for j in support]


class TestParallelParity:
    def test_n_jobs_bitwise_identical(self, catalog, fan_out):
        """Acceptance pin: mixed-length corpus, n_jobs ∈ {1, 2, 4} through
        the process pool — not a single bit moves, and no shm segment
        leaks."""
        from repro.parallel import active_segments

        before = set(active_segments())
        corpus = RunCorpus.from_records(
            _mixed_records(catalog, [64, 96, 64, 128, 96, 64, 80, 64], seed=10)
        )
        serial = FeatureExtractor(catalog, method="mvts", n_jobs=1).fit_transform(
            corpus
        )
        for n_jobs in (2, 4):
            parallel = FeatureExtractor(
                catalog, method="mvts", n_jobs=n_jobs
            ).fit_transform(corpus)
            assert np.array_equal(serial.X, parallel.X)
            assert serial.feature_names == parallel.feature_names
        assert set(active_segments()) == before

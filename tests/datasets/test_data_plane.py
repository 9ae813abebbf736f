"""Determinism tests for the parallel data plane (ISSUE PR 5).

The seed-streamed generator must be bit-identical at every worker count,
and the legacy serial path (``n_jobs=None``) must keep producing the
bytes it always has.
"""

import numpy as np
import pytest

from repro.apps.volta_apps import VOLTA_APPS
from repro.datasets.generate import (
    SystemConfig,
    build_dataset,
    generate_corpus,
    generate_runs,
)
from repro.telemetry.catalog import build_catalog
from repro.telemetry.node import VOLTA_NODE


@pytest.fixture(scope="module")
def micro_config() -> SystemConfig:
    """Smallest campaign that still exercises every grid dimension."""
    apps = {k: VOLTA_APPS[k] for k in ("CG", "BT")}
    return SystemConfig(
        name="micro",
        apps=apps,
        catalog=build_catalog(n_cores=1, n_nics=1, n_extra_cray=2),
        node=VOLTA_NODE,
        intensities=(0.2, 1.0),
        duration=64,
        n_healthy_per_app_input=2,
        n_anomalous_per_app_anomaly=2,
    )


def _assert_corpora_equal(a, b):
    assert np.array_equal(a.buffer, b.buffer, equal_nan=True)
    assert np.array_equal(a.offsets, b.offsets)
    for name in ("apps", "input_decks", "node_counts", "node_ids",
                 "anomalies", "intensities"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestSeedStreamDeterminism:
    def test_bit_identical_across_worker_counts(self, micro_config):
        serial = generate_corpus(micro_config, rng=0, n_jobs=1)
        for n_jobs in (2, 4):
            parallel = generate_corpus(micro_config, rng=0, n_jobs=n_jobs)
            _assert_corpora_equal(serial, parallel)

    def test_different_seeds_differ(self, micro_config):
        a = generate_corpus(micro_config, rng=0, n_jobs=1)
        b = generate_corpus(micro_config, rng=1, n_jobs=1)
        assert not np.array_equal(a.buffer, b.buffer, equal_nan=True)

    def test_streamed_records_match_corpus(self, micro_config):
        corpus = generate_corpus(micro_config, rng=3, n_jobs=1)
        records = generate_runs(micro_config, rng=3, n_jobs=1)
        assert len(records) == len(corpus)
        for i, r in enumerate(records):
            assert np.array_equal(r.data, corpus.run_data(i), equal_nan=True)
            assert r.label == corpus.labels[i]

    def test_grid_matches_legacy_enumeration(self, micro_config):
        """Streamed corpora keep the canonical (legacy) run ordering."""
        legacy = generate_runs(micro_config, rng=0)
        streamed = generate_corpus(micro_config, rng=0, n_jobs=1)
        assert [r.app for r in legacy] == list(streamed.apps)
        assert [r.label for r in legacy] == list(streamed.labels)
        assert [r.input_deck for r in legacy] == list(streamed.input_decks)
        assert [r.intensity for r in legacy] == list(streamed.intensities)

    def test_legacy_default_unchanged(self, micro_config):
        """``n_jobs=None`` keeps the historical shared-RNG stream."""
        a = generate_runs(micro_config, rng=11)
        b = generate_runs(micro_config, rng=11)
        assert all(
            np.array_equal(x.data, y.data, equal_nan=True)
            for x, y in zip(a, b)
        )


class TestBuildDatasetDeterminism:
    @pytest.mark.parametrize("method", ["mvts", "tsfresh"])
    def test_bit_identical_across_worker_counts(self, micro_config, method):
        ref, _ = build_dataset(micro_config, method=method, rng=0, n_jobs=1)
        for n_jobs in (2, 4):
            ds, _ = build_dataset(micro_config, method=method, rng=0, n_jobs=n_jobs)
            assert np.array_equal(ref.X, ds.X)  # bit-identical, no tolerance
            assert np.array_equal(ref.labels, ds.labels)
            assert np.array_equal(ref.apps, ds.apps)
            assert np.array_equal(ref.intensities, ds.intensities)
            assert np.array_equal(ref.node_counts, ds.node_counts)
            assert ref.feature_names == ds.feature_names

    def test_legacy_path_still_default(self, micro_config):
        """No ``n_jobs`` argument → the historical serial pipeline."""
        a, _ = build_dataset(micro_config, method="mvts", rng=5)
        b, _ = build_dataset(micro_config, method="mvts", rng=5)
        assert np.array_equal(a.X, b.X)


class TestProcessBackendDeterminism:
    """The zero-copy shared-memory transport must not move a single bit.

    Work this small stays in-process on its own, so these tests force the
    process pool (the ``fan_out`` fixture) to exercise the shm attach
    path at every worker count — and verify no ``/dev/shm`` segment
    survives.
    """

    def test_corpus_bit_identical_forced_process(self, micro_config, fan_out):
        from repro.parallel import active_segments

        before = set(active_segments())
        serial = generate_corpus(micro_config, rng=0, n_jobs=1)
        for n_jobs in (2, 4):
            parallel = generate_corpus(micro_config, rng=0, n_jobs=n_jobs)
            _assert_corpora_equal(serial, parallel)
        assert set(active_segments()) == before

    def test_build_dataset_bit_identical_forced_process(self, micro_config, fan_out):
        from repro.parallel import active_segments

        before = set(active_segments())
        ref, _ = build_dataset(micro_config, method="mvts", rng=0, n_jobs=1)
        for n_jobs in (2, 4):
            ds, _ = build_dataset(micro_config, method="mvts", rng=0, n_jobs=n_jobs)
            assert np.array_equal(ref.X, ds.X)
            assert np.array_equal(ref.labels, ds.labels)
            assert ref.feature_names == ds.feature_names
        assert set(active_segments()) == before

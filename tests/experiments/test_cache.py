"""Tests for the content-addressed on-disk dataset cache."""

import json

import numpy as np
import pytest

from repro.experiments.cache import (
    config_fingerprint,
    dataset_fingerprint,
    get_or_build,
    load_dataset,
    save_dataset,
)
from repro.features.pipeline import FeatureDataset


def _dataset(n=6):
    rng = np.random.default_rng(0)
    return FeatureDataset(
        X=rng.normal(size=(n, 4)),
        labels=np.array(["healthy", "membw"] * (n // 2)),
        apps=np.array(["CG"] * n),
        input_decks=np.zeros(n, dtype=int),
        intensities=np.zeros(n),
        node_counts=np.full(n, 4),
        feature_names=["f0", "f1", "f2", "f3"],
    )


class TestRoundtrip:
    def test_save_load_identity(self, tmp_path):
        ds = _dataset()
        path = save_dataset(ds, tmp_path / "d.npz")
        back = load_dataset(path)
        assert np.array_equal(back.X, ds.X)
        assert list(back.labels) == list(ds.labels)
        assert back.feature_names == ds.feature_names

    def test_creates_parent_dirs(self, tmp_path):
        save_dataset(_dataset(), tmp_path / "deep" / "dir" / "d.npz")
        assert (tmp_path / "deep" / "dir" / "d.npz").exists()


class TestGetOrBuild:
    def test_builds_once(self, tmp_path):
        calls = []

        def builder():
            calls.append(1)
            return _dataset()

        a = get_or_build("corp", builder, tmp_path)
        b = get_or_build("corp", builder, tmp_path)
        assert len(calls) == 1
        assert np.array_equal(a.X, b.X)

    def test_manifest_written(self, tmp_path):
        get_or_build("corp", _dataset, tmp_path)
        assert (tmp_path / "manifest.json").exists()

    def test_corrupt_entry_rebuilt(self, tmp_path):
        (tmp_path).mkdir(exist_ok=True)
        (tmp_path / "bad.npz").write_bytes(b"not a zip")
        ds = get_or_build("bad", _dataset, tmp_path)
        assert len(ds) == 6


class TestFingerprintValidation:
    def test_fingerprint_recorded_in_manifest(self, tmp_path):
        ds = get_or_build("corp", _dataset, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["corp"]["fingerprint"] == dataset_fingerprint(ds)

    def test_tampered_entry_rebuilt(self, tmp_path):
        calls = []

        def builder():
            calls.append(1)
            return _dataset()

        get_or_build("corp", builder, tmp_path)
        # swap the snapshot for a different corpus behind the manifest's back
        other = _dataset()
        other.X = other.X + 1.0
        save_dataset(other, tmp_path / "corp.npz")
        ds = get_or_build("corp", builder, tmp_path)
        assert len(calls) == 2
        assert np.array_equal(ds.X, _dataset().X)

    def test_legacy_entry_backfilled_without_rebuild(self, tmp_path):
        calls = []

        def builder():
            calls.append(1)
            return _dataset()

        ds = get_or_build("corp", builder, tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["corp"]["fingerprint"]  # pre-fingerprint-era entry
        manifest_path.write_text(json.dumps(manifest))
        get_or_build("corp", builder, tmp_path)
        assert len(calls) == 1  # validated lazily, not rebuilt
        manifest = json.loads(manifest_path.read_text())
        assert manifest["corp"]["fingerprint"] == dataset_fingerprint(ds)

    def test_fingerprint_sensitive_to_content(self):
        a = _dataset()
        b = _dataset()
        assert dataset_fingerprint(a) == dataset_fingerprint(b)
        b.X = b.X + 1e-12
        assert dataset_fingerprint(a) != dataset_fingerprint(b)


class TestConfigFingerprint:
    def test_stable_and_discriminating(self, tiny_config):
        base = config_fingerprint(tiny_config, method="mvts", seed=0)
        assert base == config_fingerprint(tiny_config, method="mvts", seed=0)
        assert base != config_fingerprint(tiny_config, method="tsfresh", seed=0)
        assert base != config_fingerprint(tiny_config, method="mvts", seed=1)

    def test_sensitive_to_campaign_fields(self, tiny_config):
        import dataclasses

        other = dataclasses.replace(tiny_config, duration=tiny_config.duration + 32)
        assert config_fingerprint(tiny_config) != config_fingerprint(other)

"""Tests for framework save/load."""

import pickle

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.framework import ALBADross
from repro.core.persistence import FORMAT_VERSION, load_framework, save_framework
from repro.datasets.generate import generate_runs
from repro.mlcore.base import clone


@pytest.fixture(scope="module")
def small_framework(tiny_config):
    runs = generate_runs(tiny_config, rng=0)
    seed, pool = runs[: len(runs) // 2], runs[len(runs) // 2 :]
    fw = ALBADross(
        tiny_config.catalog,
        FrameworkConfig(n_features=30, model_params={"n_estimators": 5}),
    )
    fw.fit_features(runs)
    fw.fit_initial(seed, [r.label for r in seed])
    return fw, pool


class TestSaveLoad:
    def test_roundtrip_predictions_identical(self, small_framework, tmp_path):
        fw, pool = small_framework
        path = save_framework(fw, tmp_path / "model.pkl")
        restored = load_framework(path)
        original = [d.label for d in fw.diagnose(pool[:5])]
        loaded = [d.label for d in restored.diagnose(pool[:5])]
        assert original == loaded

    def test_config_survives(self, small_framework, tmp_path):
        fw, _ = small_framework
        path = save_framework(fw, tmp_path / "model.pkl")
        assert load_framework(path).config == fw.config

    def test_untrained_rejected(self, tiny_config, tmp_path):
        fw = ALBADross(tiny_config.catalog)
        with pytest.raises(ValueError, match="untrained"):
            save_framework(fw, tmp_path / "x.pkl")

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.pkl"
        with path.open("wb") as fh:
            pickle.dump({"hello": 1}, fh)
        with pytest.raises(ValueError, match="not a saved"):
            load_framework(path)

    def test_wrong_version_rejected(self, small_framework, tmp_path):
        fw, _ = small_framework
        path = tmp_path / "old.pkl"
        with path.open("wb") as fh:
            pickle.dump(
                {"format_version": FORMAT_VERSION + 1, "framework": fw}, fh
            )
        with pytest.raises(ValueError, match="format version"):
            load_framework(path)

    def test_newer_version_roundtrip_fails_with_upgrade_hint(
        self, small_framework, tmp_path, monkeypatch
    ):
        """A payload saved by a future format must fail clearly, not load."""
        import repro.core.persistence as persistence

        fw, _ = small_framework
        path = tmp_path / "future.pkl"
        monkeypatch.setattr(persistence, "FORMAT_VERSION", FORMAT_VERSION + 3)
        save_framework(fw, path)  # a "future" writer produced this file
        monkeypatch.setattr(persistence, "FORMAT_VERSION", FORMAT_VERSION)
        with pytest.raises(ValueError, match="newer than this package"):
            load_framework(path)

    def test_older_version_still_gets_generic_error(self, small_framework, tmp_path):
        fw, _ = small_framework
        path = tmp_path / "ancient.pkl"
        with path.open("wb") as fh:
            pickle.dump({"format_version": 0, "framework": fw}, fh)
        with pytest.raises(ValueError, match="expected"):
            load_framework(path)

    def test_non_framework_payload_rejected(self, tmp_path):
        path = tmp_path / "notfw.pkl"
        with path.open("wb") as fh:
            pickle.dump(
                {"format_version": FORMAT_VERSION, "framework": 42}, fh
            )
        with pytest.raises(ValueError, match="ALBADross instance"):
            load_framework(path)


class TestFrameworksSavedWithTransportOption:
    """Frameworks saved while the extractor and the forest still took a
    ``backend`` transport option load, diagnose and clone as before."""

    def test_load_diagnose_clone(self, small_framework, tmp_path):
        fw, pool = small_framework
        old = pickle.loads(pickle.dumps(fw))
        old.extractor.__dict__["backend"] = "auto"
        old.model.__dict__["backend"] = "auto"
        restored = load_framework(save_framework(old, tmp_path / "old.pkl"))
        assert "backend" not in vars(restored.extractor)
        assert "backend" not in vars(restored.model)

        X = fw.featurize(pool)
        assert np.array_equal(restored.featurize(pool), X)
        assert np.array_equal(restored.model.predict_proba(X), fw.model.predict_proba(X))
        assert restored.diagnose(pool) == fw.diagnose(pool)

        twin, fresh = clone(restored.model), clone(fw.model)
        assert twin.get_params() == fresh.get_params()
        twin.fit(fw._X_seed, fw._y_seed)
        fresh.fit(fw._X_seed, fw._y_seed)
        assert np.array_equal(twin.predict_proba(X), fresh.predict_proba(X))


class TestFrameworksSavedWithNameTable:
    """Frameworks saved while the extractor stored every raw feature name
    load and featurize as before; the names are now derived on demand."""

    def test_load_featurize_names(self, small_framework, tmp_path):
        from repro.features.mvts import feature_names_for

        fw, pool = small_framework
        names = feature_names_for(fw.catalog.names)
        old = pickle.loads(pickle.dumps(fw))
        old.extractor.__dict__["_all_names"] = names
        restored = load_framework(save_framework(old, tmp_path / "old.pkl"))
        assert "_all_names" not in vars(restored.extractor)
        assert "_all_names" not in vars(fw.extractor)

        assert np.array_equal(restored.featurize(pool), fw.featurize(pool))
        assert restored.diagnose(pool) == fw.diagnose(pool)
        kept = np.flatnonzero(fw.extractor.keep_mask_)
        assert restored.extractor.transform(pool).feature_names == [names[i] for i in kept]
        assert restored.extractor.n_features_raw == len(names)


class TestFrameworksSavedWithPanelCap:
    """Frameworks saved while the extractor stored its panel cap
    (``max_panel_elems``) load and featurize bitwise-equal; the cap is
    now a constant."""

    def test_load_featurize(self, small_framework, tmp_path):
        from repro.telemetry.corpus import DEFAULT_MAX_PANEL_ELEMS

        fw, pool = small_framework
        old = pickle.loads(pickle.dumps(fw))
        old.extractor.__dict__["max_panel_elems"] = DEFAULT_MAX_PANEL_ELEMS
        restored = load_framework(save_framework(old, tmp_path / "old.pkl"))
        assert "max_panel_elems" not in vars(restored.extractor)
        assert "max_panel_elems" not in vars(fw.extractor)

        assert np.array_equal(restored.featurize(pool), fw.featurize(pool))
        assert np.array_equal(
            restored.extractor.transform(pool).X, fw.extractor.transform(pool).X
        )
        assert restored.diagnose(pool) == fw.diagnose(pool)


class TestManifestHelpers:
    def test_manifest_is_json_serializable(self, small_framework):
        import json

        from repro.core.persistence import build_manifest

        fw, _ = small_framework
        manifest = json.loads(json.dumps(build_manifest(fw)))
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["config"]["n_features"] == 30
        assert manifest["n_features"] == 30
        assert "healthy" in manifest["classes"]

    def test_manifest_requires_trained_framework(self, tiny_config):
        from repro.core.persistence import build_manifest

        with pytest.raises(ValueError, match="untrained"):
            build_manifest(ALBADross(tiny_config.catalog))

    def test_train_fingerprint_stable_and_sensitive(self, small_framework):
        from repro.core.persistence import train_fingerprint

        fw, _ = small_framework
        assert train_fingerprint(fw) == train_fingerprint(fw)
        assert train_fingerprint(ALBADross(fw.catalog)) == "untrained"

    def test_run_fingerprint_distinguishes_runs(self, tiny_config):
        from repro.core.persistence import run_fingerprint
        from repro.datasets.generate import generate_runs

        a, b = generate_runs(tiny_config, rng=0)[:2]
        assert run_fingerprint(a) == run_fingerprint(a)
        assert run_fingerprint(a) != run_fingerprint(b)

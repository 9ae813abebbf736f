"""Tests for the command-line interface and run-archive IO."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets.generate import generate_runs
from repro.datasets.runs_io import load_runs, save_runs


def _object_array_archive(config, path):
    """A run archive whose ``metric_names`` is an object (pickled) array,
    as ``save_runs`` wrote them before it refused to."""
    runs = generate_runs(config, rng=0)[:2]
    np.savez_compressed(
        path,
        data=np.stack([r.data for r in runs]),
        app=np.array([r.app for r in runs]),
        input_deck=np.array([r.input_deck for r in runs]),
        node_count=np.array([r.node_count for r in runs]),
        node_id=np.array([r.node_id for r in runs]),
        anomaly=np.array([r.anomaly or "" for r in runs]),
        intensity=np.array([r.intensity for r in runs]),
        metric_names=np.array(runs[0].metric_names, dtype=object),
    )
    return path


class TestRunsIO:
    def test_roundtrip(self, tiny_config, tmp_path):
        runs = generate_runs(tiny_config, rng=0)[:8]
        path = save_runs(runs, tmp_path / "runs.npz")
        back = load_runs(path)
        assert len(back) == 8
        assert back[0].app == runs[0].app
        assert back[3].label == runs[3].label
        assert np.array_equal(back[0].data, runs[0].data, equal_nan=True)
        assert back[0].metric_names == runs[0].metric_names

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no runs"):
            save_runs([], tmp_path / "x.npz")

    def test_heterogeneous_rejected(self, tiny_config, tmp_path):
        runs = generate_runs(tiny_config, rng=0)[:2]
        short = runs[0]
        import dataclasses

        long = dataclasses.replace(runs[1])
        long.data = np.vstack([long.data, long.data])
        with pytest.raises(ValueError, match="heterogeneous"):
            save_runs([short, long], tmp_path / "x.npz")

    def test_anomaly_none_roundtrip(self, tiny_config, tmp_path):
        runs = [r for r in generate_runs(tiny_config, rng=0) if r.anomaly is None][:2]
        back = load_runs(save_runs(runs, tmp_path / "h.npz"))
        assert all(r.anomaly is None for r in back)
        assert all(r.label == "healthy" for r in back)

    def test_archive_holds_no_object_array(self, tiny_config, tmp_path):
        path = save_runs(generate_runs(tiny_config, rng=0)[:2], tmp_path / "r.npz")
        with np.load(path, allow_pickle=False) as z:
            assert all(z[key].dtype != object for key in z.files)

    def test_object_array_is_refused(self, tiny_config, tmp_path):
        """A pickled member could run code on load: never unpickle one."""
        path = _object_array_archive(tiny_config, tmp_path / "crafted.npz")
        with pytest.raises(ValueError, match="object \\(pickled\\) array"):
            load_runs(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_collect_defaults(self):
        args = build_parser().parse_args(["collect", "--out", "x.npz"])
        assert args.system == "volta"
        assert args.scale == 0.05

    def test_bad_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["collect", "--system", "summit", "--out", "x"])

    def test_all_commands_parse(self):
        parser = build_parser()
        parser.parse_args(["info"])
        parser.parse_args(["train", "--runs", "r.npz", "--out", "m.pkl"])
        parser.parse_args(["diagnose", "--model", "m.pkl", "--runs", "r.npz"])
        parser.parse_args(["evaluate", "--model", "m.pkl", "--runs", "r.npz"])
        parser.parse_args(["registry", "list", "--root", "reg"])
        parser.parse_args(["serve-batch", "--registry", "reg", "--runs", "r.npz"])

    def test_registry_action_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["registry", "destroy", "--root", "reg"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--system", "volta"]) == 0
        out = capsys.readouterr().out
        assert "Kripke" in out
        assert "membw" in out
        assert "721" in out

    def test_collect_train_diagnose_evaluate_pipeline(self, tmp_path, capsys):
        runs_path = tmp_path / "runs.npz"
        model_path = tmp_path / "model.pkl"
        # small, fast campaign
        assert main([
            "collect", "--system", "volta", "--scale", "0.03",
            "--healthy-per-cell", "2", "--anomalous-per-cell", "2",
            "--duration", "96", "--seed", "1", "--out", str(runs_path),
        ]) == 0
        assert runs_path.exists()

        assert main([
            "train", "--runs", str(runs_path), "--system", "volta",
            "--scale", "0.03", "--n-features", "80",
            "--max-queries", "5", "--seed", "1", "--out", str(model_path),
        ]) == 0
        assert model_path.exists()
        out = capsys.readouterr().out
        assert "active learning" in out

        assert main([
            "diagnose", "--model", str(model_path),
            "--runs", str(runs_path), "--limit", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("confidence") == 4

        assert main([
            "evaluate", "--model", str(model_path), "--runs", str(runs_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "macro F1" in out
        assert "false alarm rate" in out

    def test_train_on_too_small_archive_fails_cleanly(self, tiny_config, tmp_path):
        runs = generate_runs(tiny_config, rng=0)[:3]
        path = save_runs(runs, tmp_path / "tiny.npz")
        code = main([
            "train", "--runs", str(path), "--out", str(tmp_path / "m.pkl"),
        ])
        assert code == 2


class TestRefusedArchive:
    """A ``--runs`` archive ``load_runs`` refuses ends the command with
    one ``error:`` line and exit code 2, not a traceback."""

    @pytest.fixture(scope="class")
    def paths(self, tiny_config, tmp_path_factory):
        from repro.core import ALBADross, FrameworkConfig, save_framework

        root = tmp_path_factory.mktemp("refused")
        runs = generate_runs(tiny_config, rng=0)
        fw = ALBADross(tiny_config.catalog, FrameworkConfig(
            n_features=10, model_params={"n_estimators": 2},
        ))
        fw.fit_features(runs)
        fw.fit_initial(runs, [r.label for r in runs])
        return {
            "archive": str(_object_array_archive(tiny_config, root / "old.npz")),
            "model": str(save_framework(fw, root / "model.pkl")),
            "root": root,
        }

    def _refused(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "object (pickled) array" in err

    def test_train(self, paths, capsys):
        self._refused(["train", "--runs", paths["archive"],
                       "--out", str(paths["root"] / "m.pkl")], capsys)

    def test_diagnose(self, paths, capsys):
        self._refused(["diagnose", "--model", paths["model"],
                       "--runs", paths["archive"]], capsys)

    def test_evaluate(self, paths, capsys):
        self._refused(["evaluate", "--model", paths["model"],
                       "--runs", paths["archive"]], capsys)

    def test_serve_batch(self, paths, capsys):
        self._refused(["serve-batch", "--registry", str(paths["root"] / "reg"),
                       "--runs", paths["archive"]], capsys)

    def test_missing_archive(self, paths, capsys):
        assert main(["diagnose", "--model", paths["model"],
                     "--runs", str(paths["root"] / "absent.npz")]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestUnreadableModel:
    """A ``--model`` file ``load_framework`` cannot read ends the command
    with one ``error:`` line and exit code 2, not a traceback."""

    @pytest.fixture(scope="class")
    def paths(self, tiny_config, tmp_path_factory):
        root = tmp_path_factory.mktemp("unreadable")
        runs = generate_runs(tiny_config, rng=0)[:4]
        return {
            "runs": str(save_runs(runs, root / "runs.npz")),
            "model": str(root / "missing.pkl"),
            "root": root,
        }

    def _refused(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_diagnose(self, paths, capsys):
        self._refused(["diagnose", "--model", paths["model"],
                       "--runs", paths["runs"]], capsys)

    def test_evaluate(self, paths, capsys):
        self._refused(["evaluate", "--model", paths["model"],
                       "--runs", paths["runs"]], capsys)

    def test_registry_publish(self, paths, capsys):
        self._refused(["registry", "publish", "--root",
                       str(paths["root"] / "reg"), "--model", paths["model"]],
                      capsys)

    @pytest.mark.parametrize("content", [b"", b"not a pickle"])
    def test_unreadable_file(self, paths, capsys, content, tmp_path):
        model = tmp_path / "model.pkl"
        model.write_bytes(content)
        self._refused(["diagnose", "--model", str(model),
                       "--runs", paths["runs"]], capsys)


class TestInfoEclipse:
    def test_info_eclipse(self, capsys):
        assert main(["info", "--system", "eclipse"]) == 0
        out = capsys.readouterr().out
        assert "HACC" in out and "806" in out


class TestDiagnoseLimit:
    def test_limit_larger_than_archive(self, tiny_config, tmp_path, capsys):
        from repro.core import ALBADross, FrameworkConfig, save_framework

        runs = generate_runs(tiny_config, rng=3)[:12]
        archive = save_runs(runs, tmp_path / "r.npz")
        fw = ALBADross(
            tiny_config.catalog,
            FrameworkConfig(n_features=40, model_params={"n_estimators": 4}),
        )
        fw.fit_features(runs)
        fw.fit_initial(runs, [r.label for r in runs])
        model = save_framework(fw, tmp_path / "m.pkl")
        assert main([
            "diagnose", "--model", str(model), "--runs", str(archive),
            "--limit", "999",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("confidence") == 12

"""End-to-end CLI tests for the serving commands and the console entry."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import ALBADross, FrameworkConfig, save_framework
from repro.datasets.runs_io import save_runs

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture()
def artifacts(trained, corpus, tmp_path):
    """A saved model pickle and a pool archive on disk."""
    model = save_framework(trained, tmp_path / "model.pkl")
    archive = save_runs(corpus["pool"], tmp_path / "pool.npz")
    return {"model": model, "archive": archive, "root": tmp_path / "registry"}


class TestRegistryCommand:
    def test_publish_list_rollback(self, artifacts, capsys):
        root = str(artifacts["root"])
        assert main(["registry", "list", "--root", root]) == 0
        assert "empty" in capsys.readouterr().out

        assert main([
            "registry", "publish", "--root", root,
            "--model", str(artifacts["model"]), "--tag", "seed",
        ]) == 0
        assert "published v0001" in capsys.readouterr().out

        assert main([
            "registry", "publish", "--root", root,
            "--model", str(artifacts["model"]),
        ]) == 0
        capsys.readouterr()

        assert main(["registry", "list", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "v0001" in out and "v0002" in out
        assert "* v0002" in out  # current marker
        assert "tag=seed" in out

        assert main(["registry", "rollback", "--root", root]) == 0
        assert "current -> v0001" in capsys.readouterr().out

        assert main([
            "registry", "activate", "--root", root, "--ref", "v0002",
        ]) == 0
        assert "current -> v0002" in capsys.readouterr().out

    def test_publish_requires_model(self, artifacts, capsys):
        assert main([
            "registry", "publish", "--root", str(artifacts["root"]),
        ]) == 2
        assert "--model" in capsys.readouterr().err

    def test_rollback_on_empty_registry_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "registry", "rollback", "--root", str(tmp_path / "none"),
        ]) == 2
        assert "registry error" in capsys.readouterr().err


class TestServeBatchCommand:
    def test_serve_batch_prints_stats(self, artifacts, capsys):
        root = str(artifacts["root"])
        assert main([
            "registry", "publish", "--root", root,
            "--model", str(artifacts["model"]),
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve-batch", "--registry", root,
            "--runs", str(artifacts["archive"]),
            "--max-batch", "8", "--linger-ms", "20", "--escalate",
        ]) == 0
        out = capsys.readouterr().out
        assert "serving v0001" in out
        assert "scored" in out
        assert "batch_size_histogram" in out
        assert "escalation queue depth" in out

    def test_serve_batch_on_empty_registry_fails_cleanly(
        self, artifacts, tmp_path, capsys
    ):
        assert main([
            "serve-batch", "--registry", str(tmp_path / "nothing"),
            "--runs", str(artifacts["archive"]),
        ]) == 2
        assert "registry error" in capsys.readouterr().err

    def test_serve_batch_health_and_reliability_knobs(self, artifacts, capsys):
        root = str(artifacts["root"])
        main(["registry", "publish", "--root", root,
              "--model", str(artifacts["model"])])
        capsys.readouterr()
        assert main([
            "serve-batch", "--registry", root,
            "--runs", str(artifacts["archive"]),
            "--retries", "2", "--degrade-after", "3",
            "--deadline-ms", "30000", "--stall-timeout-s", "30",
            "--health",
        ]) == 0
        out = capsys.readouterr().out
        assert "retries" in out
        assert "deadline_drops" in out
        assert "watchdog_restarts" in out
        assert "degraded_responses" in out
        assert "health:" in out
        assert "breaker_state" in out
        assert "dispatcher_alive" in out

    def test_serve_batch_respects_limit(self, artifacts, capsys):
        root = str(artifacts["root"])
        main(["registry", "publish", "--root", root,
              "--model", str(artifacts["model"])])
        capsys.readouterr()
        assert main([
            "serve-batch", "--registry", root,
            "--runs", str(artifacts["archive"]), "--limit", "3",
        ]) == 0
        assert "scored 3 runs" in capsys.readouterr().out


class TestConsoleEntry:
    def test_python_dash_m_repro_help(self):
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "serve-batch" in proc.stdout
        assert "registry" in proc.stdout

    def test_console_script_declared(self):
        pyproject = (REPO / "pyproject.toml").read_text()
        assert 'repro = "repro.cli:main"' in pyproject


class TestServeBatchJobsDb:
    """``serve-batch --jobs-db``: the escalation queue is backed by a
    durable job store, and nothing escalated dies with the process."""

    @staticmethod
    def _publish(artifacts, capsys) -> str:
        root = str(artifacts["root"])
        main(["registry", "publish", "--root", root,
              "--model", str(artifacts["model"])])
        capsys.readouterr()
        return root

    def test_jobs_db_reports_queue_and_keeps_escalations(
        self, artifacts, tmp_path, capsys
    ):
        from repro.serving.jobs import ESCALATION_KIND, JobQueue, JobState

        root = self._publish(artifacts, capsys)
        db = tmp_path / "jobs.db"
        stats_path = tmp_path / "stats.json"
        assert main([
            "serve-batch", "--registry", root,
            "--runs", str(artifacts["archive"]),
            "--jobs-db", str(db), "--escalate", "--health",
            "--stats-json", str(stats_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "job queue:" in out
        assert "health:" in out
        import json

        escalated = json.loads(stats_path.read_text())["stats"]["escalations"]
        assert escalated > 0
        # stop() flushed every parked escalation into the store
        assert "escalation queue depth: 0" in out
        assert f"PENDING={escalated}" in out
        queue = JobQueue(db)
        try:
            assert queue.counts()[JobState.PENDING] == escalated
            assert len(queue.list_jobs(kind=ESCALATION_KIND)) == escalated
        finally:
            queue.close()

    def test_jobs_db_without_escalate_prints_service_stats(
        self, artifacts, tmp_path, capsys
    ):
        root = self._publish(artifacts, capsys)
        db = tmp_path / "jobs.db"
        assert main([
            "serve-batch", "--registry", root,
            "--runs", str(artifacts["archive"]),
            "--jobs-db", str(db), "--max-batch", "8", "--linger-ms", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert db.exists()
        assert "serving v0001" in out
        assert "scored" in out
        assert "batch_size_histogram" in out
        assert "escalations" in out
        # a store alone still backs an escalation queue, drained at exit
        assert "escalation queue depth: 0" in out
        assert "job queue:" in out

    def test_jobs_db_retrain_runs_the_durable_cycle(
        self, artifacts, tmp_path, capsys
    ):
        from repro.serving.jobs import JobQueue, JobState

        root = self._publish(artifacts, capsys)
        db = tmp_path / "jobs.db"
        assert main([
            "serve-batch", "--registry", root,
            "--runs", str(artifacts["archive"]),
            "--jobs-db", str(db), "--escalate", "--retrain",
        ]) == 0
        out = capsys.readouterr().out
        assert "adopted v0002" in out
        queue = JobQueue(db)
        try:
            counts = queue.counts()
        finally:
            queue.close()
        # every escalation and the retrain order were acked
        assert counts[JobState.DONE] >= 2
        assert counts[JobState.PENDING] == counts[JobState.CLAIMED] == 0
        assert f"DONE={counts[JobState.DONE]}" in out

    def test_jobs_db_retrain_reports_a_warm_refit(
        self, tiny_config, corpus, tmp_path, capsys
    ):
        """The durable cycle absorbs into its own registry copy; the
        service still counts the warm refit that copy ran."""
        fw = ALBADross(tiny_config.catalog, FrameworkConfig(
            n_features=30, model_params={"n_estimators": 5},
            splitter="hist", warm_start=True,
        ))
        fw.fit_features(corpus["all"])
        fw.fit_initial(corpus["train"], [r.label for r in corpus["train"]])
        root = str(tmp_path / "registry")
        assert main(["registry", "publish", "--root", root, "--model",
                     str(save_framework(fw, tmp_path / "hist.pkl"))]) == 0
        assert main([
            "serve-batch", "--registry", root,
            "--runs", str(save_runs(corpus["pool"], tmp_path / "pool.npz")),
            "--jobs-db", str(tmp_path / "jobs.db"),
            "--escalate", "--retrain", "--warm-start",
        ]) == 0
        out = capsys.readouterr().out
        assert "retrained (warm) and adopted v0002" in out
        assert re.search(r"^  warm_refits +1$", out, re.MULTILINE)

    def test_jobs_db_on_empty_registry_fails_cleanly(
        self, artifacts, tmp_path, capsys
    ):
        assert main([
            "serve-batch", "--registry", str(tmp_path / "nothing"),
            "--runs", str(artifacts["archive"]),
            "--jobs-db", str(tmp_path / "jobs.db"),
        ]) == 2
        assert "registry error" in capsys.readouterr().err

    def test_stats_json_written_with_and_without_health(
        self, artifacts, tmp_path, capsys
    ):
        import json

        root = self._publish(artifacts, capsys)
        with_health = tmp_path / "health.json"
        without = tmp_path / "plain.json"
        assert main([
            "serve-batch", "--registry", root,
            "--runs", str(artifacts["archive"]),
            "--health", "--stats-json", str(with_health),
        ]) == 0
        assert main([
            "serve-batch", "--registry", root,
            "--runs", str(artifacts["archive"]),
            "--jobs-db", str(tmp_path / "jobs.db"),
            "--stats-json", str(without),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(with_health.read_text())
        assert doc["stats"]["requests"] > 0
        assert doc["health"]["dispatcher_alive"] is True
        assert "captured_at" in doc
        plain = json.loads(without.read_text())
        assert plain["stats"]["requests"] > 0
        assert plain.get("health") is None  # --health not passed


class TestQueueCommand:
    @pytest.fixture()
    def seeded_db(self, tmp_path):
        from repro.serving.jobs import JobQueue

        db = tmp_path / "jobs.db"
        queue = JobQueue(db)
        queue.enqueue("escalation", {"a": 1})
        queue.enqueue("retrain_publish", {"tag": None})
        (claimed,) = queue.claim(kinds=("escalation",), n=1, worker="w")
        queue.nack(claimed.job_id, claimed.claim_token, error="boom")
        queue.close()
        return db

    def test_list_shows_counts_and_rows(self, seeded_db, capsys):
        assert main(["queue", "list", "--db", str(seeded_db)]) == 0
        out = capsys.readouterr().out
        assert "PENDING=1" in out and "FAILED=1" in out
        assert "escalation" in out and "retrain_publish" in out
        assert "err=boom" in out

    def test_inspect_dumps_job_document(self, seeded_db, capsys):
        import json

        assert main([
            "queue", "inspect", "--db", str(seeded_db), "--job-id", "1",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["job_id"] == 1
        assert doc["state"] == "FAILED"
        assert doc["attempts"] == 1
        assert doc["payload_keys"] == ["a"]

    def test_requeue_resets_a_failed_job(self, seeded_db, capsys):
        assert main([
            "queue", "requeue", "--db", str(seeded_db), "--job-id", "1",
        ]) == 0
        assert "job 1 -> PENDING" in capsys.readouterr().out
        main(["queue", "list", "--db", str(seeded_db)])
        assert "PENDING=2" in capsys.readouterr().out

    def test_purge_defaults_to_done(self, seeded_db, capsys):
        from repro.serving.jobs import JobQueue

        queue = JobQueue(seeded_db)
        (job,) = queue.claim(kinds=("retrain_publish",), n=1, worker="w")
        queue.ack(job.job_id, job.claim_token)
        queue.close()
        assert main(["queue", "purge", "--db", str(seeded_db)]) == 0
        assert "purged 1 jobs" in capsys.readouterr().out

    def test_missing_db_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "queue", "inspect", "--db", str(tmp_path / "none.db"),
            "--job-id", "1",
        ]) == 2
        assert "no job queue database" in capsys.readouterr().err

    def test_unknown_job_id_fails_cleanly(self, seeded_db, capsys):
        assert main([
            "queue", "inspect", "--db", str(seeded_db), "--job-id", "99",
        ]) == 2
        assert "queue error" in capsys.readouterr().err

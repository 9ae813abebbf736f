"""Command-line interface: ``python -m repro <command>``.

The operational surface a site would actually script against:

* ``collect``  — run a telemetry campaign on the simulated system and save
  the raw runs to an ``.npz`` archive;
* ``train``    — split an archive Fig. 2-style, train ALBADross with the
  active-learning loop (ground-truth oracle), and save the model;
* ``diagnose`` — load a model and an archive, print per-run diagnoses;
* ``evaluate`` — load a model and a *labeled* archive, print the paper's
  metrics (macro F1, false-alarm and anomaly-miss rates) plus the
  per-class report;
* ``info``     — show the system inventories (apps, anomalies, metrics);
* ``registry`` — manage the versioned serving model registry
  (list / publish / rollback / activate);
* ``serve-batch`` — score an archive through the online
  :class:`~repro.serving.service.DiagnosisService` (micro-batching,
  cache, escalation, optional durable job store) and print the service
  counters;
* ``queue`` — operate the durable job queue
  (list / inspect / requeue / purge).
"""

from __future__ import annotations

import argparse
import pickle
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema (separate for testability)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ALBADross: active-learning anomaly diagnosis for HPC systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="run a campaign, save raw runs")
    p.add_argument("--system", choices=("volta", "eclipse"), default="volta")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--healthy-per-cell", type=int, default=6)
    p.add_argument("--anomalous-per-cell", type=int, default=6)
    p.add_argument("--duration", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-jobs", type=int, default=None,
                   help="worker processes for the campaign (per-run seed "
                        "streams; same bytes at any count). Default: the "
                        "legacy serial generator")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("train", help="train ALBADross on a run archive")
    p.add_argument("--runs", type=Path, required=True)
    p.add_argument("--system", choices=("volta", "eclipse"), default="volta")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--features", choices=("mvts", "tsfresh"), default="mvts")
    p.add_argument("--n-features", type=int, default=300)
    p.add_argument("--strategy", choices=("uncertainty", "margin", "entropy"),
                   default="uncertainty")
    p.add_argument("--max-queries", type=int, default=50)
    p.add_argument("--target-f1", type=float, default=None)
    p.add_argument("--splitter", choices=("exact", "hist"), default="exact",
                   help="forest split search: exact (reference) or hist "
                        "(histogram-binned, much faster)")
    p.add_argument("--n-jobs", type=int, default=1,
                   help="worker processes for feature extraction and forest "
                        "fitting (1 = serial)")
    p.add_argument("--warm-start", action="store_true",
                   help="incremental AL refits: keep trees across rounds, "
                        "regrow only a seeded subset per query (needs "
                        "--splitter hist)")
    p.add_argument("--refresh-fraction", type=float, default=0.25,
                   help="fraction of trees regrown per warm refit "
                        "(1.0 = bit-exact to cold refits)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("diagnose", help="diagnose runs with a trained model")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--runs", type=Path, required=True)
    p.add_argument("--limit", type=int, default=None)

    p = sub.add_parser("evaluate", help="score a trained model on labeled runs")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--runs", type=Path, required=True)

    p = sub.add_parser("info", help="show system inventories")
    p.add_argument("--system", choices=("volta", "eclipse"), default="volta")

    p = sub.add_parser("registry", help="manage the serving model registry")
    p.add_argument("action", choices=("list", "publish", "rollback", "activate"))
    p.add_argument("--root", type=Path, required=True,
                   help="registry directory")
    p.add_argument("--model", type=Path, default=None,
                   help="saved framework to publish (publish only)")
    p.add_argument("--tag", default=None, help="tag for the published version")
    p.add_argument("--ref", default=None,
                   help="version id or tag (rollback/activate target)")

    p = sub.add_parser("serve-batch",
                       help="score an archive through the online service")
    p.add_argument("--registry", type=Path, required=True)
    p.add_argument("--runs", type=Path, required=True)
    p.add_argument("--ref", default="current",
                   help="registry version to serve (default: current)")
    p.add_argument("--max-batch", type=int, default=32)
    p.add_argument("--linger-ms", type=float, default=5.0)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--escalate", action="store_true",
                   help="route low-confidence verdicts to the escalation queue")
    p.add_argument("--jobs-db", type=Path, default=None,
                   help="durable job queue database; escalations flush "
                        "here at shutdown and survive crashes")
    p.add_argument("--retrain", action="store_true",
                   help="after serving, close the loop: annotate escalated "
                        "runs with their archived labels, refit, publish, "
                        "and adopt the new version (needs --escalate)")
    p.add_argument("--warm-start", action="store_true",
                   help="use the incremental refit path for --retrain "
                        "(falls back to a cold rebuild when the model "
                        "cannot warm-refit)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request TTL; expired requests fail fast")
    p.add_argument("--retries", type=int, default=0,
                   help="retries (with backoff) for transient scoring failures")
    p.add_argument("--degrade-after", type=int, default=None,
                   help="serve flagged fallback diagnoses after N consecutive "
                        "batch failures (circuit breaker)")
    p.add_argument("--stall-timeout-s", type=float, default=None,
                   help="watchdog: restart a dispatch loop stuck this long")
    p.add_argument("--health", action="store_true",
                   help="print the health/readiness probe after serving")
    p.add_argument("--stats-json", type=Path, default=None,
                   help="dump a machine-readable ServiceStats snapshot "
                        "(plus health) to this path for scraping")

    p = sub.add_parser(
        "lint",
        help="run the invariant-enforcing static analysis suite",
    )
    p.add_argument("paths", nargs="*", default=None,
                   help="files/directories to lint (default: src and tests "
                        "under the current directory)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   dest="fmt", help="report format")
    p.add_argument("--rules", default=None,
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--baseline", type=Path, default=None,
                   help="baseline JSON; grandfathered findings there do not "
                        "fail the run")
    p.add_argument("--write-baseline", type=Path, default=None,
                   help="write the current findings to this baseline file "
                        "and exit 0")

    p = sub.add_parser("queue", help="operate the durable job queue")
    p.add_argument("action", choices=("list", "inspect", "requeue", "purge"))
    p.add_argument("--db", type=Path, required=True,
                   help="job queue database file")
    p.add_argument("--state", default=None,
                   help="filter (list) or target (purge) job state")
    p.add_argument("--kind", default=None, help="filter by job kind (list)")
    p.add_argument("--job-id", type=int, default=None,
                   help="job to inspect or requeue")
    p.add_argument("--limit", type=int, default=50,
                   help="max rows to list")
    return parser


# ----------------------------------------------------------------------
def _config_for(args) -> "SystemConfig":
    from .datasets import eclipse_config, volta_config

    maker = volta_config if args.system == "volta" else eclipse_config
    kwargs = dict(scale=args.scale)
    if getattr(args, "healthy_per_cell", None) is not None and hasattr(args, "healthy_per_cell"):
        kwargs["n_healthy_per_app_input"] = args.healthy_per_cell
        kwargs["n_anomalous_per_app_anomaly"] = args.anomalous_per_cell
        kwargs["duration"] = args.duration
    return maker(**kwargs)


def _read_runs(path: Path) -> list | None:
    """The runs of archive ``path``, or None once the reason
    :func:`~repro.datasets.runs_io.load_runs` refused it is printed."""
    from .datasets.runs_io import load_runs

    try:
        return load_runs(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _read_model(path: Path):
    """The framework saved at ``path``, or None once the reason
    :func:`~repro.core.persistence.load_framework` failed is printed."""
    from .core import load_framework

    try:
        return load_framework(path)
    except (OSError, ValueError, EOFError, pickle.UnpicklingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_collect(args) -> int:
    from .datasets import generate_runs
    from .datasets.runs_io import save_runs

    config = _config_for(args)
    runs = generate_runs(config, rng=args.seed, n_jobs=args.n_jobs)
    path = save_runs(runs, args.out)
    labels = sorted({r.label for r in runs})
    print(f"collected {len(runs)} runs on {config.name} "
          f"({len(config.catalog)} metrics, {config.duration}s @ 1 Hz)")
    print(f"labels: {labels}")
    print(f"saved to {path}")
    return 0


def _cmd_train(args) -> int:
    from .core import ALBADross, FrameworkConfig, save_framework

    runs = _read_runs(args.runs)
    if runs is None:
        return 2
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(runs))
    seed_runs, pool_runs, val_runs = [], [], []
    seen = set()
    for i in order:
        run = runs[i]
        key = (run.app, run.label)
        if key not in seen:
            seen.add(key)
            seed_runs.append(run)
        elif rng.random() < 0.25:
            val_runs.append(run)
        else:
            pool_runs.append(run)
    if not val_runs or not pool_runs:
        print("archive too small to split into seed/pool/validation", file=sys.stderr)
        return 2

    if args.warm_start and args.splitter != "hist":
        print("--warm-start requires --splitter hist", file=sys.stderr)
        return 2
    config = _config_for(args)
    framework = ALBADross(
        config.catalog,
        FrameworkConfig(
            feature_method=args.features,
            n_features=args.n_features,
            query_strategy=args.strategy,
            max_queries=args.max_queries,
            target_f1=args.target_f1,
            splitter=args.splitter,
            n_jobs=args.n_jobs,
            warm_start=args.warm_start,
            refresh_fraction=args.refresh_fraction,
            random_state=args.seed,
        ),
    )
    print(f"seed={len(seed_runs)} pool={len(pool_runs)} validation={len(val_runs)}")
    framework.fit_features(seed_runs + pool_runs)
    framework.fit_initial(seed_runs, [r.label for r in seed_runs])
    result = framework.learn(
        pool_runs, [r.label for r in pool_runs],
        val_runs, [r.label for r in val_runs],
    )
    print(f"active learning: F1 {result.initial_f1:.3f} -> {result.final_f1:.3f} "
          f"with {result.oracle.n_queries} annotator queries")
    path = save_framework(framework, args.out)
    print(f"model saved to {path}")
    return 0


def _cmd_diagnose(args) -> int:
    framework = _read_model(args.model)
    if framework is None:
        return 2
    runs = _read_runs(args.runs)
    if runs is None:
        return 2
    if args.limit is not None:
        runs = runs[: args.limit]
    for run, diag in zip(runs, framework.diagnose(runs)):
        print(f"{run.app:<12} deck={run.input_deck} node={run.node_id:<4} "
              f"-> {diag.label:<10} (confidence {diag.confidence:.2f})")
    return 0


def _cmd_evaluate(args) -> int:
    from .mlcore import (
        anomaly_miss_rate,
        classification_report,
        f1_score,
        false_alarm_rate,
    )

    framework = _read_model(args.model)
    if framework is None:
        return 2
    runs = _read_runs(args.runs)
    if runs is None:
        return 2
    truth = np.array([r.label for r in runs])
    pred = np.array([d.label for d in framework.diagnose(runs)])
    print(f"macro F1          : {f1_score(truth, pred):.3f}")
    print(f"false alarm rate  : {false_alarm_rate(truth, pred):.3f}")
    print(f"anomaly miss rate : {anomaly_miss_rate(truth, pred):.3f}")
    print()
    print(classification_report(truth, pred))
    return 0


def _cmd_info(args) -> int:
    from .anomalies import ANOMALIES
    from .apps import ECLIPSE_APPS, VOLTA_APPS
    from .telemetry import eclipse_catalog, volta_catalog

    if args.system == "volta":
        apps, catalog = VOLTA_APPS, volta_catalog()
    else:
        apps, catalog = ECLIPSE_APPS, eclipse_catalog()
    print(f"system: {args.system}")
    print(f"metrics: {len(catalog)} (full-scale catalog)")
    print("applications:")
    for name, app in sorted(apps.items()):
        print(f"  {name:<12} suite={app.suite:<10} inputs={app.n_inputs} "
              f"variation={app.run_variation}")
    print("anomalies:")
    for name in sorted(ANOMALIES):
        print(f"  {name}")
    return 0


def _cmd_registry(args) -> int:
    from .serving import ModelRegistry, RegistryError

    registry = ModelRegistry(args.root)
    try:
        if args.action == "list":
            versions = registry.list_versions()
            if not versions:
                print("registry is empty")
                return 0
            current = registry.current_id()
            for v in versions:
                marker = "*" if v.version_id == current else " "
                tag = v.tag or "-"
                print(f"{marker} {v.version_id}  tag={tag:<12} "
                      f"features={v.manifest.get('n_features')} "
                      f"fingerprint={v.manifest.get('train_fingerprint')}")
            return 0
        if args.action == "publish":
            if args.model is None:
                print("registry publish requires --model", file=sys.stderr)
                return 2
            framework = _read_model(args.model)
            if framework is None:
                return 2
            version = registry.publish(framework, tag=args.tag)
            print(f"published {version.version_id}"
                  + (f" (tag {version.tag})" if version.tag else ""))
            return 0
        if args.action == "rollback":
            version = registry.rollback(args.ref)
            print(f"current -> {version.version_id}")
            return 0
        # activate
        if args.ref is None:
            print("registry activate requires --ref", file=sys.stderr)
            return 2
        version = registry.activate(args.ref)
        print(f"current -> {version.version_id}")
        return 0
    except RegistryError as exc:
        print(f"registry error: {exc}", file=sys.stderr)
        return 2


def _cmd_serve_batch(args) -> int:
    from .serving import (
        CircuitBreaker,
        DiagnosisService,
        EscalationQueue,
        JobQueue,
        ModelRegistry,
        RegistryError,
        RetryPolicy,
        ServingError,
    )

    runs = _read_runs(args.runs)
    if runs is None:
        return 2
    if args.limit is not None:
        runs = runs[: args.limit]
    if args.retrain and not args.escalate:
        print("--retrain needs --escalate (nothing to learn from otherwise)",
              file=sys.stderr)
        return 2
    jobs = JobQueue(args.jobs_db) if args.jobs_db is not None else None
    escalation = (
        EscalationQueue(store=jobs) if (args.escalate or jobs is not None)
        else None
    )
    breaker = (
        CircuitBreaker(failure_threshold=args.degrade_after)
        if args.degrade_after is not None
        else None
    )
    retry = RetryPolicy(max_retries=args.retries) if args.retries > 0 else None
    service = DiagnosisService(
        ModelRegistry(args.registry),
        max_batch=args.max_batch,
        max_linger_s=args.linger_ms / 1000.0,
        escalation=escalation,
        default_deadline_s=(
            args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
        ),
        retry=retry,
        breaker=breaker,
        watchdog_stall_s=args.stall_timeout_s,
    )
    try:
        service.start(args.ref)
    except RegistryError as exc:
        print(f"registry error: {exc}", file=sys.stderr)
        return 2
    failures: dict[str, int] = {}
    with service:
        print(f"serving {service.version.version_id} "
              f"(fingerprint {service.version.manifest.get('train_fingerprint')})")
        # submit singly so the micro-batcher does the coalescing
        futures = [service.submit(run) for run in runs]
        diagnoses = []
        for f in futures:
            try:
                diagnoses.append(f.result())
            except ServingError as exc:
                kind = type(exc).__name__
                failures[kind] = failures.get(kind, 0) + 1
        if args.retrain:
            # the archive carries ground truth; label escalations with it
            version = service.retrain_and_publish(
                lambda item: item.run.label,
                tag="serve-batch-retrain",
                warm=args.warm_start,
            )
            if version is None:
                print("retrain: no escalations to learn from")
            else:
                mode = "warm" if service.stats.snapshot()["warm_refits"] else "cold"
                print(f"retrained ({mode}) and adopted {version.version_id}")
        health = service.health() if args.health else None
    labels: dict[str, int] = {}
    for d in diagnoses:
        labels[d.label] = labels.get(d.label, 0) + 1
    print(f"scored {len(diagnoses)} runs")
    for label, count in sorted(labels.items()):
        print(f"  {label:<12} {count}")
    for kind, count in sorted(failures.items()):
        print(f"  [failed] {kind:<12} {count}")
    snap = service.stats.snapshot()
    print("service stats:")
    for key in ("requests", "batches", "mean_batch_size",
                "mean_batch_latency_s", "cache_hits", "escalations",
                "retries", "deadline_drops", "watchdog_restarts",
                "degraded_responses", "failed_batches", "failed_requests",
                "model_swaps", "warm_refits"):
        value = snap[key]
        print(f"  {key:<22} {value:.4f}" if isinstance(value, float)
              else f"  {key:<22} {value}")
    print(f"  batch_size_histogram   {snap['batch_size_histogram']}")
    if escalation is not None:
        print(f"escalation queue depth: {len(escalation)} "
              f"(rate {escalation.escalation_rate:.2f})")
    if jobs is not None:
        print("job queue: " + "  ".join(
            f"{state}={n}" for state, n in jobs.counts().items()))
        jobs.close()
    if health is not None:
        print("health:")
        for key, value in health.items():
            shown = f"{value:.4f}" if isinstance(value, float) else value
            print(f"  {key:<22} {shown}")
    if args.stats_json is not None:
        _write_stats_json(args.stats_json, snap, health)
    return 0


def _write_stats_json(path: Path, stats: dict, health: dict | None) -> None:
    """Dump a machine-readable stats snapshot for external scrapers."""
    import json
    import time as _time

    doc = {"captured_at": _time.time(), "stats": stats}
    if health is not None:
        doc["health"] = health
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"stats snapshot written to {path}")


def _cmd_queue(args) -> int:
    from .serving import JobQueue, JobQueueError, JobState

    if args.action != "list" and args.db is not None and not args.db.exists():
        print(f"no job queue database at {args.db}", file=sys.stderr)
        return 2
    queue = JobQueue(args.db)
    try:
        if args.action == "list":
            counts = queue.counts()
            print("  ".join(f"{state}={n}" for state, n in counts.items()))
            jobs = queue.list_jobs(
                state=args.state, kind=args.kind, limit=args.limit
            )
            for job in jobs:
                err = f"  err={job.last_error}" if job.last_error else ""
                print(f"{job.job_id:>6}  {job.state:<8} {job.kind:<16} "
                      f"attempts={job.attempts}/{job.max_attempts}{err}")
            return 0
        if args.action == "inspect":
            if args.job_id is None:
                print("queue inspect requires --job-id", file=sys.stderr)
                return 2
            import json

            job = queue.get(args.job_id)
            doc = {
                "job_id": job.job_id, "kind": job.kind, "state": job.state,
                "attempts": job.attempts, "max_attempts": job.max_attempts,
                "not_before": job.not_before, "claim_worker": job.claim_worker,
                "visibility_deadline": job.visibility_deadline,
                "created_at": job.created_at, "updated_at": job.updated_at,
                "last_error": job.last_error,
                "payload_keys": sorted(job.payload),
            }
            print(json.dumps(doc, indent=2))
            return 0
        if args.action == "requeue":
            if args.job_id is None:
                print("queue requeue requires --job-id", file=sys.stderr)
                return 2
            job = queue.requeue(args.job_id)
            print(f"job {job.job_id} -> {job.state}")
            return 0
        # purge
        states = (args.state,) if args.state else (JobState.DONE,)
        removed = queue.purge(states)
        print(f"purged {removed} jobs in state(s) {', '.join(states)}")
        return 0
    except (JobQueueError, ValueError) as exc:
        print(f"queue error: {exc}", file=sys.stderr)
        return 2
    finally:
        queue.close()


def _cmd_lint(args) -> int:
    from .analysis import format_findings, run_lint, write_baseline

    paths = args.paths or ["src", "tests"]
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    try:
        report = run_lint(paths, root=".", rules=rules, baseline=args.baseline)
    except ValueError as exc:
        print(f"lint error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline is not None:
        findings = report["findings"] + report["baselined"]
        write_baseline(args.write_baseline, findings)
        print(f"wrote {len(findings)} findings to {args.write_baseline}")
        return 0
    print(format_findings(report, args.fmt))
    return 1 if (report["findings"] or report["errors"]) else 0


_COMMANDS = {
    "collect": _cmd_collect,
    "train": _cmd_train,
    "diagnose": _cmd_diagnose,
    "evaluate": _cmd_evaluate,
    "info": _cmd_info,
    "registry": _cmd_registry,
    "serve-batch": _cmd_serve_batch,
    "queue": _cmd_queue,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # stdout went away (e.g. `repro queue list | head`); not an error
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

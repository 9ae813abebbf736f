"""``serve_eclipse``: the production serving path, driven open loop.

Bench-serving templates (Volta apps CG/BT/Kripke, 96 s runs, 51 metrics,
MVTS, k=30, a 5-tree forest) are expanded by ``ReplayStream`` over
Eclipse's 1488 node ids. ``train_s`` is the fastest of repeated passes
training the served model, and ``setup_s`` the fastest of repeated
publish -> start -> ready sequences; both are sampled before the phases,
after each open-loop phase and at the end, as the host has slow spells of
seconds.
The run has four phases:

* ``low``   - open loop at 60 runs/s for 0.56 x ``--seconds``: batches of
  about one run, so the fixed per-batch cost dominates;
* ``high``  - open loop at 150 runs/s for 0.23 x ``--seconds``, well below
  saturation;
* retrain   - ten times: drain 10 escalations, annotate them with the
  template label, ``retrain_and_publish`` and hot-swap
  (``serving.retrain_s``, per layer);
* ``burst`` - one tick of all 1488 nodes submitted at once (capacity),
  repeated until ``--seconds`` is spent, at least twice; ``diagnose_rps``
  is the fastest burst's rate.

At 30 s each open-loop phase holds over 1000 requests, so its p99 has at
least ten samples beyond it. A request is timed from the moment it was
*due*, not when it was sent. The load generator is one thread beside the
service's dispatcher thread.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from common import (
    Outcome, diagnosis_key, digest, fastest, highest, median, pct, peak_rss_mb, span_metrics,
)

from repro.apps.volta_apps import VOLTA_APPS
from repro.core.config import FrameworkConfig
from repro.core.framework import ALBADross
from repro.datasets.generate import SystemConfig, generate_runs
from repro.mlcore.metrics import f1_score
from repro.serving.escalation import EscalationQueue
from repro.serving.registry import ModelRegistry
from repro.serving.replay import ECLIPSE_NODES, ReplayStream
from repro.serving.service import DiagnosisService
from repro.telemetry.catalog import build_catalog
from repro.telemetry.node import VOLTA_NODE

RATES = {"low": 60.0, "high": 150.0}
SHARES = {"low": 0.56, "high": 0.23}
# the repository's serving bench settings: 64-run micro-batches, and no
# result cache, so every request reaches the engine
SERVICE_OPTS = dict(max_batch=64, max_linger_s=0.002, cache_size=0)
SETUP_REPS = 4  # per sampling point
MIN_BURSTS = 2


@dataclass
class Sizes:
    healthy: int = 4
    anomalous: int = 3
    burst: int = ECLIPSE_NODES
    retrains: int = 10
    retrain_items: int = 10
    train_seconds: float = 0.5  # per sampling point


FULL = Sizes()
SMOKE = Sizes(healthy=2, anomalous=2, burst=96, retrains=5, retrain_items=1,
              train_seconds=0.0)


@dataclass
class Request:
    rid: int
    due: float
    run: object
    template: int
    sent: float = float("nan")
    done: float = float("nan")
    diagnosis: object = None
    error: str | None = None
    event: threading.Event = field(default_factory=threading.Event)


@dataclass
class Phase:
    name: str
    requests: list[Request]
    version: str = ""
    # (start, end, request ids, span id) of every batch the phase dispatched
    batches: list[tuple[float, float, list, int | None]] = field(default_factory=list)

    def resolved(self) -> tuple[list[Request], list[Request]]:
        """(ok, failed): requests whose future delivered a diagnosis, and
        those refused at submit or whose future raised."""
        done = [r for r in self.requests if r.event.is_set()]
        return [r for r in done if r.error is None], [r for r in done if r.error is not None]

    def latencies_ms(self) -> list[float]:
        return [1e3 * (r.done - r.due) for r in self.resolved()[0]]


def _on_done(req: Request, future) -> None:
    req.done = time.perf_counter()
    exc = future.exception()
    if exc is not None:
        req.error = type(exc).__name__
    else:
        req.diagnosis = future.result()
    req.event.set()


def _generate(service, requests: list[Request], rid_of: dict) -> None:
    """Open-loop sender: submit each request at its due time, never later
    than the schedule allows and never waiting for earlier replies."""
    for req in requests:
        delay = req.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        rid_of[id(req.run)] = req.rid
        req.sent = time.perf_counter()
        try:
            future = service.submit(req.run)
        except Exception as exc:  # a refused request counts as failed
            req.error = type(exc).__name__
            req.done = req.sent
            req.event.set()
            continue
        future.add_done_callback(partial(_on_done, req))


def _drive(service, phase: Phase, rid_of: dict, timeout_s: float) -> None:
    sender = threading.Thread(
        target=_generate, args=(service, phase.requests, rid_of), name="perfbench-loadgen"
    )
    sender.start()
    last_due = phase.requests[-1].due if phase.requests else time.perf_counter()
    sender.join(max(0.0, last_due - time.perf_counter()) + timeout_s)
    if sender.is_alive():
        raise RuntimeError(f"load generator stuck in phase {phase.name}")
    deadline = time.perf_counter() + timeout_s
    for req in phase.requests:
        if not req.event.wait(max(0.0, deadline - time.perf_counter())):
            break  # left unresolved: the census reports it


def _schedule(events, start: float, duration: float, rng) -> list[float]:
    """Independent nodes, each due once at a uniform offset in the phase."""
    if duration <= 0:
        return [start] * len(events)
    return list(start + np.sort(rng.uniform(0.0, duration, size=len(events))))


def _predict_wrapper(tracer, rid_of: dict, current: list):
    """Hook handed to ``DiagnosisService``: time each batch and note which
    requests it carried, for queue-wait / service-time accounting."""

    def wrap(predict):
        def traced(runs):
            rids = [rid_of.get(id(r)) for r in runs]
            start = time.perf_counter()
            try:
                with tracer.span("serving.batch", n=len(runs)) as span:
                    result = predict(runs)
                return result
            finally:
                current[0].batches.append(
                    (start, time.perf_counter(), rids, span.sid if span else None)
                )

        return traced

    return wrap


def _phase_layer(phase: Phase, tracer) -> dict[str, float]:
    name = phase.name
    reqs = phase.requests
    ok, _ = phase.resolved()
    ok_ids = {r.rid for r in ok}
    sent = [r for r in reqs if not math.isnan(r.sent)]
    lat = phase.latencies_ms()
    by_rid = {r.rid: r for r in reqs}
    waits, services, busy = [], [], 0.0
    for start, end, rids, sid in phase.batches:
        busy += end - start
        for rid in rids:
            req = by_rid.get(rid)
            if req is None:
                continue
            waits.append(1e3 * (start - req.due))
            services.append(1e3 * (end - start))
            if tracer is not None and sid is not None and rid in ok_ids:
                tracer.record("serving.request", req.due, req.done, parent=sid,
                              rid=rid, kind="wait")
    span = (max(r.done for r in ok) - min(r.due for r in reqs)) if ok else 0.0
    n_batches = len(phase.batches)
    return {
        f"serving.batches.{name}": float(n_batches),
        f"serving.batch_size.mean.{name}": (
            sum(len(b[2]) for b in phase.batches) / n_batches if n_batches else 0.0
        ),
        f"serving.queue_wait_ms.p50.{name}": median(waits),
        f"serving.queue_wait_ms.p99.{name}": pct(waits, 99),
        f"serving.service_ms.p50.{name}": median(services),
        f"serving.service_ms.p99.{name}": pct(services, 99),
        f"serving.busy_frac.{name}": busy / span if span > 0 else 0.0,
        f"lat_p50_ms.{name}": median(lat),
        f"lat_p99_ms.{name}": pct(lat, 99),
        f"lat.samples.{name}": float(len(lat)),
        f"loadgen.sent.{name}": float(len(sent)),
        f"loadgen.failed.{name}": float(len(sent) - len(ok)),
        f"loadgen.late_ms.max.{name}": max(
            (1e3 * (r.sent - r.due) for r in sent), default=0.0
        ),
    }


def _corpus(seed: int, sizes: Sizes):
    """Bench-serving runs in a seeded order: the first third trains the
    served model, the last third are the replay templates."""
    config = SystemConfig(
        name="bench-serving",
        apps={k: VOLTA_APPS[k] for k in ("CG", "BT", "Kripke")},
        catalog=build_catalog(n_cores=2, n_nics=1, n_extra_cray=4),
        node=VOLTA_NODE,
        intensities=(0.2, 1.0),
        duration=96,
        n_healthy_per_app_input=sizes.healthy,
        n_anomalous_per_app_anomaly=sizes.anomalous,
    )
    runs = generate_runs(config, rng=seed)
    order = np.random.default_rng([seed, 7]).permutation(len(runs))
    return config.catalog, [runs[i] for i in order]


def _train(catalog, runs) -> ALBADross:
    framework = ALBADross(
        catalog, FrameworkConfig(n_features=30, model_params={"n_estimators": 5})
    )
    framework.fit_features(runs)
    third = len(runs) // 3
    framework.fit_initial(runs[:third], [r.label for r in runs[:third]])
    return framework


def run(seed: int, seconds: float, tracer, work_dir: Path, smoke: bool) -> Outcome:
    sizes = SMOKE if smoke else FULL
    out = Outcome()
    catalog, runs = _corpus(seed, sizes)
    templates = runs[2 * (len(runs) // 3):]
    run_start = time.perf_counter()
    trains: list[float] = []

    def train_passes() -> ALBADross:
        # one pass takes about a third of a second and is deterministic,
        # so every pass builds the same model
        framework = None
        deadline = time.perf_counter() + sizes.train_seconds
        while framework is None or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            framework = _train(catalog, runs)
            trains.append(time.perf_counter() - t0)
        return framework

    framework = train_passes()
    template_of = {id(t.data): i for i, t in enumerate(templates)}
    rng = np.random.default_rng([seed, 11])
    rid_of: dict[int, int] = {}
    current: list[Phase] = [Phase("setup", [])]
    trace = tracer is not None
    if trace:
        tracer.enabled = True

    services: list[DiagnosisService] = []
    checked: list[Phase] = []
    setups: list[float] = []

    def start_service() -> tuple[ModelRegistry, DiagnosisService]:
        """Publish, start, ready: one set-up sequence on a fresh registry."""
        t0 = time.perf_counter()
        registry = ModelRegistry(work_dir / f"registry-{len(setups)}")
        registry.publish(framework, tag="bench-serving")
        service = DiagnosisService(
            registry,
            escalation=EscalationQueue(),
            predict_wrapper=_predict_wrapper(tracer, rid_of, current) if trace else None,
            **SERVICE_OPTS,
        )
        services.append(service)
        service.start()
        while not service.ready():
            if time.perf_counter() - t0 > 30:
                raise RuntimeError("service never became ready")
            time.sleep(0.0005)
        setups.append(time.perf_counter() - t0)
        return registry, service

    def sample_costs() -> None:
        """More training passes and set-ups, untraced, beside the serving
        service (idle between phases)."""
        if trace:
            was, tracer.enabled = tracer.enabled, False
        train_passes()
        for _ in range(SETUP_REPS):
            start_service()[1].stop()
        if trace:
            tracer.enabled = was

    try:
        # -- set-up; the last service started serves ---------------------
        for i in range(SETUP_REPS):
            registry, service = start_service()
            if i < SETUP_REPS - 1:
                service.stop()

        # -- open-loop phases at a low and a high rate --------------------
        next_rid = 0

        def make_phase(name: str, n_events: int, duration: float, stream_seed: int) -> Phase:
            nonlocal next_rid
            per_tick = min(n_events, ECLIPSE_NODES)
            ticks = -(-n_events // per_tick)
            stream = ReplayStream(templates, n_nodes=ECLIPSE_NODES, ticks=ticks,
                                  emit_per_tick=per_tick, seed=stream_seed)
            events = list(stream.events())[:n_events]
            dues = _schedule(events, time.perf_counter() + 0.05, duration, rng)
            reqs = []
            for ev, due in zip(events, dues):
                reqs.append(Request(next_rid, due, ev.run, template_of[id(ev.run.data)]))
                next_rid += 1
            return Phase(name, reqs)

        phases: dict[str, Phase] = {}
        for name in ("low", "high"):
            duration = SHARES[name] * seconds
            n = max(1, round(RATES[name] * duration))
            phase = make_phase(name, n, duration, seed * 10 + len(phases))
            phase.version = service.version.version_id
            current[0] = phase
            _drive(service, phase, rid_of, timeout_s=60.0)
            phases[name] = phase
            checked.append(phase)
            sample_costs()

        # -- retrain: drained escalations -> new version serving ---------
        current[0] = Phase("retrain", [])
        retrains = []
        out.check(len(service.escalation) >= sizes.retrains * sizes.retrain_items,
                  f"only {len(service.escalation)} escalations to retrain on")
        for i in range(sizes.retrains):
            t0 = time.perf_counter()
            version = service.retrain_and_publish(
                lambda item: item.run.label, tag=f"retrain-{i}",
                max_items=sizes.retrain_items,
            )
            retrains.append(time.perf_counter() - t0)
            out.check(version is not None and service.version.version_id == version.version_id,
                      "retrain did not put a new version into service")

        # -- burst: every node at once, the same tick each time -----------
        def burst() -> tuple[Phase, float]:
            phase = make_phase("burst", sizes.burst, 0.0, seed * 10 + 5)
            phase.version = service.version.version_id
            current[0] = phase
            t0 = time.perf_counter()
            _drive(service, phase, rid_of, timeout_s=120.0)
            checked.append(phase)
            ok, _ = phase.resolved()
            wall = max(r.done for r in ok) - phase.requests[0].due if ok else float("inf")
            bursts.append(time.perf_counter() - t0)
            return phase, len(ok) / wall

        bursts: list[float] = []
        if trace:
            # untraced, traced, untraced: the traced burst's rate against
            # the mean of its neighbours estimates the tracer's overhead
            tracer.enabled = False
            _, before = burst()
            tracer.enabled = True
            phases["burst"], traced_rps = burst()
            tracer.enabled = False
            _, after = burst()
            burst_rates = [before, after]
        else:
            burst_rates = []
            while len(burst_rates) < MIN_BURSTS or (
                time.perf_counter() - run_start + median(bursts) / 2 <= seconds
            ):
                phases["burst"], rate = burst()
                burst_rates.append(rate)

        service.stop()
        sample_costs()
    finally:
        for s in services:
            s.stop()
        if trace:
            tracer.enabled = False

    # -- output checks: census, bitwise parity with the offline path -----
    reference: dict[str, list] = {}
    for phase in checked:
        if phase.version not in reference:
            fw, _ = registry.load(phase.version)
            reference[phase.version] = [
                diagnosis_key(d) for d in fw.predict_features(fw.featurize(templates))
            ]
        ref = reference[phase.version]
        ok, failed = phase.resolved()
        n_sent = sum(not math.isnan(r.sent) for r in phase.requests)
        mismatched = sum(diagnosis_key(r.diagnosis) != ref[r.template] for r in ok)
        out.attempted += len(phase.requests)
        out.failed += len(phase.requests) - len(ok)
        out.check(n_sent == len(phase.requests),
                  f"{phase.name}: sent {n_sent} of {len(phase.requests)} scheduled requests")
        out.check(n_sent == len(ok) + len(failed),
                  f"{phase.name}: sent {n_sent} != ok {len(ok)} + failed {len(failed)}")
        out.check(not failed, f"{phase.name}: {len(failed)} requests failed")
        out.check(mismatched == 0,
                  f"{phase.name}: {mismatched} served diagnoses differ from the offline path")
    out.digest = digest(*(
        (p.name, [diagnosis_key(r.diagnosis) for r in p.resolved()[0]])
        for p in phases.values()
    ))
    burst_reqs = phases["burst"].resolved()[0]
    served_f1 = float(f1_score(np.array([r.run.label for r in burst_reqs]),
                               np.array([r.diagnosis.label for r in burst_reqs]),
                               average="macro")) if burst_reqs else 0.0

    out.samples = {"setup_s": setups, "train_s": trains, "diagnose_rps": burst_rates}
    out.e2e = {
        "setup_s": fastest(setups),
        "train_s": fastest(trains),
        "diagnose_rps": highest(burst_rates),
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        for phase in phases.values():
            out.layer.update(_phase_layer(phase, tracer))
        out.layer.update(span_metrics(tracer, per=1))
        out.layer["features.kept_frac"] = (
            len(framework.selector.support_) / int(framework.extractor.keep_mask_.sum())
        )
        out.layer["registry.model_bytes"] = float(
            registry.resolve("current").model_path.stat().st_size
        )
        out.layer["serving.retrain_s"] = median(retrains)
        out.layer["quality.final_f1"] = served_f1
        out.layer["trace.overhead_frac"] = (before + after) / 2 / traced_rps - 1.0
    return out

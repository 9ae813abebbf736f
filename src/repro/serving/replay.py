"""Deterministic Eclipse-scale replay harness for the serving path.

The paper's production system (Eclipse) is 1488 compute nodes emitting
telemetry at 1 Hz. This module replays that shape against a
:class:`~repro.serving.service.DiagnosisService` (or anything with a
``submit(run) -> Future``), deterministically:

* a :class:`ReplayStream` expands a small pool of template runs into a
  per-tick event schedule over ``n_nodes`` synthetic node ids, with the
  emitting nodes and template choices drawn from per-tick
  ``numpy`` seed streams, so two arms replay the *identical* event
  sequence (the replay parity tests depend on this);
* :func:`replay` drives the events through ``submit()`` (as a live
  monitoring pipeline would), timestamps every future at completion, and
  reports sustained runs/sec plus p50/p99 end-to-end latency and a typed
  failure census — every accepted future resolves, so the census is
  exhaustive.

Faults go in through the service's ``predict_wrapper`` hook: wrap the
scorer in a :class:`~repro.testing.faults.FaultInjector` to replay
seeded stalls, hangs and crashes.

The stream replays *as fast as the engine absorbs it* rather than in
wall-clock 1 Hz pacing: the number the capacity question needs is how
many node-seconds of telemetry the service can sustain per second of
compute, which only shows up under saturation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Iterator, Sequence

import numpy as np

from ..telemetry.collector import RunRecord

__all__ = [
    "ECLIPSE_NODES",
    "ReplayEvent",
    "ReplayStream",
    "ReplayReport",
    "replay",
]

ECLIPSE_NODES = 1488
"""Eclipse's production scale: compute nodes emitting 1 Hz telemetry."""


@dataclass(frozen=True)
class ReplayEvent:
    """One node's emission at one tick of the synthetic clock."""

    tick: int
    node_id: int
    run: RunRecord


class ReplayStream:
    """Deterministic node/tick schedule over a pool of template runs.

    Parameters
    ----------
    templates:
        Real (or synthetic) runs to replay; each event clones one with
        the emitting ``node_id`` patched in, so fingerprints — and hence
        routing and cache behavior — are per-node, while the telemetry
        content stays drawn from a realistic pool.
    n_nodes:
        Compute nodes in the system; defaults to Eclipse's 1488.
    ticks:
        Synthetic seconds of 1 Hz stream to schedule.
    emit_per_tick:
        Nodes emitting per tick (``None`` = all of them, the saturation
        default).
    seed:
        Schedule seed. The event sequence is a pure function of
        ``(templates, n_nodes, ticks, emit_per_tick, seed)`` — two
        streams built alike yield byte-identical runs in identical
        order.
    """

    def __init__(
        self,
        templates: Sequence[RunRecord],
        n_nodes: int = ECLIPSE_NODES,
        ticks: int = 3,
        emit_per_tick: int | None = None,
        seed: int = 0,
    ):
        if not templates:
            raise ValueError("need at least one template run")
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if ticks < 1:
            raise ValueError(f"ticks must be >= 1, got {ticks}")
        if emit_per_tick is not None and not 1 <= emit_per_tick <= n_nodes:
            raise ValueError(
                f"emit_per_tick must be in [1, {n_nodes}], got {emit_per_tick}"
            )
        self.templates = list(templates)
        self.n_nodes = n_nodes
        self.ticks = ticks
        self.emit_per_tick = emit_per_tick
        self.seed = seed

    def __len__(self) -> int:
        per_tick = self.emit_per_tick or self.n_nodes
        return per_tick * self.ticks

    def events(self) -> Iterator[ReplayEvent]:
        """Yield the schedule tick by tick, node order randomized per tick."""
        for tick in range(self.ticks):
            # per-tick seed stream keyed by (seed, tick): the schedule is
            # identical however many arms replay it, and extending ticks
            # never perturbs earlier ones
            rng = np.random.default_rng([self.seed, tick])
            if self.emit_per_tick is None:
                nodes = rng.permutation(self.n_nodes)
            else:
                nodes = rng.choice(
                    self.n_nodes, size=self.emit_per_tick, replace=False
                )
            picks = rng.integers(0, len(self.templates), size=len(nodes))
            for node_id, pick in zip(nodes, picks):
                template = self.templates[int(pick)]
                yield ReplayEvent(
                    tick=tick,
                    node_id=int(node_id),
                    run=dc_replace(template, node_id=int(node_id)),
                )


@dataclass
class ReplayReport:
    """What one replay arm did: volume, throughput, latency, failures."""

    n_events: int = 0
    n_ok: int = 0
    n_failed: int = 0
    wall_s: float = 0.0
    sustained_rps: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    failures: dict = field(default_factory=dict)
    diagnoses: list = field(default_factory=list)

    def as_json(self) -> dict:
        """The benchmark-artifact view (drops the raw diagnoses)."""
        return {
            "n_events": self.n_events,
            "n_ok": self.n_ok,
            "n_failed": self.n_failed,
            "wall_s": round(self.wall_s, 4),
            "sustained_rps": round(self.sustained_rps, 1),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "failures": dict(sorted(self.failures.items())),
        }


def replay(
    service,
    stream: ReplayStream,
    on_tick: Callable[[int], None] | None = None,
    result_timeout_s: float = 60.0,
    keep_diagnoses: bool = False,
) -> ReplayReport:
    """Drive a stream through ``service.submit`` and census the outcome.

    ``service`` is anything with ``submit(run) -> Future``, such as a
    :class:`~repro.serving.service.DiagnosisService`. Latency is
    measured per request from submit to future completion (the number a
    node's monitoring agent would see). ``on_tick(tick)`` fires before
    each tick — the chaos hook benchmarks use to restart the dispatcher
    mid-replay.

    Every accepted future resolves (the engine invariant), so
    ``n_ok + n_failed == n_events`` — nothing is silently lost.
    """
    report = ReplayReport()
    submitted: list[tuple] = []  # (future, t_submit, box) ; box <- t_done
    t_start = time.perf_counter()
    current_tick = -1
    for event in stream.events():
        if event.tick != current_tick:
            current_tick = event.tick
            if on_tick is not None:
                on_tick(current_tick)
        report.n_events += 1
        t_submit = time.perf_counter()
        box: list[float] = []
        try:
            future = service.submit(event.run)
        except Exception as exc:
            report.n_failed += 1
            kind = type(exc).__name__
            report.failures[kind] = report.failures.get(kind, 0) + 1
            continue
        future.add_done_callback(
            lambda _f, b=box: b.append(time.perf_counter())
        )
        submitted.append((future, t_submit, box))
    latencies: list[float] = []
    deadline = time.monotonic() + result_timeout_s
    for future, t_submit, box in submitted:
        remaining = max(0.05, deadline - time.monotonic())
        try:
            diagnosis = future.result(timeout=remaining)
        except Exception as exc:
            report.n_failed += 1
            kind = type(exc).__name__
            report.failures[kind] = report.failures.get(kind, 0) + 1
            continue
        report.n_ok += 1
        if keep_diagnoses:
            report.diagnoses.append(diagnosis)
        if box:
            latencies.append(box[0] - t_submit)
    report.wall_s = time.perf_counter() - t_start
    report.sustained_rps = (
        report.n_ok / report.wall_s if report.wall_s > 0 else 0.0
    )
    if latencies:
        lat_ms = np.asarray(latencies) * 1000.0
        report.p50_ms = float(np.percentile(lat_ms, 50))
        report.p99_ms = float(np.percentile(lat_ms, 99))
    return report

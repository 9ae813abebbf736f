"""Metric catalogue, summary statistics and span-derived layer metrics.

Every workload reports every metric named here: ``END_TO_END`` in an
untraced run (``--trace 0``), ``PER_LAYER`` in a traced one
(``--trace 1``). A layer a workload never calls reads 0 in its traced
run. ``BENCHMARK.json`` at the repository root lists the same names and
units; ``perfbench/selftest.py`` checks that the two agree.
"""

from __future__ import annotations

import hashlib
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from tracer import LAYERS, Tracer

PHASES = ("low", "high", "burst")

# name, unit, better
END_TO_END: list[tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("diagnose_rps", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER: list[tuple[str, str, str]] = [
    *(
        metric
        for phase in PHASES
        for metric in (
            (f"serving.batches.{phase}", "count", "lower"),
            (f"serving.batch_size.mean.{phase}", "count", "higher"),
            (f"serving.queue_wait_ms.p50.{phase}", "ms", "lower"),
            (f"serving.queue_wait_ms.p99.{phase}", "ms", "lower"),
            (f"serving.service_ms.p50.{phase}", "ms", "lower"),
            (f"serving.service_ms.p99.{phase}", "ms", "lower"),
            (f"serving.busy_frac.{phase}", "frac", "lower"),
            (f"lat_p50_ms.{phase}", "ms", "lower"),
            (f"lat_p99_ms.{phase}", "ms", "lower"),
            (f"lat.samples.{phase}", "count", "higher"),
            (f"loadgen.sent.{phase}", "count", "higher"),
            (f"loadgen.failed.{phase}", "count", "lower"),
            (f"loadgen.late_ms.max.{phase}", "ms", "lower"),
        )
    ),
    ("serving.retrain_s", "s", "lower"),
    ("core.featurize_ms.p50", "ms", "lower"),
    ("core.predict_ms.p50", "ms", "lower"),
    ("core.fit_features_s", "s", "lower"),
    ("core.fit_initial_s", "s", "lower"),
    ("core.learn_s", "s", "lower"),
    ("core.diagnose_s", "s", "lower"),
    ("core.absorb_s", "s", "lower"),
    ("features.extract_s", "s", "lower"),
    ("features.runs_extracted", "count", "lower"),
    ("features.ms_per_run", "ms", "lower"),
    ("features.extract_reuse", "frac", "higher"),
    ("features.kept_frac", "frac", "higher"),
    ("mlcore.scale_ms", "ms", "lower"),
    ("mlcore.select_ms", "ms", "lower"),
    ("mlcore.predict_proba_ms", "ms", "lower"),
    ("mlcore.fits", "count", "lower"),
    ("mlcore.fit_s", "s", "lower"),
    ("mlcore.refits", "count", "lower"),
    ("mlcore.refit_s", "s", "lower"),
    ("active.rounds", "count", "higher"),
    ("active.query_ms.p50", "ms", "lower"),
    ("active.teach_ms.p50", "ms", "lower"),
    ("active.teach_ms.p95", "ms", "lower"),
    ("active.eval_ms.p50", "ms", "lower"),
    ("registry.publish_ms", "ms", "lower"),
    ("registry.load_ms", "ms", "lower"),
    ("registry.model_bytes", "bytes", "lower"),
    ("escalation.offered", "count", "higher"),
    ("escalation.escalated", "count", "lower"),
    ("escalation.rate", "frac", "lower"),
    *((f"self_s.{layer}", "s", "lower") for layer in LAYERS),
    ("quality.final_f1", "f1", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs checked out."""

    e2e: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name, _, _ in PER_LAYER}
    )
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    # every repeated sample behind an end-to-end figure, for diagnostics
    samples: dict[str, list[float]] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def pct(values, q: float) -> float:
    """``q``-th percentile of ``values`` (0.0 for an empty sample)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values) -> float:
    return pct(values, 50)


def fastest(values) -> float:
    """Best of repeated timings. The host has slow spells that only ever
    add time, so the minimum is the steadiest estimate of the work's own
    cost; a rate takes the maximum for the same reason."""
    return float(min(values))


def highest(values) -> float:
    return float(max(values))


def time_per_call(make, group: int, seconds: float) -> list[float]:
    """Samples of the mean time of one ``make()`` call, each timed as a
    group of ``group`` calls in one total, taken for ``seconds`` (at least
    one). A group's results stay alive until it ends, so each call
    allocates fresh memory as a real one would."""
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        built = [make() for _ in range(group)]
        samples.append((time.perf_counter() - t0) / group)
        del built
    return samples


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(*parts) -> str:
    """SHA-256 over arrays (raw bytes) and other values (repr)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def diagnosis_key(diagnosis) -> tuple[str, str]:
    """A diagnosis as (label, exact float hex) for bitwise comparison."""
    return diagnosis.label, float(diagnosis.confidence).hex()


def span_metrics(tracer: Tracer, per: int) -> dict[str, float]:
    """Layer metrics from recorded spans; totals are divided by ``per``
    (the number of traced repetitions), percentiles are per call."""
    spans = tracer.spans
    by_id = {s.sid: s for s in spans}
    by_name: dict[str, list] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def ms(name: str) -> list[float]:
        return [1e3 * s.duration for s in by_name[name]]

    def total_s(name: str) -> float:
        return sum(s.duration for s in by_name[name]) / per

    def ancestors(span):
        while span.parent is not None and span.parent in by_id:
            span = by_id[span.parent]
            yield span

    out: dict[str, float] = {
        "core.featurize_ms.p50": median(ms("core.featurize")),
        "core.predict_ms.p50": median(ms("core.predict_features")),
    }
    for step in ("fit_features", "fit_initial", "learn", "diagnose", "absorb"):
        out[f"core.{step}_s"] = total_s(f"core.{step}")

    extracts = by_name["features.extract"]
    n_runs = sum(s.attrs.get("n", 0) for s in extracts)
    distinct = {i for s in extracts for i in s.attrs.get("ids", ())}
    out["features.extract_s"] = total_s("features.extract")
    out["features.runs_extracted"] = n_runs / per
    out["features.ms_per_run"] = (
        1e3 * sum(s.duration for s in extracts) / n_runs if n_runs else 0.0
    )
    out["features.extract_reuse"] = len(distinct) * per / n_runs if n_runs else 0.0

    out["mlcore.scale_ms"] = median(ms("mlcore.scale"))
    out["mlcore.select_ms"] = median(ms("mlcore.select"))
    out["mlcore.predict_proba_ms"] = median(ms("mlcore.predict_proba"))
    # count a hist fit (fit -> fit_binned) once; a fit under a teach or an
    # absorb retrains on new labels, as does every warm refit
    fits = [
        s for s in by_name["mlcore.fit"]
        if not any(a.name == "mlcore.fit" for a in ancestors(s))
    ]
    refits = [
        s for s in fits
        if any(a.name in ("active.teach", "core.absorb") for a in ancestors(s))
    ] + by_name["mlcore.refit"]
    out["mlcore.fits"] = len(fits) / per
    out["mlcore.fit_s"] = sum(s.duration for s in fits) / per
    out["mlcore.refits"] = len(refits) / per
    out["mlcore.refit_s"] = sum(s.duration for s in refits) / per

    out["active.rounds"] = len(by_name["active.teach"]) / per
    out["active.query_ms.p50"] = median(ms("active.query"))
    out["active.teach_ms.p50"] = median(ms("active.teach"))
    out["active.teach_ms.p95"] = pct(ms("active.teach"), 95)
    out["active.eval_ms.p50"] = median(ms("active.eval"))

    out["registry.publish_ms"] = median(ms("registry.publish"))
    out["registry.load_ms"] = median(ms("registry.load"))

    offers = by_name["escalation.offer"]
    escalated = sum(1 for s in offers if s.attrs.get("escalated"))
    out["escalation.offered"] = len(offers) / per
    out["escalation.escalated"] = escalated / per
    out["escalation.rate"] = escalated / len(offers) if offers else 0.0

    for layer, seconds in tracer.self_time_by_layer().items():
        out[f"self_s.{layer}"] = seconds / per
    out["trace.spans"] = len(spans) / per
    return out

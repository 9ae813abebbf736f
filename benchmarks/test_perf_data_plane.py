"""Performance benchmark for the parallel deterministic data plane.

Measures the PR's two claims and records them in
``BENCH_data_plane.json`` at the repository root:

* ``build_dataset`` end to end (campaign generation + feature
  extraction) serial vs 4 workers, for both MVTS and TSFRESH — with the
  output matrices asserted *bit-identical* between the arms, because the
  seed-streamed data plane trades zero reproducibility for its speed;
* run-batched extraction (``extraction_batched_*``): one preprocess +
  kernel pass per run-length group over the whole corpus vs the
  historical one-pass-per-run loop, bit-identical outputs asserted and
  the speedup gated ≥ 1.5x at smoke (short-run, serving-shaped) scale —
  pure dispatch-overhead amortization, independent of core count; the
  long-run full profile records its smaller speedup honestly;
* the TSFRESH vectorization: the whole-matrix approximate-entropy kernel
  (one boolean close tensor per column block) vs the per-column float
  Chebyshev oracle in ``tests/features/oracles.py``, on a single
  preprocessed run matrix;
* selection pushdown (``featurize_pushdown``): a serving-shaped 64-run
  micro-batch through ``ALBADross.featurize``, which extracts only the
  metric columns the selected features read, vs the full extract ->
  scale -> select oracle; bit-identical outputs asserted and the speedup
  gated >= 3x at smoke scale.
* read-set diagnosis (``diagnose_read_set``): ``ALBADross.diagnose`` on
  a TSFRESH forest, which extracts only the selected features the trees
  split on, vs the k-wide ``featurize`` -> ``predict_features`` path;
  bit-identical diagnoses asserted, timings recorded, no speedup gate.

Timing protocol mirrors ``test_perf_train_core.py``: this box throttles
under sustained load, so competing configs are *interleaved* and each
reported number is the median over reps.

Parallel speedup is recorded alongside the *effective* CPU count (the
affinity mask, not the machine) and only asserted (≥3x at 4 workers)
when the mask actually offers ≥4 cores and the full profile is running.
On any box the parallel arm must stay within 5% of serial (speedup
≥ 0.95x): ``repro.parallel.map_blocks`` keeps work in-process when the
mask has one core or a fan-out would save less than the pool's round
trip, and ships work through shared memory otherwise, so ``n_jobs``
must never be a slowdown.

``DATA_PLANE_PROFILE=smoke`` shrinks the campaign for CI; the smoke
numbers gate regressions against ``benchmarks/baselines/`` via
``DATA_PLANE_BASELINE=<path>`` (fail when >2x slower than the committed
baseline).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.apps.volta_apps import VOLTA_APPS
from repro.core.config import FrameworkConfig
from repro.core.framework import ALBADross
from repro.datasets.generate import SystemConfig, build_dataset, generate_runs
from repro.features.mvts import extract_mvts
from repro.features.pipeline import batched_feature_rows, preprocess_run
from repro.parallel import effective_cpu_count
from repro.features.tsfresh_lite import _approx_entropy_matrix, extract_tsfresh
from repro.telemetry.catalog import build_catalog
from repro.telemetry.collector import Collector
from repro.telemetry.corpus import RunCorpus, plan_length_groups
from repro.telemetry.node import VOLTA_NODE
from tests.features.oracles import approx_entropy_column

PROFILE = os.environ.get("DATA_PLANE_PROFILE", "full")
SMOKE = PROFILE == "smoke"

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_data_plane.json"

# an even rep count keeps the arm-order alternation balanced (each arm
# runs first in half the reps); 4 reps tame the noise on ~100ms smoke
# measurements that the 0.95 overhead gate compares
REPS = 4
N_WORKERS = 4


def _campaign() -> SystemConfig:
    """The benchmark campaign (bench-scale in full profile)."""
    app_names = ("CG", "BT") if SMOKE else ("CG", "BT", "Kripke", "MiniMD")
    return SystemConfig(
        name="bench-data-plane",
        apps={k: VOLTA_APPS[k] for k in app_names},
        catalog=build_catalog(
            n_cores=1 if SMOKE else 4,
            n_nics=1,
            n_extra_cray=2 if SMOKE else 8,
        ),
        node=VOLTA_NODE,
        intensities=(0.2, 1.0),
        duration=64 if SMOKE else 240,
        n_healthy_per_app_input=2 if SMOKE else 6,
        n_anomalous_per_app_anomaly=2 if SMOKE else 6,
    )


def _update_results(section: str, payload: dict) -> None:
    """Merge one bench section into the repo-root JSON artifact."""
    doc = {}
    if RESULT_PATH.exists():
        doc = json.loads(RESULT_PATH.read_text())
    doc.setdefault("schema", "data_plane/v1")
    doc["profile"] = PROFILE
    doc["cpu_count"] = os.cpu_count()
    doc["effective_cpu_count"] = effective_cpu_count()
    doc[section] = payload
    RESULT_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\n=== {section} ===\n{json.dumps(payload, indent=2)}")


def _build_seconds(config, method, n_jobs):
    t0 = time.perf_counter()
    ds, _ = build_dataset(config, method=method, rng=0, n_jobs=n_jobs)
    return time.perf_counter() - t0, ds


class TestBuildDataset:
    def _bench_method(self, method: str) -> dict:
        config = _campaign()
        times: dict[str, list[float]] = {"serial": [], "parallel": []}
        jobs = {"serial": 1, "parallel": N_WORKERS}
        results: dict[str, object] = {}
        for rep in range(REPS):
            # alternate arm order: the box throttles under sustained
            # load, so whichever arm runs second in a rep measures hot —
            # alternating debiases the medians
            order = ("serial", "parallel") if rep % 2 == 0 else ("parallel", "serial")
            for arm in order:
                t, ds = _build_seconds(config, method, n_jobs=jobs[arm])
                times[arm].append(t)
                results[arm] = ds
        ref, par = results["serial"], results["parallel"]
        # the whole point: parallelism must not move a single bit
        assert np.array_equal(ref.X, par.X)
        assert np.array_equal(ref.labels, par.labels)
        assert np.array_equal(ref.apps, par.apps)
        assert ref.feature_names == par.feature_names
        med = {name: float(np.median(ts)) for name, ts in times.items()}
        speedup = med["serial"] / med["parallel"]
        payload = {
            "n_runs": len(ref),
            "n_features": int(ref.X.shape[1]),
            "reps": REPS,
            "serial_s": round(med["serial"], 4),
            "parallel_4w_s": round(med["parallel"], 4),
            "speedup_4w": round(speedup, 2),
            "bit_identical": True,
            "note": (
                "speedup is bounded by the affinity mask; on a one-core "
                "mask, and for work too small to repay the process pool, "
                "the parallel arm runs in-process, so it stays within "
                "noise of serial instead of paying spawn/pickle overhead"
            ),
        }
        _update_results(f"build_dataset_{method}", payload)
        # parallelism must never be a slowdown: whatever the core count,
        # the 4-worker arm stays within 5% of serial
        assert speedup >= 0.95, (
            f"parallel overhead: {method} 4-worker arm is "
            f"{1 / speedup:.2f}x serial"
        )
        if not SMOKE and effective_cpu_count() >= N_WORKERS:
            assert speedup >= 3.0
        return payload

    def test_mvts_end_to_end(self):
        payload = self._bench_method("mvts")
        assert payload["serial_s"] > 0

    def test_tsfresh_end_to_end(self):
        payload = self._bench_method("tsfresh")
        assert payload["serial_s"] > 0


class TestExtractionBatched:
    """One kernel pass per corpus vs one per run — same bytes, less tax.

    The per-run arm is the historical per-run extraction loop: every run
    pays the full fixed overhead of hundreds of numpy/scipy dispatches.
    The batched arm hstacks each run-length group into a ``(T, B*M)``
    panel and preprocesses + extracts once per group. The win is pure
    dispatch-overhead amortization, so it owes nothing to core count —
    but it *does* shrink as runs get longer (the O(T^2) approx-entropy
    arithmetic swamps the fixed dispatch cost). The ≥1.5x gate therefore
    binds in the smoke profile, whose short runs mirror the serving
    micro-batch regime the batched path exists for; the long-run full
    profile records its (smaller) speedup honestly and only asserts
    batching is never a slowdown.
    """

    _EXTRACT = {"mvts": extract_mvts, "tsfresh": extract_tsfresh}

    def _bench_method(self, method: str) -> dict:
        config = _campaign()
        corpus = RunCorpus.from_records(generate_runs(config, rng=0))
        mask = config.catalog.counter_mask
        extract = self._EXTRACT[method]

        def per_run() -> np.ndarray:
            return np.vstack([
                extract(preprocess_run(corpus.run_data(i), mask))
                for i in range(len(corpus))
            ])

        def batched() -> np.ndarray:
            return batched_feature_rows(
                corpus.buffer, corpus.offsets, mask, (0.08, 0.06), method
            )

        arms = {"per_run": per_run, "batched": batched}
        times: dict[str, list[float]] = {name: [] for name in arms}
        results: dict[str, np.ndarray] = {}
        for rep in range(REPS):
            order = ("per_run", "batched") if rep % 2 == 0 else ("batched", "per_run")
            for arm in order:
                t0 = time.perf_counter()
                results[arm] = arms[arm]()
                times[arm].append(time.perf_counter() - t0)
        # batching must not move a single bit
        assert np.array_equal(results["per_run"], results["batched"])
        med = {name: float(np.median(ts)) for name, ts in times.items()}
        speedup = med["per_run"] / med["batched"]
        payload = {
            "n_runs": len(corpus),
            "n_metrics": corpus.n_metrics,
            "n_panel_groups": len(
                plan_length_groups(corpus.lengths, corpus.n_metrics)
            ),
            "reps": REPS,
            "per_run_s": round(med["per_run"], 4),
            "batched_s": round(med["batched"], 4),
            "speedup": round(speedup, 2),
            "bit_identical": True,
            "note": (
                "pure kernel-dispatch amortization: runs of equal length "
                "share one preprocess + extraction pass, so the speedup "
                "holds on any box regardless of core count; it shrinks "
                "with run length as per-run arithmetic amortizes the "
                "dispatch cost itself"
            ),
        }
        _update_results(f"extraction_batched_{method}", payload)
        if SMOKE:
            assert speedup >= 1.5, (
                f"batched {method} extraction only {speedup:.2f}x the "
                "per-run arm at smoke (short-run) scale"
            )
        else:
            assert speedup >= 0.95, (
                f"batched {method} extraction is a slowdown at full "
                f"scale: {speedup:.2f}x"
            )
        return payload

    def test_mvts_extraction_batched(self):
        payload = self._bench_method("mvts")
        assert payload["batched_s"] > 0

    def test_tsfresh_extraction_batched(self):
        payload = self._bench_method("tsfresh")
        assert payload["batched_s"] > 0


class TestTsfreshVectorization:
    def test_approx_entropy_matrix_vs_column_loop(self):
        """Single-run extraction: whole-matrix ApEn vs the per-column oracle."""
        config = _campaign()
        collector = Collector(config.catalog, config.node, config.missing_rate)
        app = next(iter(config.apps.values()))
        run = collector.collect(
            app,
            input_deck=0,
            duration=config.duration,
            node_count=config.node_counts[0],
            rng=np.random.default_rng(0),
        )
        X = preprocess_run(run.data, config.catalog.counter_mask)

        times: dict[str, list[float]] = {"matrix": [], "column_loop": []}
        vec = ref = None
        for _rep in range(REPS + 1):
            t0 = time.perf_counter()
            vec = _approx_entropy_matrix(X)
            times["matrix"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            ref = np.array(
                [approx_entropy_column(X[:, j]) for j in range(X.shape[1])]
            )
            times["column_loop"].append(time.perf_counter() - t0)
        assert np.array_equal(vec, ref)  # vectorization is exact
        med = {name: float(np.median(ts)) for name, ts in times.items()}
        speedup = med["column_loop"] / med["matrix"]
        _update_results(
            "tsfresh_vectorization",
            {
                "run_shape": list(X.shape),
                "reps": REPS + 1,
                "column_loop_s": round(med["column_loop"], 4),
                "matrix_s": round(med["matrix"], 4),
                "speedup": round(speedup, 2),
                "bit_identical": True,
            },
        )
        if not SMOKE:
            assert speedup >= 1.5


class TestFeaturizePushdown:
    """Column-planned featurization vs extract-everything-then-select.

    The model is the serving bench's (CG/BT/Kripke, 96 s runs, MVTS,
    k=30, 5 trees) and the batch is one full 64-run micro-batch of
    held-out runs, so the arm measures what a serving batch costs. The
    oracle arm is the path ``featurize`` took before the pushdown: the
    full extract of every kept feature, then Min-Max scaling of all of
    them, then the selector's column gather.
    """

    def test_featurize_pushdown(self):
        config = SystemConfig(
            name="bench-serving",
            apps={k: VOLTA_APPS[k] for k in ("CG", "BT", "Kripke")},
            catalog=build_catalog(n_cores=2, n_nics=1, n_extra_cray=4),
            node=VOLTA_NODE,
            intensities=(0.2, 1.0),
            duration=96,
            n_healthy_per_app_input=2 if SMOKE else 4,
            n_anomalous_per_app_anomaly=2 if SMOKE else 3,
        )
        runs = generate_runs(config, rng=0)
        framework = ALBADross(
            config.catalog,
            FrameworkConfig(n_features=30, model_params={"n_estimators": 5}),
        )
        framework.fit_features(runs)
        third = len(runs) // 3
        framework.fit_initial(runs[:third], [r.label for r in runs[:third]])
        held_out = runs[2 * third:]
        batch = [held_out[i % len(held_out)] for i in range(64)]
        extractor = framework.extractor

        def full() -> np.ndarray:
            X = extractor.transform(batch, extractor.plan()).X
            return framework.selector.transform(framework.scaler.transform(X))

        arms = {"full": full, "pushdown": lambda: framework.featurize(batch)}
        times: dict[str, list[float]] = {name: [] for name in arms}
        results: dict[str, np.ndarray] = {}
        for rep in range(REPS):
            order = ("full", "pushdown") if rep % 2 == 0 else ("pushdown", "full")
            for arm in order:
                t0 = time.perf_counter()
                results[arm] = arms[arm]()
                times[arm].append(time.perf_counter() - t0)
        # pushdown must not move a single bit
        assert np.array_equal(results["full"], results["pushdown"])
        med = {name: float(np.median(ts)) for name, ts in times.items()}
        speedup = med["full"] / med["pushdown"]
        plan = extractor.plan(framework.selector.support_)
        payload = {
            "n_runs": len(batch),
            "n_metrics": len(config.catalog),
            "n_features": int(len(plan.features)),
            "planned_columns": int(len(plan.columns)),
            "reps": REPS,
            "full_s": round(med["full"], 4),
            "pushdown_s": round(med["pushdown"], 4),
            "speedup": round(speedup, 2),
            "bit_identical": True,
            "note": (
                "only the metric columns the selected features read are "
                "extracted and only the k selected columns are scaled; the "
                "speedup tracks the share of columns the plan reads"
            ),
        }
        _update_results("featurize_pushdown", payload)
        if SMOKE:
            assert speedup >= 3.0, (
                f"pushdown featurize only {speedup:.2f}x the full extract "
                "on a serving-shaped batch"
            )


class TestDiagnoseReadSet:
    """Read-set diagnosis vs the k-wide path it replaced.

    The model is ``campaign_volta``'s (Volta at scale 0.05, TSFRESH,
    k=500, 16 trees of depth 8), fit on that campaign's seed runs, and
    each call diagnoses five held-out runs, the campaign's call size.
    The k-wide arm is what ``diagnose`` did before: ``featurize`` every
    selected feature, then ``predict_features``. The read-set arm is
    ``diagnose``, which extracts only the features the forest splits on
    and zero-fills the rest. Arms alternate order across reps.
    """

    REPS = REPS if SMOKE else 20
    BATCH = 5

    def test_diagnose_read_set(self):
        from repro.datasets.volta import volta_config

        system = volta_config(
            scale=0.05, n_healthy_per_app_input=1, n_anomalous_per_app_anomaly=2
        )
        runs = generate_runs(system, rng=1)
        rng = np.random.default_rng(1)
        order = rng.permutation(len(runs))
        seen, seed_runs, held_out = set(), [], []
        for i in order:
            key = (runs[i].app, runs[i].label)
            (held_out if key in seen else seed_runs).append(runs[i])
            seen.add(key)
        framework = ALBADross(system.catalog, FrameworkConfig(
            feature_method="tsfresh",
            model_params={"n_estimators": 16, "max_depth": 8},
        ))
        framework.fit_features(runs)
        framework.fit_initial(seed_runs, [r.label for r in seed_runs])
        batches = [
            held_out[i:i + self.BATCH]
            for i in range(0, len(held_out) - self.BATCH + 1, self.BATCH)
        ]

        def wide() -> list:
            return [framework.predict_features(framework.featurize(b)) for b in batches]

        def read_set() -> list:
            return [framework.diagnose(b) for b in batches]

        arms = {"wide": wide, "read_set": read_set}
        times: dict[str, list[float]] = {name: [] for name in arms}
        results: dict[str, list] = {}
        for rep in range(self.REPS):
            names = ("wide", "read_set") if rep % 2 == 0 else ("read_set", "wide")
            for arm in names:
                t0 = time.perf_counter()
                results[arm] = arms[arm]()
                times[arm].append((time.perf_counter() - t0) / len(batches))
        # zero-filling what no tree reads must not move a single bit
        assert results["read_set"] == results["wide"]
        med = {name: float(np.median(ts)) for name, ts in times.items()}
        support = framework.selector.support_
        read = support[framework.model.split_features_]
        plans = {"wide": framework.extractor.plan(support),
                 "read_set": framework.extractor.plan(read)}
        payload = {
            "n_runs_per_call": self.BATCH,
            "n_calls": len(batches),
            "n_metrics": len(system.catalog),
            "k_features": int(len(support)),
            "read_features": int(len(read)),
            "columns": {name: int(len(p.columns)) for name, p in plans.items()},
            "cells": {name: int(sum(len(g) for g in p.groups)) for name, p in plans.items()},
            "reps": self.REPS,
            "wide_s_per_call": round(med["wide"], 5),
            "read_set_s_per_call": round(med["read_set"], 5),
            "speedup": round(med["wide"] / med["read_set"], 2),
            "bit_identical": True,
            "note": (
                "diagnose extracts and scales only the selected features "
                "the forest splits on and zero-fills the other columns, "
                "which no tree compares; the speedup tracks the share of "
                "(column, statistic group) cells the read set drops"
            ),
        }
        _update_results("diagnose_read_set", payload)


class TestBaselineGate:
    def test_no_regression_vs_committed_baseline(self):
        """CI gate: fail when any recorded timing is >2x the baseline."""
        baseline_path = os.environ.get("DATA_PLANE_BASELINE")
        if not baseline_path:
            import pytest

            pytest.skip("DATA_PLANE_BASELINE not set")
        baseline = json.loads(Path(baseline_path).read_text())
        current = json.loads(RESULT_PATH.read_text())
        assert current["profile"] == baseline["profile"], (
            "baseline was recorded under a different profile"
        )
        checks = {
            "build_dataset_mvts.serial_s": lambda d: d["build_dataset_mvts"]["serial_s"],
            "build_dataset_tsfresh.serial_s": lambda d: d["build_dataset_tsfresh"]["serial_s"],
            "extraction_batched_mvts.batched_s": lambda d: d["extraction_batched_mvts"]["batched_s"],
            "extraction_batched_tsfresh.batched_s": lambda d: d["extraction_batched_tsfresh"]["batched_s"],
            "tsfresh_vectorization.matrix_s": lambda d: d["tsfresh_vectorization"]["matrix_s"],
            "featurize_pushdown.pushdown_s": lambda d: d["featurize_pushdown"]["pushdown_s"],
        }
        regressions = []
        for name, get in checks.items():
            ours, theirs = get(current), get(baseline)
            if ours > 2.0 * theirs:
                regressions.append(f"{name}: {ours:.3f}s vs baseline {theirs:.3f}s")
        assert not regressions, "; ".join(regressions)

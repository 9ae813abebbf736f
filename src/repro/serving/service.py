"""The DiagnosisService façade: registry + engine + cache + escalation.

This is the object a monitoring pipeline embeds. It warm-loads the
registry's ``CURRENT`` framework, owns a :class:`MicroBatcher` whose
vectorized predict path runs extractor→scaler→selector→model once per
coalesced batch, memoizes results by run fingerprint, routes
low-confidence verdicts to the :class:`EscalationQueue`, and hot-swaps to
a newly published registry version *between* batches — queued requests
are raw runs, so none are lost or scored against a torn model during a
swap.

Reliability wiring (see :mod:`repro.serving.reliability`): requests may
carry deadlines, transient scoring failures retry with backoff, an
optional watchdog restarts a crashed/stuck dispatch loop, and an
optional circuit breaker turns a failing model path into flagged
``degraded`` fallback verdicts (still escalated to the annotator) rather
than an error for every caller. :meth:`DiagnosisService.health` and
:meth:`DiagnosisService.ready` expose liveness/readiness probes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Callable, Sequence

from ..core.framework import ALBADross, Diagnosis
from ..core.persistence import run_fingerprint
from ..telemetry.collector import RunRecord
from .engine import MicroBatcher
from .escalation import (
    EscalationItem,
    EscalationQueue,
    apply_annotations,
    process_one_retrain,
)
from .jobs import RETRAIN_KIND
from .registry import ModelRegistry, ModelVersion
from .reliability import (
    CircuitBreaker,
    DeadlineExceeded,
    DispatcherWatchdog,
    RetryPolicy,
    fallback_diagnosis,
    sync_wait_s,
)
from .stats import ServiceStats

__all__ = ["DiagnosisService"]


class DiagnosisService:
    """Long-running online diagnosis over a registry-published framework.

    Parameters
    ----------
    registry:
        Source of versions; the service starts on ``CURRENT``.
    max_batch / max_linger_s / queue_size / policy:
        Micro-batcher knobs (see :class:`~repro.serving.engine.MicroBatcher`).
    cache_size:
        LRU result-cache capacity in runs; ``0`` disables caching.
    escalation:
        Optional :class:`EscalationQueue`; omit to serve without an
        annotation loop. When the queue has a durable ``store``
        (:class:`~repro.serving.jobs.JobQueue`), :meth:`stop` flushes
        parked escalations into it and :meth:`retrain_and_publish` runs
        the at-least-once job cycle.
    default_deadline_s:
        Optional per-request TTL forwarded to the engine; expired
        requests fail fast with
        :class:`~repro.serving.reliability.DeadlineExceeded`.
    retry:
        Optional :class:`~repro.serving.reliability.RetryPolicy` for
        transient scoring failures.
    breaker:
        Optional :class:`~repro.serving.reliability.CircuitBreaker`;
        after its failure threshold trips, callers receive flagged
        ``degraded`` fallback diagnoses (still escalated) instead of
        errors, until a recovery probe succeeds.
    watchdog_stall_s:
        When set, :meth:`start` also starts a
        :class:`~repro.serving.reliability.DispatcherWatchdog` that fails
        and restarts a dispatch loop stuck longer than this many seconds.
    predict_wrapper:
        Optional decorator applied to the batch scorer before it is
        handed to the engine — the chaos/replay hook: wrap this service's
        predict path in a :class:`~repro.testing.faults.FaultInjector`
        without touching the model. ``None`` (default) serves unwrapped.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = 32,
        max_linger_s: float = 0.005,
        queue_size: int = 1024,
        policy: str = "block",
        cache_size: int = 4096,
        escalation: EscalationQueue | None = None,
        default_deadline_s: float | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        watchdog_stall_s: float | None = None,
        predict_wrapper: Callable | None = None,
    ):
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if watchdog_stall_s is not None and watchdog_stall_s <= 0:
            raise ValueError(
                f"watchdog_stall_s must be > 0, got {watchdog_stall_s}"
            )
        self.registry = registry
        self.escalation = escalation
        self.breaker = breaker
        self.stats = ServiceStats()
        self._cache_size = cache_size
        self._cache: OrderedDict[str, Diagnosis] = OrderedDict()
        self._swap_lock = threading.Lock()
        self._framework: ALBADross | None = None
        self._version: ModelVersion | None = None
        self._engine: MicroBatcher | None = None
        self._watchdog: DispatcherWatchdog | None = None
        self._watchdog_stall_s = watchdog_stall_s
        self._predict_wrapper = predict_wrapper
        self._engine_opts = dict(
            max_batch=max_batch,
            max_linger_s=max_linger_s,
            queue_size=queue_size,
            policy=policy,
            default_deadline_s=default_deadline_s,
            retry=retry,
        )

    # ------------------------------------------------------------------
    def start(self, ref: str = "current") -> "DiagnosisService":
        """Warm-load a registry version and start the dispatcher."""
        framework, version = self.registry.load(ref)
        self._framework, self._version = framework, version
        predict = self._predict_batch
        if self._predict_wrapper is not None:
            predict = self._predict_wrapper(predict)
        self._engine = MicroBatcher(
            predict, stats=self.stats, **self._engine_opts
        )
        if self._watchdog_stall_s is not None:
            self._watchdog = DispatcherWatchdog(
                self._engine, stall_timeout_s=self._watchdog_stall_s
            ).start()
        return self

    def stop(self) -> None:
        """Drain in-flight requests and shut the engine down.

        With a durable escalation store, escalations still parked once
        the engine has drained are flushed into it, so none dies with
        the process. Idempotent: stopping a stopped (or never-started)
        service is a no-op, so shutdown paths may overlap without errors.
        """
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None
        if self._engine is not None:
            self._engine.close()
            self._engine = None
        if self.escalation is not None and self.escalation.store is not None:
            self.escalation.flush_to_store()

    def __enter__(self) -> "DiagnosisService":
        if self._engine is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def version(self) -> ModelVersion:
        """The registry version currently serving."""
        if self._version is None:
            raise RuntimeError("service is not started")
        return self._version

    # ------------------------------------------------------------------
    def submit(self, run: RunRecord, deadline_s: float | None = None):
        """Asynchronous single-run scoring; returns a future of Diagnosis.

        Cache hits resolve immediately without touching the queue.
        ``deadline_s`` overrides the service-wide default TTL.
        """
        engine = self._require_engine()
        cached = self._cache_get(run)
        if cached is not None:
            from concurrent.futures import Future

            future: Future = Future()
            future.set_result(cached)
            self.stats.record_request()
            return future
        return engine.submit(run, deadline_s=deadline_s)

    def diagnose(self, run: RunRecord, timeout_s: float | None = None) -> Diagnosis:
        """Synchronous single-run scoring (waits for the micro-batch).

        The wait is bounded: ``timeout_s`` if given, else the configured
        ``default_deadline_s`` plus a scoring grace period, else a flat
        default (see :func:`~repro.serving.reliability.sync_wait_s`).
        Raises :class:`~repro.serving.reliability.DeadlineExceeded` if the
        result does not arrive in time.
        """
        wait_s = sync_wait_s(
            timeout_s, self._engine_opts.get("default_deadline_s")
        )
        future = self.submit(run)
        try:
            return future.result(timeout=wait_s)
        except FuturesTimeout:
            future.cancel()
            raise DeadlineExceeded(
                f"diagnose() result did not arrive within {wait_s:.1f}s"
            ) from None

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness probe: a plain dict for CLI/exporter consumption."""
        engine = self._engine
        breaker = self.breaker
        stats = self.stats.snapshot()
        return {
            "started": engine is not None,
            "ready": self.ready(),
            "dispatcher_alive": engine.dispatcher_alive if engine else False,
            "heartbeat_age_s": engine.heartbeat_age_s if engine else None,
            "queue_depth": engine.queue_depth if engine else 0,
            "pending": engine.pending if engine else 0,
            "dispatcher_restarts": engine.restarts if engine else 0,
            "breaker_state": breaker.state if breaker else "disabled",
            "version": self._version.version_id if self._version else None,
            "escalation_depth": (
                len(self.escalation) if self.escalation is not None else 0
            ),
            # operators need to see dropped/refused escalations: each one
            # is an annotation request the AL loop silently lost
            "escalation_dropped": (
                self.escalation.n_dropped if self.escalation is not None else 0
            ),
            "escalation_refused": (
                self.escalation.n_refused if self.escalation is not None else 0
            ),
            "escalation_forced": (
                self.escalation.n_forced if self.escalation is not None else 0
            ),
            "failed_batches": stats["failed_batches"],
            "failed_requests": stats["failed_requests"],
        }

    def ready(self) -> bool:
        """Readiness probe: started, dispatcher alive, breaker not open."""
        engine = self._engine
        if engine is None or engine.closed or not engine.dispatcher_alive:
            return False
        return self.breaker is None or self.breaker.state != "open"

    # ------------------------------------------------------------------
    def refresh(self) -> bool:
        """Re-read the registry pointer; hot-swap if it moved.

        Returns ``True`` when a swap happened. Safe to call from any
        thread and at any time: the engine resolves the predict callable
        per batch, so queued requests simply score on whichever version is
        installed when their batch dispatches — nothing in flight is lost.
        """
        current = self.registry.current_id()
        if current is None or (
            self._version is not None and current == self._version.version_id
        ):
            return False
        self.swap(current)
        return True

    def swap(self, ref: str) -> ModelVersion:
        """Install a specific registry version as the serving model."""
        framework, version = self.registry.load(ref)
        with self._swap_lock:
            self._framework, self._version = framework, version
            self._cache.clear()  # cached verdicts belong to the old version
        self.stats.record_swap()
        return version

    def retrain_and_publish(
        self,
        annotator: Callable[[EscalationItem], str],
        tag: str | None = None,
        max_items: int | None = None,
        adopt: bool = True,
        warm: bool | None = None,
    ) -> ModelVersion | None:
        """Drain the escalation queue, refit, publish, optionally hot-swap.

        The annotation-loop closer: everything the service escalated gets
        labeled by ``annotator``, absorbed into the framework, published
        as the next version, and (with ``adopt``) served immediately.
        ``warm`` routes the refit through the framework's incremental
        path (``None`` defers to its config); a retrain that actually ran
        warm shows up as ``warm_refits`` in the service stats.

        With a durable escalation store the cycle is at-least-once:
        parked escalations flush to ``escalation`` jobs, a
        ``retrain_publish`` order carrying ``tag`` and ``warm`` is
        enqueued, and :func:`~repro.serving.escalation.process_one_retrain`
        executes it on the registry's current version. A crash anywhere
        before its final ack leaves every job claimable again.
        """
        if self.escalation is None:
            raise RuntimeError("service was built without an escalation queue")
        store = self.escalation.store
        if store is not None:
            self.escalation.flush_to_store()
            store.enqueue(RETRAIN_KIND, {"tag": tag, "warm": warm})
            done = process_one_retrain(
                store, self.registry, annotator, max_items=max_items
            )
            version, ran_warm = (None, False) if done is None else done
        else:
            items = self.escalation.drain(max_items)
            if not items:
                return None
            with self._swap_lock:
                framework = self._framework
            framework.last_absorb_warm = False  # absorb may be skipped entirely
            _, version = apply_annotations(
                framework, items, annotator, registry=self.registry, tag=tag,
                warm=warm,
            )
            ran_warm = framework.last_absorb_warm
        if ran_warm:
            self.stats.record_warm_refit()
        if version is not None and adopt:
            self.swap(version.version_id)
        return version

    # ------------------------------------------------------------------
    def _require_engine(self) -> MicroBatcher:
        if self._engine is None:
            raise RuntimeError("service is not started; call start() first")
        return self._engine

    def _cache_get(self, run: RunRecord) -> Diagnosis | None:
        if not self._cache_size:
            return None
        key = run_fingerprint(run)
        with self._swap_lock:
            diagnosis = self._cache.get(key)
            if diagnosis is not None:
                self._cache.move_to_end(key)
                self.stats.record_cache_hit()
        return diagnosis

    def _cache_put(self, run: RunRecord, diagnosis: Diagnosis) -> None:
        if not self._cache_size:
            return
        key = run_fingerprint(run)
        self._cache[key] = diagnosis
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    def _predict_batch(self, runs: Sequence[RunRecord]) -> list[Diagnosis]:
        """The engine's vectorized scorer: one stack pass per micro-batch."""
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            return self._degraded_batch(runs)
        with self._swap_lock:
            framework = self._framework
        if framework is None:
            raise RuntimeError("no framework installed")
        try:
            X = framework.featurize(runs)
            diagnoses = framework.predict_features(X)
        except Exception:
            if breaker is not None:
                breaker.record_failure()
                if breaker.state == "open":
                    # threshold crossed: this and subsequent batches get
                    # flagged fallbacks instead of erroring every caller
                    return self._degraded_batch(runs)
            raise
        if breaker is not None:
            breaker.record_success()
        with self._swap_lock:
            # a swap may have landed mid-batch; don't poison the new cache
            stale = framework is not self._framework
            if not stale:
                for run, diagnosis in zip(runs, diagnoses):
                    self._cache_put(run, diagnosis)
        self._offer_escalation(runs, diagnoses)
        return diagnoses

    def _degraded_batch(self, runs: Sequence[RunRecord]) -> list[Diagnosis]:
        """Flagged fallback verdicts: never cached, escalated out-of-band.

        Fallbacks carry a synthetic confidence of 0.0; routing them through
        the adaptive :meth:`EscalationQueue.offer` would let a breaker-open
        storm tune the active-learning threshold to the outage and evict
        genuine low-confidence items, so they take the forced path that
        bypasses the controller and never evicts.
        """
        diagnoses = [fallback_diagnosis() for _ in runs]
        self.stats.record_degraded(len(runs))
        if self.escalation is not None:
            for run, diagnosis in zip(runs, diagnoses):
                if self.escalation.offer_forced(run, diagnosis):
                    self.stats.record_escalation()
                    self.stats.record_forced_escalation()
                else:
                    self.stats.record_refused_escalation()
        return diagnoses

    def _offer_escalation(
        self, runs: Sequence[RunRecord], diagnoses: Sequence[Diagnosis]
    ) -> None:
        if self.escalation is None:
            return
        for run, diagnosis in zip(runs, diagnoses):
            if self.escalation.offer(run, diagnosis):
                self.stats.record_escalation()

"""Service counters for the online diagnosis path.

Everything the serving subsystem wants to report — request volume, how
well the micro-batcher is coalescing, cache effectiveness, escalation
pressure, per-batch latency, and the reliability layer's interventions
(retries, deadline drops, watchdog restarts, degraded responses, failed
batches) — funnels through one thread-safe :class:`ServiceStats` object.
The snapshot is a plain dict so the CLI can print it and tests can
assert on it without poking at internals.
"""

from __future__ import annotations

import threading

__all__ = ["ServiceStats"]


class ServiceStats:
    """Thread-safe counters shared by the engine, cache, and escalation queue."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Zero every counter (the service calls this once at start)."""
        with self._lock:
            self._requests = 0
            self._cache_hits = 0
            self._escalations = 0
            self._batches = 0
            self._batch_sizes: dict[int, int] = {}
            self._latency_sum = 0.0
            self._latency_max = 0.0
            self._swaps = 0
            self._warm_refits = 0
            self._retries = 0
            self._deadline_drops = 0
            self._watchdog_restarts = 0
            self._degraded = 0
            self._forced_escalations = 0
            self._refused_escalations = 0
            self._failed_batches = 0
            self._failed_requests = 0

    # ------------------------------------------------------------------
    def record_request(self, n: int = 1) -> None:
        with self._lock:
            self._requests += n

    def record_cache_hit(self, n: int = 1) -> None:
        with self._lock:
            self._cache_hits += n

    def record_escalation(self, n: int = 1) -> None:
        with self._lock:
            self._escalations += n

    def record_swap(self) -> None:
        with self._lock:
            self._swaps += 1

    def record_warm_refit(self) -> None:
        """One retrain that went through the incremental (warm-start) path."""
        with self._lock:
            self._warm_refits += 1

    def record_retry(self, n: int = 1) -> None:
        """One transient ``predict_fn`` failure retried with backoff."""
        with self._lock:
            self._retries += n

    def record_deadline_drop(self, n: int = 1) -> None:
        """One request that expired in the queue before dispatch."""
        with self._lock:
            self._deadline_drops += n

    def record_watchdog_restart(self) -> None:
        """One dispatcher restart (crashed or stalled dispatch loop)."""
        with self._lock:
            self._watchdog_restarts += 1

    def record_degraded(self, n: int = 1) -> None:
        """Fallback diagnoses served while the circuit breaker is open."""
        with self._lock:
            self._degraded += n

    def record_forced_escalation(self, n: int = 1) -> None:
        """One degraded verdict escalated via the forced (non-adaptive) path."""
        with self._lock:
            self._forced_escalations += n

    def record_refused_escalation(self, n: int = 1) -> None:
        """One forced escalation the full queue refused — a lost annotation."""
        with self._lock:
            self._refused_escalations += n

    def record_failed_batch(self, size: int) -> None:
        """One micro-batch whose ``size`` requests all got its error."""
        with self._lock:
            self._failed_batches += 1
            self._failed_requests += size

    def record_batch(self, size: int, latency_s: float) -> None:
        """One scored micro-batch: its size and wall-clock latency."""
        with self._lock:
            self._batches += 1
            self._batch_sizes[size] = self._batch_sizes.get(size, 0) + 1
            self._latency_sum += latency_s
            self._latency_max = max(self._latency_max, latency_s)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A consistent point-in-time view of every counter."""
        with self._lock:
            batches = self._batches
            scored = sum(size * n for size, n in self._batch_sizes.items())
            return {
                "requests": self._requests,
                "cache_hits": self._cache_hits,
                "escalations": self._escalations,
                "batches": batches,
                "batch_size_histogram": dict(sorted(self._batch_sizes.items())),
                "mean_batch_size": scored / batches if batches else 0.0,
                "mean_batch_latency_s": (
                    self._latency_sum / batches if batches else 0.0
                ),
                "max_batch_latency_s": self._latency_max,
                "model_swaps": self._swaps,
                "warm_refits": self._warm_refits,
                "retries": self._retries,
                "deadline_drops": self._deadline_drops,
                "watchdog_restarts": self._watchdog_restarts,
                "degraded_responses": self._degraded,
                "escalations_forced": self._forced_escalations,
                "escalations_refused": self._refused_escalations,
                "failed_batches": self._failed_batches,
                "failed_requests": self._failed_requests,
            }

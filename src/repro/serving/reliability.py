"""Reliability layer for the online diagnosis path.

The serving stack targets *production* HPC monitoring, where the
diagnosis path must degrade gracefully rather than hang or error every
caller. This module collects the failure-containment primitives the
engine and service compose:

* typed serving errors — every submitted future resolves with a result
  or one of these, never silently hangs;
* :class:`RetryPolicy` — bounded retry with exponential backoff and
  deterministic jitter for transient ``predict_fn`` failures;
* :class:`CircuitBreaker` — after N consecutive batch failures the
  service serves a flagged fallback diagnosis (and keeps escalating)
  instead of erroring every caller, probing for recovery after a
  timeout;
* :class:`DispatcherWatchdog` — detects a crashed or stuck dispatch
  loop, fails the in-flight batch with a typed error, and restarts the
  dispatcher (counted in :class:`~repro.serving.stats.ServiceStats`).

Deadlines/TTLs live in the engine itself (requests carry an expiry and
are dropped at dispatch time, see
:meth:`~repro.serving.engine.MicroBatcher.submit`); this module supplies
the :class:`DeadlineExceeded` error they fail with.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..core.framework import Diagnosis

if TYPE_CHECKING:  # pragma: no cover
    from .engine import MicroBatcher

__all__ = [
    "ServingError",
    "DeadlineExceeded",
    "EngineClosedError",
    "PredictionMismatchError",
    "DispatcherRestarted",
    "RetryPolicy",
    "CircuitBreaker",
    "DispatcherWatchdog",
    "FALLBACK_LABEL",
    "fallback_diagnosis",
    "is_fallback",
    "sync_wait_s",
]

# The synchronous ``DiagnosisService.diagnose`` derives its wait
# bound from these: the engine's request TTL plus a grace period for the
# batch actually being scored, or a generous flat default when no TTL is
# configured. Nothing in the serving stack waits forever.
SYNC_WAIT_GRACE_S = 30.0
SYNC_WAIT_DEFAULT_S = 120.0


def sync_wait_s(
    explicit_s: float | None = None,
    deadline_s: float | None = None,
    grace_s: float = SYNC_WAIT_GRACE_S,
    default_s: float = SYNC_WAIT_DEFAULT_S,
) -> float:
    """A finite timeout for a synchronous wait on a request future.

    Precedence: an explicit caller timeout wins; otherwise the configured
    request deadline plus ``grace_s`` (the request either scores or fails
    with :class:`DeadlineExceeded` well inside that window); otherwise
    ``default_s``. The result is always a real number — the unbounded
    ``future.result()`` fast path is a lint violation (BW001).
    """
    if explicit_s is not None:
        return explicit_s
    if deadline_s is not None:
        return deadline_s + grace_s
    return default_s


# ----------------------------------------------------------------------
# typed serving errors
class ServingError(RuntimeError):
    """Base class for errors the serving path sets on request futures."""


class DeadlineExceeded(ServingError):
    """The request expired in the queue before a batch slot scored it."""


class EngineClosedError(ServingError):
    """The engine is closed (or closed before this request was scored)."""


class PredictionMismatchError(ServingError):
    """``predict_fn`` returned a different number of diagnoses than runs."""


class DispatcherRestarted(ServingError):
    """The watchdog failed this in-flight batch and restarted the dispatcher."""


# ----------------------------------------------------------------------
# bounded retry with deterministic jitter
def _default_retryable(exc: BaseException) -> bool:
    """Retry ordinary exceptions; contract/lifecycle errors are final."""
    return isinstance(exc, Exception) and not isinstance(exc, ServingError)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter for transient failures.

    ``delay(attempt)`` is a pure function of ``(seed, attempt)`` — two
    policies built with the same knobs back off identically, so chaos
    tests (and incident replays) are reproducible.

    Parameters
    ----------
    max_retries:
        Additional attempts after the first failure; ``0`` disables retry.
    base_delay_s / max_delay_s:
        Backoff starts at ``base`` and doubles per attempt, capped at ``max``.
    jitter:
        Fractional spread added on top of the capped delay (``0.1`` means
        up to +10%), decorrelating retry storms across engines.
    seed:
        Jitter seed; same seed ⇒ same schedule.
    retryable:
        Predicate deciding whether an exception is transient. The default
        retries any ``Exception`` except typed :class:`ServingError`\\ s.
    """

    max_retries: int = 2
    base_delay_s: float = 0.01
    max_delay_s: float = 1.0
    jitter: float = 0.1
    seed: int = 0
    retryable: Callable[[BaseException], bool] = field(default=_default_retryable)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay_s < 0:
            raise ValueError(f"base_delay_s must be >= 0, got {self.base_delay_s}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based), jitter included."""
        base = min(self.max_delay_s, self.base_delay_s * (2.0**attempt))
        frac = random.Random(self.seed * 1_000_003 + attempt).random()
        return base * (1.0 + self.jitter * frac)


# ----------------------------------------------------------------------
# circuit breaker
class CircuitBreaker:
    """Trip open after N consecutive failures; probe for recovery later.

    States follow the classic pattern: ``closed`` (normal), ``open``
    (every :meth:`allow` is denied until ``recovery_timeout_s`` elapses),
    ``half_open`` (exactly one probe call is admitted; its outcome closes
    or re-opens the breaker). Thread-safe — the engine's dispatcher and
    any control thread may poke it concurrently.

    ``time_fn`` is injectable so recovery tests don't sleep.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_timeout_s: float = 30.0,
        time_fn: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if recovery_timeout_s < 0:
            raise ValueError(
                f"recovery_timeout_s must be >= 0, got {recovery_timeout_s}"
            )
        self.failure_threshold = failure_threshold
        self.recovery_timeout_s = recovery_timeout_s
        self._time = time_fn
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half_open"`` (no transitions)."""
        with self._lock:
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._failures

    def allow(self) -> bool:
        """May the caller attempt a real prediction right now?

        In the open state, the first call after ``recovery_timeout_s``
        transitions to half-open and is admitted as the probe; every
        other open/half-open call is denied (serve the fallback instead).
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._time() - self._opened_at >= self.recovery_timeout_s:
                    self._state = "half_open"
                    return True
                return False
            return False  # half_open: the probe is already in flight

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == "half_open" or self._failures >= self.failure_threshold:
                self._state = "open"
                self._opened_at = self._time()


# ----------------------------------------------------------------------
# degraded-mode fallback verdict
FALLBACK_LABEL = "degraded"
"""Label carried by fallback diagnoses served while the breaker is open."""


def fallback_diagnosis() -> Diagnosis:
    """The flagged verdict served in degraded mode.

    Zero confidence means maximal uncertainty, so an attached
    :class:`~repro.serving.escalation.EscalationQueue` keeps collecting
    these runs for a human — degraded traffic is exactly the traffic the
    annotation loop should see once the model path recovers.
    """
    return Diagnosis(label=FALLBACK_LABEL, confidence=0.0)


def is_fallback(diagnosis: Diagnosis) -> bool:
    """Whether a served verdict is the degraded-mode placeholder."""
    return diagnosis.label == FALLBACK_LABEL


# ----------------------------------------------------------------------
# dispatcher watchdog
class DispatcherWatchdog:
    """Detect a crashed or stuck dispatch loop and restart it.

    Two failure signatures, both unrecoverable from inside the engine:

    * the dispatcher thread *died* (a bug escaped the per-batch guard);
    * a dispatched batch is *stuck* inside ``predict_fn`` past
      ``stall_timeout_s`` (wedged extractor, deadlocked model).

    Python cannot kill the wedged thread, so the watchdog does the next
    best thing: fail every in-flight future with
    :class:`DispatcherRestarted` (submitters stop waiting immediately)
    and start a fresh dispatcher generation. The zombie thread's late
    results are discarded harmlessly — its futures are already resolved
    and its generation token no longer matches.

    Use :meth:`start`/:meth:`stop` for the background thread, or call
    :meth:`check` from your own control loop.
    """

    def __init__(
        self,
        engine: "MicroBatcher",
        stall_timeout_s: float = 5.0,
        poll_interval_s: float = 0.05,
    ):
        if stall_timeout_s <= 0:
            raise ValueError(f"stall_timeout_s must be > 0, got {stall_timeout_s}")
        if poll_interval_s <= 0:
            raise ValueError(f"poll_interval_s must be > 0, got {poll_interval_s}")
        self.engine = engine
        self.stall_timeout_s = stall_timeout_s
        self.poll_interval_s = poll_interval_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def check(self) -> bool:
        """One inspection; returns ``True`` when a restart was performed."""
        engine = self.engine
        if engine.closed:
            return False
        if not engine.dispatcher_alive:
            engine.restart_dispatcher("dispatcher thread died")
            return True
        age = engine.oldest_inflight_age()
        if age is not None and age > self.stall_timeout_s:
            engine.restart_dispatcher(
                f"batch stuck in predict_fn for {age:.2f}s "
                f"(stall timeout {self.stall_timeout_s}s)"
            )
            return True
        return False

    def start(self) -> "DispatcherWatchdog":
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-watchdog", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            self.check()

    def __enter__(self) -> "DispatcherWatchdog":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

"""repro.serving — the online diagnosis service.

Turns a trained :class:`~repro.core.framework.ALBADross` into a
long-running serving path:

* :mod:`repro.serving.registry` — versioned on-disk model registry with
  an atomic ``CURRENT`` pointer, list and rollback.
* :mod:`repro.serving.engine` — micro-batching inference engine with
  bounded-queue backpressure, per-request deadlines, and retry.
* :mod:`repro.serving.service` — the ``DiagnosisService`` façade: warm
  load, result cache, hot version swap, escalation wiring, health and
  readiness probes.
* :mod:`repro.serving.escalation` — annotation escalation queue closing
  the active-learning loop online, and the at-least-once retrain cycle.
* :mod:`repro.serving.reliability` — typed serving errors, retry policy,
  circuit breaker, and the dispatcher watchdog.
* :mod:`repro.serving.stats` — service counters as a plain-dict snapshot.
* :mod:`repro.serving.jobs` — durable SQLite-backed at-least-once job
  queue (escalation and retrain orders survive process death).
* :mod:`repro.serving.replay` — deterministic 1488-node replay harness
  and throughput/latency reporting.
"""

from .engine import BackpressureError, MicroBatcher
from .escalation import (
    EscalationItem,
    EscalationQueue,
    apply_annotations,
    process_one_retrain,
)
from .jobs import (
    ESCALATION_KIND,
    RETRAIN_KIND,
    Job,
    JobQueue,
    JobQueueError,
    JobState,
    StaleClaimError,
    escalation_payload,
    item_from_payload,
)
from .registry import ModelRegistry, ModelVersion, RegistryError
from .reliability import (
    FALLBACK_LABEL,
    CircuitBreaker,
    DeadlineExceeded,
    DispatcherRestarted,
    DispatcherWatchdog,
    EngineClosedError,
    PredictionMismatchError,
    RetryPolicy,
    ServingError,
    fallback_diagnosis,
    is_fallback,
)
from .replay import (
    ECLIPSE_NODES,
    ReplayEvent,
    ReplayReport,
    ReplayStream,
    replay,
)
from .service import DiagnosisService
from .stats import ServiceStats

__all__ = [
    "BackpressureError",
    "CircuitBreaker",
    "DeadlineExceeded",
    "DiagnosisService",
    "DispatcherRestarted",
    "DispatcherWatchdog",
    "ECLIPSE_NODES",
    "ESCALATION_KIND",
    "EngineClosedError",
    "EscalationItem",
    "EscalationQueue",
    "FALLBACK_LABEL",
    "Job",
    "JobQueue",
    "JobQueueError",
    "JobState",
    "MicroBatcher",
    "ModelRegistry",
    "ModelVersion",
    "PredictionMismatchError",
    "RETRAIN_KIND",
    "RegistryError",
    "ReplayEvent",
    "ReplayReport",
    "ReplayStream",
    "RetryPolicy",
    "ServiceStats",
    "ServingError",
    "StaleClaimError",
    "apply_annotations",
    "escalation_payload",
    "fallback_diagnosis",
    "is_fallback",
    "item_from_payload",
    "process_one_retrain",
    "replay",
]

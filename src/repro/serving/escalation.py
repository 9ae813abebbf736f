"""Annotation escalation queue: the online half of the paper's AL loop.

Pool-based ALBADross asks the annotator about the most uncertain pool
samples; in a live service the "pool" is the request stream itself. Every
diagnosis the service emits passes through an :class:`EscalationQueue`,
which reuses the self-tuning uncertainty threshold of
:class:`repro.active.stream.ThresholdController` — predictions whose
uncertainty (``1 - confidence``) clears the threshold are parked for a
human, and the controller keeps the escalation rate near the annotator's
budget instead of flooding them during a confusing burst.

Drained, annotated items feed :func:`apply_annotations`, which folds the
labels back into the framework (``ALBADross.absorb``) and publishes the
refit model as the next registry version — closing the loop the paper
runs offline. With a durable :class:`~repro.serving.jobs.JobQueue` behind
the queue, :func:`process_one_retrain` runs that cycle at-least-once.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from ..active.stream import ThresholdController
from ..core.framework import ALBADross, Diagnosis
from ..telemetry.collector import RunRecord
from .jobs import (
    ESCALATION_KIND,
    RETRAIN_KIND,
    JobQueue,
    escalation_payload,
    item_from_payload,
)

if TYPE_CHECKING:  # pragma: no cover
    from .registry import ModelRegistry, ModelVersion

__all__ = [
    "EscalationItem",
    "EscalationQueue",
    "apply_annotations",
    "process_one_retrain",
]

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class EscalationItem:
    """One low-confidence prediction awaiting a human label."""

    run: RunRecord
    diagnosis: Diagnosis
    uncertainty: float
    threshold: float


class EscalationQueue:
    """Bounded queue of predictions the model was not confident about.

    Parameters
    ----------
    controller:
        Threshold policy; defaults to the stream learner's self-tuning
        controller with a 10% target escalation rate.
    maxlen:
        Queue bound; beyond it the *oldest* unserviced item is dropped
        (the annotator was never going to reach it anyway) and the drop is
        counted.
    store:
        Optional durable :class:`~repro.serving.jobs.JobQueue`. When set,
        this in-memory queue becomes the *front-end*: offers still park
        here (cheap, on the dispatcher thread), and
        :meth:`flush_to_store` moves them into durable ``escalation``
        jobs that survive a process crash. The service flushes at
        shutdown and before each retrain; callers may flush on any
        cadence.
    """

    def __init__(
        self,
        controller: ThresholdController | None = None,
        maxlen: int = 256,
        store: JobQueue | None = None,
    ):
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.controller = controller or ThresholdController()
        self.store = store
        self._items: deque[EscalationItem] = deque(maxlen=maxlen)
        self.n_dropped = 0
        self.n_refused = 0
        self.n_forced = 0
        # offer() runs on the engine's dispatcher thread while drain() runs
        # on whatever control thread owns the annotator; the controller
        # mutates on every offer, so the whole decision must be atomic
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def offer(self, run: RunRecord, diagnosis: Diagnosis) -> bool:
        """Consider one served prediction; enqueue it if uncertain enough."""
        uncertainty = 1.0 - diagnosis.confidence
        with self._lock:
            threshold_used = self.controller.threshold
            if not self.controller.should_query(uncertainty):
                return False
            if len(self._items) == self._items.maxlen:
                self.n_dropped += 1
            self._items.append(
                EscalationItem(
                    run=run,
                    diagnosis=diagnosis,
                    uncertainty=uncertainty,
                    threshold=threshold_used,
                )
            )
        return True

    def offer_forced(self, run: RunRecord, diagnosis: Diagnosis) -> bool:
        """Enqueue without consulting (or tuning) the adaptive controller.

        The degraded-mode path: fallback verdicts carry a synthetic
        confidence of 0.0, so feeding them through :meth:`offer` during a
        breaker-open storm would skew the self-tuning threshold toward the
        outage and evict genuine low-confidence items from the bounded
        queue. Forced offers leave the controller untouched and are
        *refused* (counted in ``n_refused``) when the queue is full,
        instead of evicting.
        """
        uncertainty = 1.0 - diagnosis.confidence
        with self._lock:
            if len(self._items) == self._items.maxlen:
                self.n_refused += 1
                return False
            self.n_forced += 1
            self._items.append(
                EscalationItem(
                    run=run,
                    diagnosis=diagnosis,
                    uncertainty=uncertainty,
                    threshold=self.controller.threshold,
                )
            )
        return True

    def flush_to_store(self, n: int | None = None) -> int:
        """Drain up to ``n`` parked items into the durable job store.

        Each item becomes one at-least-once ``escalation`` job (see
        :mod:`repro.serving.jobs`); once enqueued it survives process
        death. Returns the number of jobs written.
        Raises :class:`RuntimeError` when the queue was built without a
        ``store``.
        """
        if self.store is None:
            raise RuntimeError("escalation queue was built without a store")
        flushed = 0
        for item in self.drain(n):
            self.store.enqueue(ESCALATION_KIND, escalation_payload(item))
            flushed += 1
        return flushed

    def drain(self, n: int | None = None) -> list[EscalationItem]:
        """Hand up to ``n`` items (oldest first) to the annotator."""
        drained: list[EscalationItem] = []
        with self._lock:
            if n is None:
                n = len(self._items)
            while self._items and len(drained) < n:
                drained.append(self._items.popleft())
        return drained

    def __len__(self) -> int:
        return len(self._items)

    @property
    def escalation_rate(self) -> float:
        """Realized fraction of offered predictions that were escalated."""
        return self.controller.query_rate


def apply_annotations(
    framework: ALBADross,
    items: Sequence[EscalationItem],
    annotator: Callable[[EscalationItem], str],
    registry: "ModelRegistry | None" = None,
    tag: str | None = None,
    warm: bool | None = None,
) -> "tuple[ALBADross, ModelVersion | None]":
    """Label escalated items, refit the framework, publish the next version.

    ``annotator`` maps an :class:`EscalationItem` to its true label — in
    production an interactive session (see
    :class:`repro.core.annotation.AnnotationSession`), in tests/examples
    the ground truth. ``warm`` selects the incremental refit path (see
    :meth:`ALBADross.absorb`; ``None`` defers to the framework config).
    Returns the refit framework and the newly published version (``None``
    when no registry was given or nothing was labeled).
    """
    labeled_runs: list[RunRecord] = []
    labels: list[str] = []
    for item in items:
        label = annotator(item)
        if label is None:
            continue  # annotator skipped this one
        labeled_runs.append(item.run)
        labels.append(str(label))
    if not labeled_runs:
        return framework, None
    framework.absorb(labeled_runs, labels, warm=warm)
    version = None
    if registry is not None:
        version = registry.publish(framework, tag=tag)
    return framework, version


def process_one_retrain(
    jobs: JobQueue,
    registry: ModelRegistry,
    annotator: Callable,
    max_items: int | None = None,
    worker: str = "retrainer",
) -> tuple[ModelVersion, bool] | None:
    """Claim and execute one durable ``retrain_publish`` job.

    The at-least-once worker loop body: claim the retrain order, claim
    every deliverable ``escalation`` job, annotate and absorb them into
    the current registry framework, publish, then ack everything. Any
    exception nacks every claim, so a crash mid-cycle redelivers the
    whole batch to the next worker — no annotation is lost, at the price
    of possibly labeling a run twice (idempotent for a deterministic
    annotator, since ``absorb`` refits from the accumulated label set).

    Returns the published version and whether its refit ran warm (see
    :meth:`ALBADross.absorb`), or ``None`` when nothing was published:
    no retrain order, or no escalations to learn from (the order is
    acked as a no-op), or none the annotator labeled.
    """
    orders = jobs.claim(kinds=(RETRAIN_KIND,), n=1, worker=worker)
    if not orders:
        return None
    order = orders[0]
    limit = max_items if max_items is not None else 1_000_000
    claims = jobs.claim(kinds=(ESCALATION_KIND,), n=limit, worker=worker)
    try:
        items = [item_from_payload(job.payload) for job in claims]
        if not items:
            jobs.ack(order.job_id, order.claim_token)
            return None
        framework, _ = registry.load("current")
        _, version = apply_annotations(
            framework,
            items,
            annotator,
            registry=registry,
            tag=order.payload.get("tag"),
            warm=order.payload.get("warm"),
        )
        for job in claims:
            jobs.ack(job.job_id, job.claim_token)
        jobs.ack(order.job_id, order.claim_token)
        # a published version means absorb ran and set last_absorb_warm
        return None if version is None else (version, framework.last_absorb_warm)
    except BaseException as exc:
        for job in claims:
            try:
                jobs.nack(job.job_id, job.claim_token, error=repr(exc))
            except Exception:
                # Lease already lapsed; redelivery covers the job itself,
                # but leave a trace so operators can correlate the churn.
                _LOG.debug("nack failed for %s; lease lapsed", job.job_id)
        try:
            jobs.nack(order.job_id, order.claim_token, error=repr(exc))
        except Exception:
            _LOG.debug("nack failed for order %s; lease lapsed", order.job_id)
        raise

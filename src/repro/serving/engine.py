"""Micro-batching inference engine.

Per-run scoring overhead (feature extraction dispatch, scaler/selector
matrix slicing, model call setup) dwarfs the marginal cost of one more
row, exactly the economics :mod:`repro.parallel.executor` exploits by
chunking process-pool tasks. This engine applies the same amortization to
serving: callers submit single :class:`~repro.telemetry.collector.RunRecord`
requests into a bounded queue, and a dispatcher thread coalesces whatever
has accumulated — up to ``max_batch`` runs, waiting at most
``max_linger_s`` for stragglers — into one vectorized
extractor→scaler→selector→model call.

Backpressure is explicit: a full request queue either blocks the
submitter or raises :class:`BackpressureError`, per the configured
policy. Submission is the only way in, so every scored run goes through
the same deadlines, retries and failure accounting.

Reliability invariant (see :mod:`repro.serving.reliability`): **every
accepted future resolves** — with a diagnosis, or with a typed error
(:class:`~repro.serving.reliability.DeadlineExceeded`,
:class:`~repro.serving.reliability.PredictionMismatchError`,
:class:`~repro.serving.reliability.EngineClosedError`,
:class:`~repro.serving.reliability.DispatcherRestarted`, or whatever
``predict_fn`` raised after retries were exhausted). A misbehaving
``predict_fn`` can fail requests; it can never strand a submitter.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Callable, Sequence

from ..telemetry.collector import RunRecord
from .reliability import (
    DeadlineExceeded,
    DispatcherRestarted,
    EngineClosedError,
    PredictionMismatchError,
    RetryPolicy,
)
from .stats import ServiceStats

__all__ = ["MicroBatcher", "BackpressureError"]


class BackpressureError(RuntimeError):
    """The request queue is full and the backpressure policy is ``"error"``."""


class _Request:
    """One queued run: its future, optional expiry, and settlement flag."""

    __slots__ = ("run", "future", "deadline", "settled")

    def __init__(self, run, deadline: float | None):
        self.run = run
        self.future: Future = Future()
        self.deadline = deadline
        self.settled = False


class MicroBatcher:
    """Coalesce single-run submissions into vectorized model calls.

    Parameters
    ----------
    predict_fn:
        ``predict_fn(runs) -> list[Diagnosis]``; looked up at dispatch
        time, so the owner may swap it between batches (hot model swap)
        without touching queued requests — they are raw runs, not
        featurized against any particular version.
    max_batch:
        Upper bound on runs per dispatched batch.
    max_linger_s:
        How long the dispatcher waits for more arrivals after the first
        request of a batch; bounds worst-case added latency.
    queue_size:
        Request-queue bound (backpressure trips beyond it).
    policy:
        ``"block"`` (submit waits for space) or ``"error"`` (submit raises
        :class:`BackpressureError` immediately).
    default_deadline_s:
        TTL applied to every :meth:`submit` that does not pass its own;
        ``None`` means requests never expire. Expired requests fail fast
        with :class:`~repro.serving.reliability.DeadlineExceeded` at
        dispatch time instead of occupying batch slots.
    retry:
        Optional :class:`~repro.serving.reliability.RetryPolicy`;
        transient ``predict_fn`` failures are retried with backoff before
        the batch is failed.
    stats:
        Optional shared :class:`~repro.serving.stats.ServiceStats`.
    """

    def __init__(
        self,
        predict_fn: Callable[[Sequence[RunRecord]], list],
        max_batch: int = 32,
        max_linger_s: float = 0.005,
        queue_size: int = 1024,
        policy: str = "block",
        default_deadline_s: float | None = None,
        retry: RetryPolicy | None = None,
        stats: ServiceStats | None = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_linger_s < 0:
            raise ValueError(f"max_linger_s must be >= 0, got {max_linger_s}")
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if policy not in ("block", "error"):
            raise ValueError(f"policy must be 'block' or 'error', got {policy!r}")
        if default_deadline_s is not None and default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be > 0, got {default_deadline_s}"
            )
        self.predict_fn = predict_fn
        self.max_batch = max_batch
        self.max_linger_s = max_linger_s
        self.policy = policy
        self.default_deadline_s = default_deadline_s
        self.retry = retry
        self.stats = stats or ServiceStats()
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._closed = threading.Event()
        # serializes concurrent close() calls: exactly one performs the
        # shutdown, the rest observe _closed and return (double-close is
        # a documented no-op, not an error)
        self._close_lock = threading.Lock()
        # _idle guards the accepted-but-unresolved request count plus the
        # in-flight batch table and dispatcher generation; flush() waits on it
        self._idle = threading.Condition()
        self._pending = 0
        self._inflight: dict[int, tuple[list[_Request], float]] = {}
        self._tokens = itertools.count()
        self._generation = 0
        self._restarts = 0
        self._heartbeat = time.monotonic()
        self._dispatcher: threading.Thread
        self._start_dispatcher(self._generation)

    # ------------------------------------------------------------------
    def submit(self, run: RunRecord, deadline_s: float | None = None) -> Future:
        """Enqueue one run; the returned future resolves to its Diagnosis.

        ``deadline_s`` overrides ``default_deadline_s`` for this request.
        The future always completes: with a diagnosis, or a typed error.
        """
        if self._closed.is_set():
            raise EngineClosedError("engine is closed")
        ttl = self.default_deadline_s if deadline_s is None else deadline_s
        deadline = None if ttl is None else time.monotonic() + ttl
        req = _Request(run, deadline)
        with self._idle:
            self._pending += 1
        try:
            if self.policy == "error":
                try:
                    self._queue.put_nowait(req)
                except queue.Full:
                    raise BackpressureError(
                        f"request queue full ({self._queue.maxsize} pending)"
                    ) from None
            else:
                self._queue.put(req)
        except BaseException:
            with self._idle:
                self._pending -= 1
                self._idle.notify_all()
            raise
        self.stats.record_request()
        if self._closed.is_set():
            # close() may have drained the queue before our put landed;
            # fail the future rather than strand it behind a dead dispatcher
            self._resolve(
                req, exception=EngineClosedError("engine closed during submit")
            )
        return req.future

    def flush(self, timeout: float = 10.0) -> None:
        """Block until every accepted request has *resolved*.

        Covers queued requests and dispatched-but-unfinished batches alike
        — the engine tracks accepted-but-unresolved requests explicitly,
        so flush cannot return while ``predict_fn`` is still chewing on a
        batch the queue no longer shows.
        """
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._pending > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"engine did not drain in time "
                        f"({self._pending} requests unresolved)"
                    )
                self._idle.wait(min(remaining, 0.05))

    def close(self, timeout: float = 10.0) -> None:
        """Drain the queue, stop the dispatcher, fail whatever remains.

        Best-effort drain first; past the deadline, every still-pending
        future (queued or stuck in flight) is failed with
        :class:`~repro.serving.reliability.EngineClosedError` instead of
        being abandoned.

        Idempotent, including under concurrency: exactly one caller
        performs the shutdown, every other (racing or repeat) call
        returns once it has completed. Double-close is a no-op.
        """
        with self._close_lock:
            if self._closed.is_set():
                return
            drained = True
            try:
                self.flush(timeout)
            except TimeoutError:
                drained = False
            self._closed.set()
            self._dispatcher.join(timeout if drained else 0.1)
            # fail anything the dispatcher will never reach: items a racing
            # submit() enqueued after the loop exited, plus (when the drain
            # timed out) the batch wedged inside predict_fn
            while True:
                try:
                    req = self._queue.get_nowait()
                except queue.Empty:
                    break
                self._resolve(
                    req,
                    exception=EngineClosedError(
                        "engine closed before this request was scored"
                    ),
                )
            with self._idle:
                stale = [
                    req for batch, _ in self._inflight.values() for req in batch
                ]
                self._inflight.clear()
            for req in stale:
                self._resolve(
                    req,
                    exception=EngineClosedError(
                        "engine closed while this request was in flight"
                    ),
                )

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Accepted requests not yet resolved (queued or in flight)."""
        with self._idle:
            return self._pending

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting in the queue (approximate)."""
        return self._queue.qsize()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    @property
    def dispatcher_alive(self) -> bool:
        """Whether the current dispatcher generation's thread is running."""
        return self._dispatcher.is_alive()

    @property
    def heartbeat_age_s(self) -> float:
        """Seconds since the dispatch loop last went around."""
        return time.monotonic() - self._heartbeat

    @property
    def restarts(self) -> int:
        """Dispatcher restarts performed (by a watchdog or manually)."""
        with self._idle:
            return self._restarts

    def oldest_inflight_age(self) -> float | None:
        """Age of the longest-running dispatched batch, ``None`` if idle."""
        with self._idle:
            if not self._inflight:
                return None
            started = min(at for _, at in self._inflight.values())
        return time.monotonic() - started

    def restart_dispatcher(self, reason: str = "manual restart") -> int:
        """Fail the in-flight batch and start a fresh dispatcher generation.

        The watchdog's recovery action (see
        :class:`~repro.serving.reliability.DispatcherWatchdog`). Returns
        the number of in-flight futures failed. The superseded thread —
        possibly wedged inside ``predict_fn`` — exits on its next loop
        check because its generation token no longer matches; any late
        results it produces land on already-resolved futures and are
        discarded.
        """
        with self._idle:
            if self._closed.is_set():
                return 0
            self._generation += 1
            generation = self._generation
            stale = [req for batch, _ in self._inflight.values() for req in batch]
            self._inflight.clear()
            self._restarts += 1
        for req in stale:
            self._resolve(
                req, exception=DispatcherRestarted(f"dispatcher restarted: {reason}")
            )
        self.stats.record_watchdog_restart()
        self._start_dispatcher(generation)
        return len(stale)

    # ------------------------------------------------------------------
    def _start_dispatcher(self, generation: int) -> None:
        """Spawn a dispatcher for ``generation`` — iff it is still current.

        Two concurrent restarts each bump the generation; only the spawn
        matching the final generation may run, otherwise both threads
        would pass the loop's generation check and share one queue.
        """
        thread = threading.Thread(
            target=self._dispatch_loop,
            args=(generation,),
            name=f"repro-microbatcher-g{generation}",
            daemon=True,
        )
        with self._idle:
            if generation != self._generation:
                return  # a concurrent restart superseded this spawn
            self._dispatcher = thread
        thread.start()

    def _current(self, generation: int) -> bool:
        with self._idle:
            return generation == self._generation

    def _dispatch_loop(self, generation: int) -> None:
        while not self._closed.is_set() and self._current(generation):
            self._heartbeat = time.monotonic()
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            batch = [first]
            deadline = time.monotonic() + self.max_linger_s
            while len(batch) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0 and self._queue.empty():
                    break
                try:
                    batch.append(self._queue.get(timeout=max(remaining, 0)))
                except queue.Empty:
                    break
            live = self._drop_expired(batch)
            if not live:
                continue
            token = next(self._tokens)
            with self._idle:
                superseded = generation != self._generation
                if not superseded:
                    self._inflight[token] = (live, time.monotonic())
            if superseded:
                # superseded while coalescing: these requests were dequeued
                # but never registered in-flight, so the restart that bumped
                # the generation could not fail them — resolve them here or
                # their futures hang forever and flush() never drains
                for req in live:
                    self._resolve(
                        req,
                        exception=DispatcherRestarted(
                            "dispatcher restarted while this request was "
                            "being coalesced"
                        ),
                    )
                continue
            try:
                self._run_batch(live, token, generation)
            except BaseException:
                # a bug escaped _run_batch; resolve the batch so no
                # submitter hangs, then let the thread die — the watchdog
                # notices the dead dispatcher and restarts it
                for req in live:
                    self._resolve(
                        req,
                        exception=DispatcherRestarted(
                            "dispatch loop crashed while scoring this batch"
                        ),
                    )
                raise
            finally:
                with self._idle:
                    self._inflight.pop(token, None)

    def _drop_expired(self, batch: list[_Request]) -> list[_Request]:
        """Fail expired requests so they don't occupy batch slots."""
        now = time.monotonic()
        live = []
        for req in batch:
            if req.deadline is not None and now >= req.deadline:
                self.stats.record_deadline_drop()
                self._resolve(
                    req,
                    exception=DeadlineExceeded(
                        "request expired in queue before dispatch"
                    ),
                )
            else:
                live.append(req)
        return live

    def _touch_inflight(self, token: int) -> None:
        """Refresh a batch's in-flight timestamp so the watchdog's stall
        clock measures only the current attempt, not retry backoff."""
        with self._idle:
            entry = self._inflight.get(token)
            if entry is not None:
                self._inflight[token] = (entry[0], time.monotonic())

    def _backoff(self, delay: float, token: int, generation: int) -> None:
        """Sleep ``delay`` seconds in small slices, refreshing the in-flight
        timestamp each slice (backoff must not read as a stall) and bailing
        early when the engine closes or the dispatcher is superseded."""
        end = time.monotonic() + delay
        while not self._closed.is_set() and self._current(generation):
            self._touch_inflight(token)
            step = min(0.05, end - time.monotonic())
            if step <= 0:
                return
            self._closed.wait(step)

    def _run_batch(self, batch: list[_Request], token: int, generation: int) -> None:
        runs = [req.run for req in batch]
        attempt = 0
        while True:
            self._touch_inflight(token)  # stall clock restarts per attempt
            t0 = time.perf_counter()
            try:
                diagnoses = self.predict_fn(runs)
                break
            except BaseException as exc:
                policy = self.retry
                if (
                    policy is not None
                    and attempt < policy.max_retries
                    and policy.retryable(exc)
                    and not self._closed.is_set()
                    # a superseded thread must not keep retrying: its futures
                    # were already failed by the restart, and a wedge-prone
                    # predict_fn would score concurrently with the new
                    # dispatcher's
                    and self._current(generation)
                ):
                    self.stats.record_retry()
                    delay = policy.delay(attempt)
                    attempt += 1
                    if delay > 0:
                        self._backoff(delay, token, generation)
                    if self._current(generation) and not self._closed.is_set():
                        continue
                self.stats.record_failed_batch(len(batch))
                for req in batch:  # propagate to every waiter, keep serving
                    self._resolve(req, exception=exc)
                return
        latency_s = time.perf_counter() - t0
        n_out = len(diagnoses) if hasattr(diagnoses, "__len__") else -1
        if n_out != len(runs):
            # a silent zip here would leave the trailing futures hanging
            # forever; fail the whole batch with a typed contract error
            exc = PredictionMismatchError(
                f"predict_fn returned {n_out} diagnoses for {len(runs)} runs"
            )
            self.stats.record_failed_batch(len(batch))
            for req in batch:
                self._resolve(req, exception=exc)
            return
        self.stats.record_batch(len(batch), latency_s)
        for req, diagnosis in zip(batch, diagnoses):
            self._resolve(req, result=diagnosis)

    def _resolve(self, req: _Request, result=None, exception=None) -> bool:
        """Settle one request exactly once; safe across racing resolvers.

        The dispatcher, a watchdog restart, and close() may all try to
        settle the same request; the ``settled`` flag keeps the pending
        count exact and the ``InvalidStateError`` guard absorbs a loser
        racing a future the winner already completed.
        """
        with self._idle:
            if req.settled:
                return False
            req.settled = True
            self._pending -= 1
            self._idle.notify_all()
        try:
            if exception is not None:
                req.future.set_exception(exception)
            elif not req.future.cancelled():
                req.future.set_result(result)
        except InvalidStateError:  # cancelled or raced; the waiter is served
            pass
        return True

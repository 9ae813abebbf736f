"""Tests for the micro-batching inference engine (counting-stub scorer)."""

import math
import threading
import time

import pytest

from repro.core.framework import Diagnosis
from repro.serving.engine import BackpressureError, MicroBatcher
from repro.serving.reliability import EngineClosedError, PredictionMismatchError
from repro.serving.stats import ServiceStats


class CountingModel:
    """Stub scorer: records every batch it is asked to score."""

    def __init__(self, gate: threading.Event | None = None, label: str = "healthy"):
        self.calls: list[int] = []
        self.gate = gate
        self.started = threading.Event()
        self.label = label

    def __call__(self, runs):
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(5.0)
        self.calls.append(len(runs))
        return [Diagnosis(label=self.label, confidence=0.9) for _ in runs]


class TestCoalescing:
    def test_submissions_coalesce_into_few_model_calls(self):
        """N single submissions -> at most ceil(N/max_batch) scoring calls."""
        gate = threading.Event()
        model = CountingModel(gate=gate)
        n, max_batch = 24, 8
        with MicroBatcher(model, max_batch=max_batch, max_linger_s=0.01) as engine:
            # park the dispatcher on a sentinel batch so the real requests
            # queue up behind it and must be coalesced
            sentinel = engine.submit(object())
            assert model.started.wait(5.0)
            futures = [engine.submit(object()) for _ in range(n)]
            gate.set()
            sentinel.result(timeout=5.0)
            results = [f.result(timeout=5.0) for f in futures]
        assert len(results) == n
        assert all(d.label == "healthy" for d in results)
        coalesced = model.calls[1:]  # drop the sentinel batch
        assert len(coalesced) <= math.ceil(n / max_batch)
        assert sum(coalesced) == n
        assert all(size <= max_batch for size in coalesced)

    def test_results_map_back_to_submissions(self):
        model = CountingModel()

        def echo(runs):
            return [Diagnosis(label=f"r{run}", confidence=1.0) for run in runs]

        with MicroBatcher(echo, max_batch=4, max_linger_s=0.01) as engine:
            futures = [engine.submit(i) for i in range(10)]
            labels = [f.result(timeout=5.0) for f in futures]
        assert [d.label for d in labels] == [f"r{i}" for i in range(10)]

    def test_queued_backlog_splits_at_max_batch(self):
        """A backlog larger than max_batch is scored in max_batch slices."""
        gate = threading.Event()
        model = CountingModel(gate=gate)
        with MicroBatcher(model, max_batch=8) as engine:
            sentinel = engine.submit(object())
            assert model.started.wait(5.0)
            futures = [engine.submit(object()) for _ in range(20)]
            gate.set()
            sentinel.result(timeout=5.0)
            out = [f.result(timeout=5.0) for f in futures]
        assert len(out) == 20
        assert model.calls == [1, 8, 8, 4]

    def test_stats_record_batches(self):
        stats = ServiceStats()
        gate = threading.Event()
        model = CountingModel(gate=gate)
        with MicroBatcher(model, max_batch=8, stats=stats) as engine:
            sentinel = engine.submit(object())
            assert model.started.wait(5.0)
            futures = [engine.submit(object()) for _ in range(20)]
            gate.set()
            for future in [sentinel, *futures]:
                future.result(timeout=5.0)
        snap = stats.snapshot()
        assert snap["requests"] == 21
        assert snap["batches"] == 4
        assert snap["batch_size_histogram"] == {1: 1, 4: 1, 8: 2}
        assert snap["mean_batch_size"] == pytest.approx(21 / 4)
        assert snap["mean_batch_latency_s"] >= 0.0


class TestBackpressure:
    def test_error_policy_raises_when_full(self):
        gate = threading.Event()
        model = CountingModel(gate=gate)
        engine = MicroBatcher(
            model, max_batch=1, max_linger_s=0.0, queue_size=2, policy="error"
        )
        try:
            engine.submit(object())  # being scored (parked on the gate)
            assert model.started.wait(5.0)
            engine.submit(object())
            engine.submit(object())
            with pytest.raises(BackpressureError, match="queue full"):
                for _ in range(8):  # the dispatcher may drain one slot
                    engine.submit(object())
        finally:
            gate.set()
            engine.close()

    def test_closed_engine_rejects_submissions(self):
        engine = MicroBatcher(CountingModel())
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit(object())

    def test_close_drains_pending_requests(self):
        model = CountingModel()
        engine = MicroBatcher(model, max_batch=4, max_linger_s=0.05)
        futures = [engine.submit(object()) for _ in range(9)]
        engine.close()
        assert all(f.done() for f in futures)
        assert sum(model.calls) == 9

    def test_close_is_typed(self):
        engine = MicroBatcher(CountingModel())
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.submit(object())


class TestFlushWaitsForInflight:
    def test_flush_blocks_while_a_dispatched_batch_is_scoring(self):
        """Regression: flush must cover dispatched-but-unfinished requests.

        The queue is empty the moment the dispatcher pops the batch, but
        the request is still inside ``predict_fn`` — flush returning
        there would let close() abandon it.
        """
        gate = threading.Event()
        model = CountingModel(gate=gate)
        engine = MicroBatcher(model, max_batch=4, max_linger_s=0.0)
        try:
            future = engine.submit(object())
            assert model.started.wait(5.0)  # dispatched: queue is empty now
            assert engine.queue_depth == 0
            assert engine.pending == 1
            with pytest.raises(TimeoutError, match="did not drain"):
                engine.flush(timeout=0.2)
            gate.set()
            engine.flush(timeout=5.0)
            assert future.done()
            assert future.result(timeout=30.0).label == "healthy"
        finally:
            gate.set()
            engine.close()


class TestFailurePropagation:
    def test_truncating_predict_fails_every_future(self):
        """Regression: a short result list must not hang trailing futures."""
        def truncating(runs):
            return [Diagnosis(label="ok", confidence=1.0) for _ in runs[:-1]]

        with MicroBatcher(truncating, max_batch=4, max_linger_s=0.01) as engine:
            futures = [engine.submit(object()) for _ in range(4)]
            for future in futures:
                with pytest.raises(PredictionMismatchError, match="3 diagnoses"):
                    future.result(timeout=5.0)

    def test_overlong_predict_fails_every_future(self):
        def padding(runs):
            return [Diagnosis(label="ok", confidence=1.0)] * (len(runs) + 2)

        with MicroBatcher(padding, max_batch=4, max_linger_s=0.01) as engine:
            with pytest.raises(PredictionMismatchError):
                engine.submit(object()).result(timeout=5.0)

    def test_scorer_exception_reaches_every_waiter(self):
        def boom(runs):
            raise ValueError("bad batch")

        with MicroBatcher(boom, max_batch=4, max_linger_s=0.01) as engine:
            futures = [engine.submit(object()) for _ in range(3)]
            for future in futures:
                with pytest.raises(ValueError, match="bad batch"):
                    future.result(timeout=5.0)

    def test_poisoned_batch_is_counted_as_failed(self):
        def boom(runs):
            raise ValueError("poisoned")

        stats = ServiceStats()
        # the dispatcher lingers until all nine submissions share one batch
        with MicroBatcher(boom, max_batch=9, max_linger_s=5.0, stats=stats) as engine:
            futures = [engine.submit(object()) for _ in range(9)]
            for future in futures:
                with pytest.raises(ValueError, match="poisoned"):
                    future.result(timeout=10.0)
        snap = stats.snapshot()
        assert snap["failed_batches"] == 1
        assert snap["failed_requests"] == 9
        assert snap["batches"] == 0
        assert snap["batch_size_histogram"] == {}

    def test_mismatched_batch_is_counted_as_failed(self):
        def truncating(runs):
            return [Diagnosis(label="ok", confidence=1.0) for _ in runs[:-1]]

        stats = ServiceStats()
        with MicroBatcher(truncating, max_batch=3, max_linger_s=5.0, stats=stats) as engine:
            futures = [engine.submit(object()) for _ in range(3)]
            for future in futures:
                with pytest.raises(PredictionMismatchError):
                    future.result(timeout=10.0)
        snap = stats.snapshot()
        assert snap["requests"] == 3
        assert snap["failed_batches"] == 1
        assert snap["failed_requests"] == 3
        assert snap["batches"] == 0

    def test_engine_survives_a_failing_batch(self):
        state = {"fail": True}

        def flaky(runs):
            if state["fail"]:
                state["fail"] = False
                raise RuntimeError("transient")
            return [Diagnosis(label="ok", confidence=1.0) for _ in runs]

        with MicroBatcher(flaky, max_batch=4, max_linger_s=0.01) as engine:
            with pytest.raises(RuntimeError):
                engine.submit(object()).result(timeout=5.0)
            assert engine.submit(object()).result(timeout=5.0).label == "ok"


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_batch": 0}, "max_batch"),
            ({"max_linger_s": -1.0}, "max_linger_s"),
            ({"queue_size": 0}, "queue_size"),
            ({"policy": "drop"}, "policy"),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            MicroBatcher(CountingModel(), **kwargs)


class TestIdempotentClose:
    def test_double_close_is_a_noop(self):
        engine = MicroBatcher(CountingModel(), max_batch=4)
        engine.close()
        engine.close()  # second close must not raise or deadlock

    def test_concurrent_close_from_many_threads(self):
        """Racing closers must all return; the engine ends closed exactly
        once (the close lock serializes the drain/join sequence)."""
        model = CountingModel()
        engine = MicroBatcher(model, max_batch=4, max_linger_s=0.01)
        futures = [engine.submit(i) for i in range(8)]
        threads = [
            threading.Thread(target=engine.close) for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
            assert not t.is_alive()
        # close drained the pending work before shutting down
        assert all(f.result(timeout=5.0).label == "healthy" for f in futures)
        with pytest.raises(EngineClosedError):
            engine.submit(99)

    def test_close_after_failed_batch_still_idempotent(self):
        def exploding(runs):
            raise RuntimeError("boom")

        engine = MicroBatcher(exploding, max_batch=2, max_linger_s=0.01)
        future = engine.submit(1)
        with pytest.raises(RuntimeError):
            future.result(timeout=5.0)
        engine.close()
        engine.close()

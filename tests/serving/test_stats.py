"""Tests for the service counters."""

import threading

import pytest

from repro.serving.stats import ServiceStats


class TestSnapshot:
    def test_fresh_snapshot_is_zeroed(self):
        snap = ServiceStats().snapshot()
        assert snap["requests"] == 0
        assert snap["batches"] == 0
        assert snap["batch_size_histogram"] == {}
        assert snap["mean_batch_size"] == 0.0
        assert snap["mean_batch_latency_s"] == 0.0

    def test_counters_accumulate(self):
        stats = ServiceStats()
        stats.record_request(3)
        stats.record_cache_hit()
        stats.record_escalation(2)
        stats.record_swap()
        stats.record_batch(4, 0.5)
        stats.record_batch(2, 1.5)
        snap = stats.snapshot()
        assert snap["requests"] == 3
        assert snap["cache_hits"] == 1
        assert snap["escalations"] == 2
        assert snap["model_swaps"] == 1
        assert snap["batches"] == 2
        assert snap["batch_size_histogram"] == {2: 1, 4: 1}
        assert snap["mean_batch_size"] == pytest.approx(3.0)
        assert snap["mean_batch_latency_s"] == pytest.approx(1.0)
        assert snap["max_batch_latency_s"] == pytest.approx(1.5)

    def test_reset_zeroes_everything(self):
        stats = ServiceStats()
        stats.record_request(5)
        stats.record_batch(5, 0.1)
        stats.reset()
        assert stats.snapshot()["requests"] == 0
        assert stats.snapshot()["batches"] == 0

    def test_concurrent_increments_are_not_lost(self):
        stats = ServiceStats()

        def hammer():
            for _ in range(500):
                stats.record_request()
                stats.record_batch(1, 0.0)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        snap = stats.snapshot()
        assert snap["requests"] == 2000
        assert snap["batches"] == 2000
        assert snap["batch_size_histogram"] == {1: 2000}


class TestEscalationPressureCounters:
    def test_forced_and_refused_accumulate(self):
        stats = ServiceStats()
        stats.record_forced_escalation()
        stats.record_forced_escalation()
        stats.record_refused_escalation()
        snap = stats.snapshot()
        assert snap["escalations_forced"] == 2
        assert snap["escalations_refused"] == 1
        stats.reset()
        snap = stats.snapshot()
        assert snap["escalations_forced"] == 0
        assert snap["escalations_refused"] == 0


class TestFailedBatches:
    def test_failed_batches_accumulate_apart_from_batches(self):
        stats = ServiceStats()
        stats.record_failed_batch(9)
        stats.record_failed_batch(2)
        snap = stats.snapshot()
        assert snap["failed_batches"] == 2
        assert snap["failed_requests"] == 11
        assert snap["batches"] == 0
        stats.reset()
        assert stats.snapshot()["failed_requests"] == 0

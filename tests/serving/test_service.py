"""Tests for the DiagnosisService façade: cache, hot swap, refresh."""

import copy

import pytest

from repro.serving.registry import ModelRegistry
from repro.serving.service import DiagnosisService


@pytest.fixture()
def registry(trained, tmp_path):
    registry = ModelRegistry(tmp_path / "reg")
    registry.publish(trained, tag="seed")
    return registry


class TestServing:
    def test_matches_offline_diagnose(self, registry, trained, corpus):
        pool = corpus["pool"][:6]
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            served = [service.diagnose(run) for run in pool]
        offline = trained.diagnose(pool)
        assert [d.label for d in served] == [d.label for d in offline]
        assert [d.confidence for d in served] == pytest.approx(
            [d.confidence for d in offline]
        )

    def test_submit_matches_diagnose(self, registry, corpus):
        pool = corpus["pool"][:6]
        with DiagnosisService(registry, cache_size=0) as service:
            futures = [service.submit(run) for run in pool]
            submitted = [f.result(timeout=5.0) for f in futures]
            single = [service.diagnose(run) for run in pool]
        assert submitted == single

    def test_submit_is_bit_identical_at_any_max_batch(
        self, registry, trained, corpus
    ):
        """Batching must not change predictions: every batch size scores
        exactly as the offline framework does."""
        runs = corpus["holdout"]
        reference = trained.diagnose(runs)
        for max_batch in (1, 4, 32):
            with DiagnosisService(
                registry, max_batch=max_batch, max_linger_s=0.01, cache_size=0
            ) as service:
                futures = [service.submit(run) for run in runs]
                got = [f.result(timeout=30.0) for f in futures]
            assert [d.label for d in got] == [d.label for d in reference]
            # confidences must be *identical*, not merely close
            assert [d.confidence for d in got] == [
                d.confidence for d in reference
            ], f"confidence drift at max_batch={max_batch}"

    def test_unstarted_service_rejects_requests(self, registry, corpus):
        service = DiagnosisService(registry)
        with pytest.raises(RuntimeError, match="not started"):
            service.diagnose(corpus["pool"][0])
        with pytest.raises(RuntimeError, match="not started"):
            _ = service.version


class TestResultCache:
    def test_repeat_run_hits_cache(self, registry, corpus):
        run = corpus["pool"][0]
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            first = service.diagnose(run)
            again = service.diagnose(run)
        assert again == first
        snap = service.stats.snapshot()
        assert snap["cache_hits"] == 1
        # the second request never reached the scorer
        assert sum(
            size * n for size, n in snap["batch_size_histogram"].items()
        ) == 1

    def test_cache_respects_capacity(self, registry, corpus):
        pool = corpus["pool"][:4]
        with DiagnosisService(registry, cache_size=2) as service:
            for run in pool:
                service.diagnose(run)
            assert len(service._cache) == 2

    def test_cache_disabled(self, registry, corpus):
        run = corpus["pool"][0]
        with DiagnosisService(registry, cache_size=0) as service:
            service.diagnose(run)
            service.diagnose(run)
        assert service.stats.snapshot()["cache_hits"] == 0

    def test_stats_count_cache_hits_as_requests(self, registry, corpus):
        """Every submit counts one request, cache hit or not."""
        pool = corpus["pool"][:5]
        repeats = pool[:2]
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            for run in pool:
                service.submit(run).result(timeout=5.0)
            for run in repeats:  # now cached
                service.submit(run).result(timeout=5.0)
            snap = service.stats.snapshot()
        assert snap["requests"] == len(pool) + len(repeats)
        assert snap["cache_hits"] == len(repeats)
        assert sum(
            size * n for size, n in snap["batch_size_histogram"].items()
        ) == len(pool)


class TestHotSwap:
    def test_swap_mid_stream_keeps_queued_requests(self, registry, trained, corpus):
        grown = copy.deepcopy(trained)
        extra = corpus["pool"][:4]
        grown.absorb(extra, [r.label for r in extra])
        v2 = registry.publish(grown, activate=False)

        pool = corpus["pool"] + corpus["holdout"]
        # a generous linger keeps requests queued while we swap underneath
        with DiagnosisService(
            registry, max_batch=4, max_linger_s=0.25, cache_size=0
        ) as service:
            assert service.version.version_id == "v0001"
            futures = [service.submit(run) for run in pool]
            swapped = service.swap(v2.version_id)
            results = [f.result(timeout=10.0) for f in futures]
        assert swapped.version_id == "v0002"
        assert service.version.version_id == "v0002"
        assert len(results) == len(pool)
        assert all(r.label for r in results)
        assert service.stats.snapshot()["model_swaps"] == 1

    def test_refresh_follows_registry_pointer(self, registry, trained, corpus):
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            assert service.refresh() is False  # pointer unchanged
            registry.publish(copy.deepcopy(trained), tag="next")
            assert service.refresh() is True
            assert service.version.version_id == "v0002"
            # still serves after the swap
            assert service.diagnose(corpus["pool"][0]).label

    def test_unmoved_pointer_refresh_keeps_version_and_cache(
        self, registry, corpus
    ):
        run = corpus["pool"][0]
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            first = service.diagnose(run)
            assert service.refresh() is False
            assert service.version.version_id == "v0001"
            assert len(service._cache) == 1
            assert service.diagnose(run) == first
        snap = service.stats.snapshot()
        assert snap["model_swaps"] == 0
        assert snap["cache_hits"] == 1

    def test_swap_clears_cache(self, registry, trained, corpus):
        run = corpus["pool"][0]
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            service.diagnose(run)
            registry.publish(copy.deepcopy(trained))
            service.refresh()
            assert len(service._cache) == 0

    def test_rollback_then_refresh_restores_old_version(
        self, registry, trained, corpus
    ):
        registry.publish(copy.deepcopy(trained))
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            assert service.version.version_id == "v0002"
            registry.rollback()
            assert service.refresh() is True
            assert service.version.version_id == "v0001"
            assert service.diagnose(corpus["pool"][0]).label


class TestShutdownIdempotency:
    def test_stop_twice_is_a_noop(self, registry):
        service = DiagnosisService(registry)
        service.start()
        service.stop()
        service.stop()  # must not raise
        assert not service.ready()

    def test_context_exit_after_explicit_stop_is_a_noop(self, registry, corpus):
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            assert service.diagnose(corpus["holdout"][0]).label
            service.stop()
            assert not service.ready()
        # __exit__ stopped the stopped service again without raising
        assert not service.ready()
        assert service.stats.snapshot()["requests"] == 1

    def test_closed_engine_surfaces_typed_error_and_not_ready(
        self, registry, corpus
    ):
        from repro.serving.reliability import EngineClosedError

        with DiagnosisService(registry) as service:
            service._engine.close()  # the engine dies under the service
            assert not service.ready()
            with pytest.raises(EngineClosedError):
                service.submit(corpus["holdout"][0])

    def test_stop_without_start_is_a_noop(self, registry):
        DiagnosisService(registry).stop()

    def test_concurrent_stop_callers_all_return(self, registry, corpus):
        import threading

        service = DiagnosisService(registry)
        service.start()
        for run in corpus["holdout"][:4]:
            service.diagnose(run)
        threads = [threading.Thread(target=service.stop) for _ in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
            assert not t.is_alive()
        assert not service.ready()

    def test_stop_mid_stream_resolves_every_future(self, registry, corpus):
        """Stopping while requests are in flight loses no future: each
        resolves with a diagnosis or a typed ServingError."""
        import threading

        from repro.serving.reliability import ServingError

        runs = corpus["holdout"] * 3
        service = DiagnosisService(registry, cache_size=0, max_linger_s=0.02)
        service.start()
        stopper = threading.Thread(target=service.stop)
        futures = []
        for i, run in enumerate(runs):
            try:
                futures.append(service.submit(run))
            except RuntimeError:
                break  # stopped: the service refuses new work
            if i == len(runs) // 3:
                stopper.start()
        stopper.join(10.0)
        assert not stopper.is_alive()
        resolved_ok, resolved_err = 0, 0
        for f in futures:
            try:
                assert f.result(timeout=10.0).label
                resolved_ok += 1
            except ServingError:
                resolved_err += 1
        assert resolved_ok + resolved_err == len(futures)
        assert resolved_ok > 0

    def test_restart_after_stop_serves_again(self, registry, corpus):
        service = DiagnosisService(registry)
        service.start()
        service.stop()
        service.start()
        try:
            assert service.diagnose(corpus["holdout"][0]).label
        finally:
            service.stop()


class TestEscalationVisibility:
    def test_health_surfaces_escalation_pressure_counters(self, registry):
        from repro.serving.escalation import EscalationQueue

        service = DiagnosisService(
            registry, escalation=EscalationQueue(maxlen=4)
        )
        with service:
            health = service.health()
        assert health["escalation_dropped"] == 0
        assert health["escalation_refused"] == 0
        assert health["escalation_forced"] == 0

    def test_stats_surface_forced_and_refused_escalations(self, registry):
        snap = DiagnosisService(registry).stats.snapshot()
        assert snap["escalations_forced"] == 0
        assert snap["escalations_refused"] == 0


class TestFailedBatchVisibility:
    def test_health_counts_a_poisoned_batch(self, registry, corpus):
        def boom(runs):
            raise ValueError("poisoned")

        service = DiagnosisService(registry, max_linger_s=0.0, cache_size=0)
        with service:
            service._engine.predict_fn = boom
            with pytest.raises(ValueError, match="poisoned"):
                service.diagnose(corpus["pool"][0])
            health = service.health()
        assert health["failed_batches"] == 1
        assert health["failed_requests"] == 1


class TestFailedBatchTyping:
    def test_truncating_model_raises_typed_error_from_diagnose(
        self, registry, corpus
    ):
        """A model returning too few diagnoses fails the caller with
        PredictionMismatchError instead of hanging it."""
        from repro.serving.reliability import PredictionMismatchError

        def truncating(predict):
            return lambda runs: predict(runs)[:-1]

        service = DiagnosisService(
            registry, max_linger_s=0.0, cache_size=0,
            predict_wrapper=truncating,
        )
        with service:
            with pytest.raises(PredictionMismatchError):
                service.diagnose(corpus["pool"][0], timeout_s=10.0)
            health = service.health()
        assert health["failed_batches"] == 1
        assert health["failed_requests"] == 1


class TestBoundedDiagnose:
    def test_stuck_future_raises_deadline_exceeded(
        self, registry, corpus, monkeypatch
    ):
        from concurrent.futures import Future

        from repro.serving.reliability import DeadlineExceeded

        service = DiagnosisService(registry)
        stuck: Future = Future()
        monkeypatch.setattr(
            service, "submit", lambda run, deadline_s=None: stuck
        )
        with pytest.raises(DeadlineExceeded, match="did not arrive"):
            service.diagnose(corpus["pool"][0], timeout_s=0.05)
        # the abandoned request is cancelled, not leaked
        assert stuck.cancelled()

    def test_stalled_scorer_raises_deadline_exceeded_then_recovers(
        self, registry, corpus
    ):
        """A real scorer stall (not a mocked future) bounds the caller's
        wait; once the scorer moves again the service serves normally."""
        import threading

        from repro.serving.reliability import DeadlineExceeded

        gate = threading.Event()
        service = DiagnosisService(registry, max_linger_s=0.0, cache_size=0)
        with service:
            predict = service._engine.predict_fn

            def stalled(runs):
                assert gate.wait(10.0)
                return predict(runs)

            service._engine.predict_fn = stalled
            try:
                with pytest.raises(DeadlineExceeded, match="did not arrive"):
                    service.diagnose(corpus["pool"][0], timeout_s=0.05)
            finally:
                gate.set()
            assert service.diagnose(corpus["pool"][1], timeout_s=10.0).label

    def test_timeout_derives_from_configured_deadline(self, registry):
        from repro.serving.reliability import SYNC_WAIT_GRACE_S, sync_wait_s

        service = DiagnosisService(registry, default_deadline_s=2.0)
        derived = sync_wait_s(
            None, service._engine_opts.get("default_deadline_s")
        )
        assert derived == 2.0 + SYNC_WAIT_GRACE_S

    def test_normal_diagnose_still_succeeds(self, registry, corpus):
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            diagnosis = service.diagnose(corpus["pool"][0], timeout_s=10.0)
        assert diagnosis.label

    def test_explicit_timeout_gives_the_default_wait_diagnosis(
        self, registry, corpus
    ):
        run = corpus["pool"][0]
        with DiagnosisService(registry, max_linger_s=0.01, cache_size=0) as service:
            bounded = service.diagnose(run, timeout_s=10.0)
            default = service.diagnose(run)
        assert bounded == default

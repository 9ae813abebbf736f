"""Replay harness: schedule determinism and the exhaustive-census invariant."""

from __future__ import annotations

import pytest

from repro.core.persistence import run_fingerprint
from repro.serving.registry import ModelRegistry
from repro.serving.replay import ECLIPSE_NODES, ReplayStream, replay
from repro.serving.service import DiagnosisService
from repro.testing.faults import FaultInjector, FaultPlan


@pytest.fixture(scope="module")
def registry(tmp_path_factory, trained):
    reg = ModelRegistry(tmp_path_factory.mktemp("replay-registry"))
    reg.publish(trained, tag="replay-base")
    return reg


class TestReplayStream:
    def test_schedule_is_deterministic(self, corpus):
        templates = corpus["holdout"][:4]
        a = ReplayStream(templates, n_nodes=50, ticks=3, seed=7)
        b = ReplayStream(templates, n_nodes=50, ticks=3, seed=7)
        ev_a, ev_b = list(a.events()), list(b.events())
        assert len(ev_a) == len(a) == 150
        assert [(e.tick, e.node_id) for e in ev_a] == [
            (e.tick, e.node_id) for e in ev_b
        ]
        # runs are byte-identical, not merely equal-shaped
        assert [run_fingerprint(e.run) for e in ev_a] == [
            run_fingerprint(e.run) for e in ev_b
        ]

    def test_different_seed_different_schedule(self, corpus):
        templates = corpus["holdout"][:4]
        a = ReplayStream(templates, n_nodes=50, ticks=2, seed=0)
        b = ReplayStream(templates, n_nodes=50, ticks=2, seed=1)
        assert [(e.tick, e.node_id) for e in a.events()] != [
            (e.tick, e.node_id) for e in b.events()
        ]

    def test_events_carry_patched_node_ids(self, corpus):
        stream = ReplayStream(corpus["holdout"][:2], n_nodes=10, ticks=1)
        for event in stream.events():
            assert event.run.node_id == event.node_id
            assert 0 <= event.node_id < 10

    def test_emit_per_tick_subsamples_without_repeats(self, corpus):
        stream = ReplayStream(
            corpus["holdout"][:2], n_nodes=30, ticks=2, emit_per_tick=5
        )
        events = list(stream.events())
        assert len(events) == len(stream) == 10
        for tick in (0, 1):
            nodes = [e.node_id for e in events if e.tick == tick]
            assert len(nodes) == len(set(nodes)) == 5

    def test_defaults_to_eclipse_scale(self, corpus):
        stream = ReplayStream(corpus["holdout"][:1], ticks=1)
        assert stream.n_nodes == ECLIPSE_NODES
        assert len(stream) == ECLIPSE_NODES

    def test_validation(self, corpus):
        with pytest.raises(ValueError):
            ReplayStream([])
        with pytest.raises(ValueError):
            ReplayStream(corpus["holdout"][:1], n_nodes=0)
        with pytest.raises(ValueError):
            ReplayStream(corpus["holdout"][:1], ticks=0)
        with pytest.raises(ValueError):
            ReplayStream(corpus["holdout"][:1], n_nodes=5, emit_per_tick=6)


class TestReplayDrive:
    def test_census_is_exhaustive_on_clean_service(self, registry, corpus):
        stream = ReplayStream(
            corpus["holdout"][:3], n_nodes=40, ticks=2, seed=3
        )
        ticks_seen = []
        with DiagnosisService(registry, cache_size=0) as service:
            report = replay(
                service,
                stream,
                on_tick=ticks_seen.append,
                keep_diagnoses=True,
            )
        assert report.n_events == len(stream)
        assert report.n_ok + report.n_failed == report.n_events
        assert report.n_failed == 0 and not report.failures
        assert len(report.diagnoses) == report.n_ok
        assert ticks_seen == [0, 1]
        assert report.sustained_rps > 0
        assert report.p99_ms >= report.p50_ms > 0
        json_doc = report.as_json()
        assert "diagnoses" not in json_doc
        assert json_doc["n_ok"] == report.n_ok

    def test_replay_matches_offline_diagnose(self, registry, trained, corpus):
        """The bench's parity precondition: a replayed stream scores
        bit-for-bit as the offline framework scores the same runs."""
        stream = ReplayStream(corpus["holdout"][:3], n_nodes=60, ticks=2, seed=5)
        with DiagnosisService(registry, cache_size=0) as service:
            got = replay(service, stream, keep_diagnoses=True)
        ref = trained.diagnose([event.run for event in stream.events()])
        assert got.n_failed == 0
        assert [d.label for d in got.diagnoses] == [d.label for d in ref]
        assert [d.confidence for d in got.diagnoses] == [
            d.confidence for d in ref
        ]

    def test_repeat_replay_from_cache_is_identical(self, registry, corpus):
        """A second drive of the same stream is served from the result
        cache and reports the very same diagnoses as the scored drive."""
        stream = ReplayStream(corpus["holdout"][:3], n_nodes=30, ticks=2, seed=7)
        with DiagnosisService(registry, max_linger_s=0.01) as service:
            scored = replay(service, stream, keep_diagnoses=True)
            hits_before = service.stats.snapshot()["cache_hits"]
            cached = replay(service, stream, keep_diagnoses=True)
            hits_after = service.stats.snapshot()["cache_hits"]
        assert scored.n_failed == cached.n_failed == 0
        assert hits_after - hits_before == len(stream)
        assert [d.label for d in cached.diagnoses] == [
            d.label for d in scored.diagnoses
        ]
        assert [d.confidence for d in cached.diagnoses] == [
            d.confidence for d in scored.diagnoses
        ]

    def test_faulted_service_census_is_exhaustive(self, registry, corpus):
        """Scorer crashes and a dispatcher restart mid-replay show up as
        typed failures — never as silently missing events."""
        injector = FaultInjector(FaultPlan.script(["ok", "ok", "raise:3"]))
        service = DiagnosisService(
            registry,
            cache_size=0,
            predict_wrapper=injector.wrap,
            watchdog_stall_s=5.0,
        )
        stream = ReplayStream(
            corpus["holdout"][:3], n_nodes=80, ticks=3, seed=9
        )

        def on_tick(tick: int) -> None:
            if tick == 1:
                service._engine.restart_dispatcher("replay chaos")

        with service:
            report = replay(service, stream, on_tick=on_tick)
            restarts = service.health()["dispatcher_restarts"]
        assert "raise" in injector.log  # the plan was actually installed
        assert restarts == 1
        assert report.n_ok + report.n_failed == report.n_events
        assert report.n_failed == sum(report.failures.values())
        assert set(report.failures) <= {"InjectedFault", "DispatcherRestarted"}
        assert report.failures.get("InjectedFault", 0) > 0
        assert report.n_ok > 0  # the service kept serving after the faults

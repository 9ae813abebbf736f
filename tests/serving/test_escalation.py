"""Tests for the annotation escalation queue and the closed online loop."""

import copy

import numpy as np
import pytest

from repro.active.stream import ThresholdController
from repro.core.framework import Diagnosis
from repro.mlcore import f1_score
from repro.serving.escalation import EscalationQueue, apply_annotations
from repro.serving.registry import ModelRegistry
from repro.serving.service import DiagnosisService


def _diag(confidence):
    return Diagnosis(label="healthy", confidence=confidence)


def _serve(service, runs):
    """Submit every run, then wait for all of them (one coalesced pass)."""
    futures = [service.submit(run) for run in runs]
    return [f.result(timeout=30.0) for f in futures]

class TestQueue:
    def test_low_confidence_escalates(self):
        queue = EscalationQueue(ThresholdController(threshold=0.3, target_rate=None))
        assert queue.offer("run-a", _diag(confidence=0.4)) is True  # U = 0.6
        assert queue.offer("run-b", _diag(confidence=0.95)) is False  # U = 0.05
        assert len(queue) == 1
        item = queue.drain()[0]
        assert item.run == "run-a"
        assert item.uncertainty == pytest.approx(0.6)
        assert item.threshold == pytest.approx(0.3)

    def test_drain_is_fifo_and_bounded(self):
        queue = EscalationQueue(ThresholdController(threshold=0.0, target_rate=None))
        for i in range(5):
            queue.offer(f"run-{i}", _diag(confidence=0.2))
        first_two = queue.drain(2)
        assert [item.run for item in first_two] == ["run-0", "run-1"]
        assert len(queue) == 3

    def test_overflow_drops_oldest(self):
        queue = EscalationQueue(
            ThresholdController(threshold=0.0, target_rate=None), maxlen=2
        )
        for i in range(4):
            queue.offer(f"run-{i}", _diag(confidence=0.2))
        assert queue.n_dropped == 2
        assert [item.run for item in queue.drain()] == ["run-2", "run-3"]

    def test_adaptive_threshold_tightens_under_load(self):
        queue = EscalationQueue(
            ThresholdController(threshold=0.1, target_rate=0.1, adapt_step=0.1)
        )
        t0 = queue.controller.threshold
        queue.offer("run", _diag(confidence=0.2))  # escalated
        assert queue.controller.threshold > t0

    def test_escalation_rate_tracks_controller(self):
        queue = EscalationQueue(ThresholdController(threshold=0.5, target_rate=None))
        queue.offer("a", _diag(confidence=0.1))
        queue.offer("b", _diag(confidence=0.9))
        assert queue.escalation_rate == pytest.approx(0.5)

    def test_bad_maxlen_rejected(self):
        with pytest.raises(ValueError, match="maxlen"):
            EscalationQueue(maxlen=0)


class TestClosedLoop:
    """Low confidence -> escalation -> annotation -> better published model."""

    def test_annotated_escalations_produce_no_worse_version(
        self, tiny_config, corpus, tmp_path
    ):
        from repro.core.config import FrameworkConfig
        from repro.core.framework import ALBADross

        # deliberately weak v1: one labeled example per (app, label) cell
        seen, tiny_seed = set(), []
        for run in corpus["train"]:
            key = (run.app, run.label)
            if key not in seen:
                seen.add(key)
                tiny_seed.append(run)
        # enough trees that ensemble variance doesn't swamp the closed-loop
        # signal: a 5-tree forest on a 30-run holdout swings ~0.3 macro-F1
        # between seeds, drowning the "more annotations help" effect
        weak = ALBADross(
            tiny_config.catalog,
            FrameworkConfig(n_features=30, model_params={"n_estimators": 30}),
        )
        weak.fit_features(corpus["all"])
        weak.fit_initial(tiny_seed, [r.label for r in tiny_seed])

        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(weak, tag="weak")
        truth = {id(run): run.label for run in corpus["pool"]}

        escalation = EscalationQueue(
            ThresholdController(threshold=0.25, target_rate=None)
        )
        with DiagnosisService(
            registry, max_linger_s=0.01, escalation=escalation
        ) as service:
            _serve(service, corpus["pool"])
            assert len(escalation) > 0
            assert service.stats.snapshot()["escalations"] == len(escalation)
            new_version = service.retrain_and_publish(
                annotator=lambda item: truth[id(item.run)], tag="annotated"
            )
            assert new_version is not None
            assert new_version.version_id == "v0002"
            assert service.version.version_id == "v0002"

        holdout = corpus["holdout"]
        y_true = np.array([r.label for r in holdout])
        old_fw, _ = registry.load("v0001")
        new_fw, _ = registry.load("v0002")
        old_f1 = f1_score(y_true, np.array([d.label for d in old_fw.diagnose(holdout)]))
        new_f1 = f1_score(y_true, np.array([d.label for d in new_fw.diagnose(holdout)]))
        assert new_f1 >= old_f1

    def test_apply_annotations_without_registry(self, trained, corpus):
        fw = copy.deepcopy(trained)
        queue = EscalationQueue(ThresholdController(threshold=0.0, target_rate=None))
        pool = corpus["pool"][:3]
        for run, diagnosis in zip(pool, fw.diagnose(pool)):
            queue.offer(run, diagnosis)
        n_before = len(fw._y_seed)
        refit, version = apply_annotations(
            fw, queue.drain(), annotator=lambda item: item.run.label
        )
        assert version is None
        assert len(refit._y_seed) == n_before + 3

    def test_annotator_may_skip_items(self, trained, corpus):
        fw = copy.deepcopy(trained)
        queue = EscalationQueue(ThresholdController(threshold=0.0, target_rate=None))
        pool = corpus["pool"][:2]
        for run, diagnosis in zip(pool, fw.diagnose(pool)):
            queue.offer(run, diagnosis)
        refit, version = apply_annotations(
            fw, queue.drain(), annotator=lambda item: None
        )
        assert version is None
        assert refit is fw

    def test_retrain_without_queue_rejected(self, trained, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(trained)
        with DiagnosisService(registry) as service:
            with pytest.raises(RuntimeError, match="escalation"):
                service.retrain_and_publish(annotator=lambda item: "healthy")

    def test_retrain_with_empty_queue_is_noop(self, trained, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(trained)
        service = DiagnosisService(
            registry, escalation=EscalationQueue()
        ).start()
        try:
            assert service.retrain_and_publish(annotator=lambda i: "healthy") is None
            assert service.version.version_id == "v0001"
        finally:
            service.stop()


class TestWarmRetrain:
    """retrain_and_publish with the incremental (warm) refit path."""

    def _warm_framework(self, tiny_config, corpus):
        from repro.core.config import FrameworkConfig
        from repro.core.framework import ALBADross

        fw = ALBADross(
            tiny_config.catalog,
            FrameworkConfig(
                n_features=30,
                model_params={"n_estimators": 6},
                splitter="hist",
                warm_start=True,
            ),
        )
        fw.fit_features(corpus["all"])
        fw.fit_initial(corpus["train"], [r.label for r in corpus["train"]])
        return fw

    def test_warm_retrain_counts_in_stats(self, tiny_config, corpus, tmp_path):
        fw = self._warm_framework(tiny_config, corpus)
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(fw)
        escalation = EscalationQueue(
            ThresholdController(threshold=0.0, target_rate=None)
        )
        with DiagnosisService(
            registry, max_linger_s=0.01, escalation=escalation
        ) as service:
            _serve(service, corpus["pool"][:6])
            assert len(escalation) > 0
            version = service.retrain_and_publish(
                annotator=lambda item: item.run.label, warm=True
            )
            assert version is not None
            snap = service.stats.snapshot()
            assert snap["warm_refits"] == 1
            assert snap["model_swaps"] == 1

    def test_cold_retrain_does_not_count(self, tiny_config, corpus, tmp_path):
        fw = self._warm_framework(tiny_config, corpus)
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(fw)
        escalation = EscalationQueue(
            ThresholdController(threshold=0.0, target_rate=None)
        )
        with DiagnosisService(
            registry, max_linger_s=0.01, escalation=escalation
        ) as service:
            _serve(service, corpus["pool"][:4])
            version = service.retrain_and_publish(
                annotator=lambda item: item.run.label, warm=False
            )
            assert version is not None
            assert service.stats.snapshot()["warm_refits"] == 0

    def test_absorb_warm_grows_model_in_place(self, tiny_config, corpus):
        fw = self._warm_framework(tiny_config, corpus)
        model_before = fw.model
        n_before = len(fw._y_seed)
        pool = corpus["pool"][:3]
        fw.absorb(pool, [r.label for r in pool])  # config says warm
        assert fw.last_absorb_warm is True
        assert fw.model is model_before  # refit in place, not rebuilt
        assert len(fw._y_seed) == n_before + 3

    def test_absorb_falls_back_cold_for_exact_models(self, trained, corpus):
        fw = copy.deepcopy(trained)  # exact splitter: no binned dataset
        pool = corpus["pool"][:2]
        fw.absorb(pool, [r.label for r in pool], warm=True)
        assert fw.last_absorb_warm is False

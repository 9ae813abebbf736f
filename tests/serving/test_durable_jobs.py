"""Durable annotation jobs on the DiagnosisService.

With a :class:`~repro.serving.jobs.JobQueue` behind its escalation queue,
the service loses nothing durable: parked escalations reach the store at
``stop()``, and ``retrain_and_publish`` runs an at-least-once job cycle in
which a crash before the final ack leaves every job claimable again.
"""

from __future__ import annotations

import pytest

from repro.core.persistence import run_fingerprint
from repro.serving.escalation import EscalationQueue, process_one_retrain
from repro.serving.jobs import (
    ESCALATION_KIND,
    RETRAIN_KIND,
    JobQueue,
    JobState,
    item_from_payload,
)
from repro.serving.registry import ModelRegistry
from repro.serving.service import DiagnosisService


@pytest.fixture()
def registry(tmp_path, trained):
    reg = ModelRegistry(tmp_path / "registry")
    reg.publish(trained, tag="durable-base")
    return reg


def _durable_service(registry, jobs):
    return DiagnosisService(
        registry, escalation=EscalationQueue(store=jobs), cache_size=0
    )


def _force_escalate(service, runs):
    """Park exactly ``runs``: drop whatever the adaptive controller chose
    on its own, then force-escalate each run so job counts are exact."""
    diagnoses = [service.submit(run).result(timeout=30.0) for run in runs]
    service.escalation.drain()
    for run, diagnosis in zip(runs, diagnoses):
        service.escalation.offer_forced(run, diagnosis)
    assert len(service.escalation) == len(runs)


class TestStopFlushes:
    def test_stop_flushes_parked_escalations_into_the_store(
        self, registry, corpus, tmp_path
    ):
        jobs = JobQueue(tmp_path / "jobs.db")
        service = _durable_service(registry, jobs)
        runs = corpus["pool"][:4]
        with service:
            _force_escalate(service, runs)
            assert jobs.counts()[JobState.PENDING] == 0
        assert len(service.escalation) == 0
        assert jobs.counts()[JobState.PENDING] == len(runs)
        stored = [
            item_from_payload(job.payload).run
            for job in jobs.list_jobs(kind=ESCALATION_KIND)
        ]
        assert [run_fingerprint(run) for run in stored] == [
            run_fingerprint(run) for run in runs
        ]
        service.stop()  # a second stop writes nothing more
        assert jobs.counts()[JobState.PENDING] == len(runs)
        jobs.close()


class TestDurableRetrain:
    def test_escalations_flow_to_store_and_retrain_publishes(
        self, registry, corpus, tmp_path
    ):
        jobs = JobQueue(tmp_path / "jobs.db")
        service = _durable_service(registry, jobs)
        runs = corpus["pool"][:6]
        with service:
            v_before = service.version.version_id
            _force_escalate(service, runs)
            version = service.retrain_and_publish(
                lambda item: item.run.label, tag="durable-retrain"
            )
            assert version is not None
            assert version.tag == "durable-retrain"
            assert service.version.version_id == version.version_id
            assert version.version_id != v_before
        # every escalation job and the retrain order are DONE; nothing stuck
        counts = jobs.counts()
        assert counts[JobState.DONE] == len(runs) + 1
        assert counts[JobState.CLAIMED] == 0
        assert counts[JobState.PENDING] == 0
        jobs.close()

    def test_crashed_annotator_redelivers_the_whole_cycle(
        self, registry, corpus, tmp_path
    ):
        jobs = JobQueue(
            tmp_path / "jobs.db", backoff_base_s=0.0, max_attempts=5
        )
        service = _durable_service(registry, jobs)
        runs = corpus["pool"][:3]
        with service:
            v_before = service.version.version_id
            _force_escalate(service, runs)

            def crashing_annotator(item):
                raise RuntimeError("annotator died mid-cycle")

            with pytest.raises(RuntimeError, match="mid-cycle"):
                service.retrain_and_publish(crashing_annotator)
            assert service.version.version_id == v_before
            # nothing was acked: all jobs are redeliverable, none DONE
            counts = jobs.counts()
            assert counts[JobState.DONE] == 0
            assert counts[JobState.CLAIMED] == 0
            assert (
                counts[JobState.PENDING] + counts[JobState.FAILED]
                == len(runs) + 1
            )
            # the next cycle (a healthy annotator) completes the identical
            # escalations, plus its own no-op order
            version = service.retrain_and_publish(lambda item: item.run.label)
            assert version is not None
            assert service.version.version_id == version.version_id
            counts = jobs.counts()
            assert counts[JobState.DONE] == len(runs) + 1
            assert counts[JobState.PENDING] + counts[JobState.FAILED] == 1
            # the redelivered order from the crashed cycle is acked as a no-op
            assert process_one_retrain(jobs, registry, lambda i: "x") is None
            assert jobs.counts()[JobState.DONE] == len(runs) + 2
        jobs.close()

    def test_retrain_without_store_uses_in_memory_path(
        self, registry, corpus, tmp_path
    ):
        service = DiagnosisService(
            registry, escalation=EscalationQueue(), cache_size=0
        )
        runs = corpus["pool"][:4]
        with service:
            _force_escalate(service, runs)
            version = service.retrain_and_publish(lambda item: item.run.label)
            assert version is not None
            assert service.version.version_id == version.version_id
        assert len(service.escalation) == 0
        assert not list(tmp_path.glob("*.db"))

    def test_process_one_retrain_with_no_order_is_noop(self, registry, tmp_path):
        jobs = JobQueue(tmp_path / "jobs.db")
        assert process_one_retrain(jobs, registry, lambda i: "x") is None
        jobs.close()

    def test_retrain_order_with_no_escalations_acks_as_noop(
        self, registry, tmp_path
    ):
        jobs = JobQueue(tmp_path / "jobs.db")
        jobs.enqueue(RETRAIN_KIND, {"tag": None})
        assert process_one_retrain(jobs, registry, lambda i: "x") is None
        assert jobs.counts()[JobState.DONE] == 1
        jobs.close()

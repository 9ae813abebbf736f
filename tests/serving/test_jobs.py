"""Durable job queue: the at-least-once state machine, end to end.

Covers the lease lifecycle (claim → ack/nack), visibility-timeout
redelivery, backoff scheduling, the DEAD shelf, token fencing against
zombie workers, operator requeue/purge/release, persistence across
reopen, and — the reason the queue exists — a real subprocess crash
mid-claim that must lose nothing.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.serving.jobs import (
    ESCALATION_KIND,
    JobQueue,
    JobQueueError,
    JobState,
    StaleClaimError,
    escalation_payload,
    item_from_payload,
)


class FakeClock:
    """Injectable wall clock so lease expiry tests never sleep."""

    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def queue(tmp_path, clock):
    q = JobQueue(tmp_path / "jobs.db", visibility_timeout_s=10.0,
                 max_attempts=3, backoff_base_s=1.0, time_fn=clock)
    yield q
    q.close()


class TestLifecycle:
    def test_enqueue_claim_ack(self, queue):
        job = queue.enqueue("work", {"n": 1})
        assert job.state == JobState.PENDING
        claimed = queue.claim(n=1, worker="w0")
        assert len(claimed) == 1
        assert claimed[0].state == JobState.CLAIMED
        assert claimed[0].claim_worker == "w0"
        assert claimed[0].claim_token
        done = queue.ack(claimed[0].job_id, claimed[0].claim_token)
        assert done.state == JobState.DONE
        assert queue.counts()[JobState.DONE] == 1

    def test_claim_is_fifo_and_bounded(self, queue):
        ids = [queue.enqueue("work", {"n": i}).job_id for i in range(5)]
        first = queue.claim(n=2)
        assert [j.job_id for j in first] == ids[:2]
        rest = queue.claim(n=10)
        assert [j.job_id for j in rest] == ids[2:]
        assert queue.claim(n=1) == []

    def test_claim_filters_by_kind(self, queue):
        queue.enqueue("alpha", {})
        beta = queue.enqueue("beta", {})
        claimed = queue.claim(kinds=["beta"], n=5)
        assert [j.job_id for j in claimed] == [beta.job_id]

    def test_nack_schedules_backoff_then_redelivers(self, queue, clock):
        job = queue.enqueue("work", {})
        c = queue.claim()[0]
        failed = queue.nack(c.job_id, c.claim_token, "boom")
        assert failed.state == JobState.FAILED
        assert failed.attempts == 1
        assert failed.last_error == "boom"
        assert failed.not_before == pytest.approx(clock() + 1.0)  # base * 2^0
        assert queue.claim() == []  # backoff not yet elapsed
        clock.advance(1.1)
        again = queue.claim()
        assert [j.job_id for j in again] == [job.job_id]

    def test_exhausted_attempts_land_on_dead_shelf(self, queue, clock):
        job = queue.enqueue("work", {}, max_attempts=2)
        for expected_state in (JobState.FAILED, JobState.DEAD):
            clock.advance(100.0)
            c = queue.claim()[0]
            after = queue.nack(c.job_id, c.claim_token, "still broken")
            assert after.state == expected_state
        assert queue.claim() == []  # DEAD jobs never redeliver
        assert queue.get(job.job_id).attempts == 2

    def test_not_before_delays_delivery(self, queue, clock):
        queue.enqueue("work", {}, not_before=clock() + 50.0)
        assert queue.claim() == []
        clock.advance(51.0)
        assert len(queue.claim()) == 1


class TestVisibilityTimeout:
    def test_expired_lease_redelivers_with_attempt_counted(self, queue, clock):
        job = queue.enqueue("work", {})
        first = queue.claim(worker="w0")[0]
        assert queue.claim(worker="w1") == []  # lease is live
        clock.advance(10.5)  # past visibility_timeout_s
        second = queue.claim(worker="w1")
        assert [j.job_id for j in second] == [job.job_id]
        assert second[0].attempts == first.attempts + 1
        assert second[0].claim_worker == "w1"
        assert second[0].claim_token != first.claim_token

    def test_poison_job_terminates_in_dead(self, queue, clock):
        """A job whose worker always dies cannot redeliver forever."""
        job = queue.enqueue("work", {}, max_attempts=3)
        for delivery in range(3):  # the budget: three deliveries
            claimed = queue.claim(worker="doomed")
            assert len(claimed) == 1
            assert claimed[0].attempts == delivery
            clock.advance(11.0)  # worker dies, lease lapses
        # the next claim buries the spent job instead of redelivering
        assert queue.claim(worker="doomed") == []
        assert queue.counts()[JobState.DEAD] == 1
        assert queue.get(job.job_id).attempts == 3

    def test_extend_keeps_lease_alive(self, queue, clock):
        queue.enqueue("work", {})
        c = queue.claim(worker="w0")[0]
        clock.advance(8.0)
        queue.extend(c.job_id, c.claim_token, 20.0)
        clock.advance(5.0)  # past original deadline, inside extension
        assert queue.claim(worker="w1") == []
        done = queue.ack(c.job_id, c.claim_token)
        assert done.state == JobState.DONE


class TestTokenFencing:
    def test_stale_ack_after_redelivery_is_refused(self, queue, clock):
        queue.enqueue("work", {})
        old = queue.claim(worker="w0")[0]
        clock.advance(11.0)
        new = queue.claim(worker="w1")[0]
        with pytest.raises(StaleClaimError):
            queue.ack(old.job_id, old.claim_token)
        # the live lease still completes
        assert queue.ack(new.job_id, new.claim_token).state == JobState.DONE

    def test_double_ack_is_refused(self, queue):
        queue.enqueue("work", {})
        c = queue.claim()[0]
        queue.ack(c.job_id, c.claim_token)
        with pytest.raises(StaleClaimError):
            queue.ack(c.job_id, c.claim_token)

    def test_stale_nack_is_refused(self, queue, clock):
        queue.enqueue("work", {})
        old = queue.claim()[0]
        clock.advance(11.0)
        queue.claim()  # redelivered under a new token
        with pytest.raises(StaleClaimError):
            queue.nack(old.job_id, old.claim_token, "late")


class TestOperatorActions:
    def test_requeue_dead_job(self, queue, clock):
        queue.enqueue("work", {}, max_attempts=1)
        c = queue.claim()[0]
        assert queue.nack(c.job_id, c.claim_token, "x").state == JobState.DEAD
        revived = queue.requeue(c.job_id)
        assert revived.state == JobState.PENDING
        assert revived.attempts == 0
        assert len(queue.claim()) == 1

    def test_requeue_done_job_is_an_error(self, queue):
        queue.enqueue("work", {})
        c = queue.claim()[0]
        queue.ack(c.job_id, c.claim_token)
        with pytest.raises(JobQueueError):
            queue.requeue(c.job_id)

    def test_purge(self, queue):
        queue.enqueue("work", {})
        c = queue.claim()[0]
        queue.ack(c.job_id, c.claim_token)
        queue.enqueue("work", {})
        assert queue.purge([JobState.DONE]) == 1
        assert queue.counts()[JobState.DONE] == 0
        assert queue.counts()[JobState.PENDING] == 1
        with pytest.raises(ValueError):
            queue.purge(["NOT_A_STATE"])


class TestPersistence:
    def test_jobs_survive_reopen(self, tmp_path, clock):
        path = tmp_path / "jobs.db"
        with JobQueue(path, time_fn=clock) as q:
            q.enqueue("work", {"payload": [1, 2, 3]})
        with JobQueue(path, time_fn=clock) as q:
            jobs = q.list_jobs()
            assert len(jobs) == 1
            assert jobs[0].payload == {"payload": [1, 2, 3]}
            assert len(q.claim()) == 1

    def test_concurrent_claimers_never_double_claim(self, tmp_path):
        q = JobQueue(tmp_path / "jobs.db", visibility_timeout_s=60.0)
        n_jobs = 40
        for i in range(n_jobs):
            q.enqueue("work", {"n": i})
        seen: list[int] = []
        lock = threading.Lock()

        def worker(name: str) -> None:
            while True:
                got = q.claim(n=3, worker=name)
                if not got:
                    return
                with lock:
                    seen.extend(j.job_id for j in got)
                for j in got:
                    q.ack(j.job_id, j.claim_token)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert sorted(seen) == list(range(1, n_jobs + 1))  # each exactly once
        assert q.counts()[JobState.DONE] == n_jobs
        q.close()


CRASH_WORKER = r"""
import sys, os, json
sys.path.insert(0, {src!r})
from repro.serving.jobs import JobQueue

q = JobQueue({db!r}, visibility_timeout_s=0.5)
claimed = q.claim(n={n_claim}, worker="crasher")
print(json.dumps([j.job_id for j in claimed]), flush=True)
# simulate a hard crash mid-claim: no ack, no nack, no close, no cleanup
os._exit(1)
"""


class TestCrashRecovery:
    """The at-least-once proof: a process dying mid-claim loses nothing."""

    def test_subprocess_crash_mid_claim_redelivers_every_job(self, tmp_path):
        src = str(Path(__file__).resolve().parents[2] / "src")
        db = str(tmp_path / "jobs.db")
        with JobQueue(db, visibility_timeout_s=0.5) as q:
            ids = {q.enqueue("work", {"n": i}).job_id for i in range(6)}

        script = CRASH_WORKER.format(src=src, db=db, n_claim=4)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1  # it really did die
        crashed_ids = set(json.loads(proc.stdout))
        assert len(crashed_ids) == 4

        # reopen from the survivor's side: the crashed claims are leases
        # that lapse, after which every job redelivers exactly until DONE
        import time as _time

        with JobQueue(db, visibility_timeout_s=0.5) as q:
            counts = q.counts()
            assert counts[JobState.CLAIMED] == 4  # leases visible post-crash
            deadline = _time.time() + 30.0
            done: set[int] = set()
            while len(done) < len(ids) and _time.time() < deadline:
                for job in q.claim(n=10, worker="survivor"):
                    q.ack(job.job_id, job.claim_token)
                    done.add(job.job_id)
                _time.sleep(0.05)
            assert done == ids  # no job silently lost, none double-DONE
            final = q.counts()
            assert final[JobState.DONE] == len(ids)
            assert final[JobState.CLAIMED] == 0
            assert final[JobState.DEAD] == 0


class TestEscalationPayloadCodec:
    def test_roundtrip_is_bit_exact(self, trained, corpus):
        from repro.core.framework import Diagnosis
        from repro.serving.escalation import EscalationItem

        run = corpus["holdout"][0]
        item = EscalationItem(
            run=run,
            diagnosis=Diagnosis(label="membw", confidence=0.42),
            uncertainty=0.58,
            threshold=0.5,
        )
        payload = escalation_payload(item)
        json.dumps(payload)  # must be JSON-serializable as-is
        back = item_from_payload(payload)
        import numpy as np

        # telemetry matrices carry NaNs (missing samples); byte-level
        # equality is asserted via the fingerprint below
        assert np.array_equal(back.run.data, run.data, equal_nan=True)
        assert back.run.app == run.app
        assert back.run.node_id == run.node_id
        assert back.run.metric_names == run.metric_names
        assert back.diagnosis.label == "membw"
        assert back.diagnosis.confidence == pytest.approx(0.42)
        from repro.core.persistence import run_fingerprint

        assert run_fingerprint(back.run) == run_fingerprint(run)

    def test_escalation_queue_flushes_to_store(self, tmp_path, corpus):
        from repro.core.framework import Diagnosis
        from repro.serving.escalation import EscalationQueue

        store = JobQueue(tmp_path / "jobs.db")
        queue = EscalationQueue(store=store)
        run = corpus["holdout"][0]
        assert queue.offer_forced(run, Diagnosis(label="x", confidence=0.0))
        assert queue.offer_forced(run, Diagnosis(label="y", confidence=0.1))
        assert len(queue) == 2
        assert queue.flush_to_store() == 2
        assert len(queue) == 0
        jobs = store.list_jobs(kind=ESCALATION_KIND)
        assert len(jobs) == 2
        assert item_from_payload(jobs[0].payload).diagnosis.label == "x"
        store.close()

    def test_flush_without_store_raises(self):
        from repro.serving.escalation import EscalationQueue

        with pytest.raises(RuntimeError):
            EscalationQueue().flush_to_store()

"""Durable at-least-once job queue backed by a single SQLite file.

The in-memory :class:`~repro.serving.escalation.EscalationQueue` loses
its contents when the serving process dies — acceptable for one archive,
not for a production service that must never silently drop an
annotation request or a retrain order. This module supplies the persistence layer: a
:class:`JobQueue` over one SQLite database (WAL mode, stdlib ``sqlite3``
only) with the classic at-least-once state machine

::

    PENDING ──claim──▶ CLAIMED ──ack──▶ DONE
       ▲                 │
       │                 ├─nack─▶ FAILED ──(backoff elapses)──▶ PENDING
       │                 │           │
       └───(visibility───┘           └──(attempts exhausted)──▶ DEAD
            timeout)

* **Claims are leases.** ``claim()`` atomically moves jobs to CLAIMED
  under a per-claim token and a visibility deadline; a worker that dies
  mid-claim simply stops heartbeating, the deadline lapses, and the next
  ``claim()`` redelivers the job (counting the lost lease as one
  attempt, so a poison job that kills every worker still terminates in
  DEAD).
* **Acks are fenced.** ``ack``/``nack`` require the claim token; a
  zombie worker whose lease expired and was redelivered elsewhere cannot
  complete the newer delivery — its stale token is refused. Double
  processing remains possible (that is the "at-least-once" contract);
  double *completion* of one delivery is not.
* **Failures back off.** ``nack`` schedules the retry at
  ``backoff_base_s * 2**attempts`` (capped), and moves the job to the
  DEAD shelf once ``max_attempts`` deliveries have failed. DEAD jobs
  stay inspectable until an operator ``requeue``\\ s or ``purge``\\ s
  them.

Escalation items and retrain orders are the two job kinds the service
ships through the queue (see :func:`escalation_payload` /
:func:`item_from_payload` and
:meth:`~repro.serving.service.DiagnosisService.retrain_and_publish`), but
the queue itself is payload-agnostic: any JSON-serializable dict rides.

``time_fn`` is injectable so lease-expiry tests don't sleep; the file
format uses wall-clock seconds so concurrent *processes* sharing the
database agree on deadlines.
"""

from __future__ import annotations

import base64
import json
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..telemetry.collector import RunRecord
    from .escalation import EscalationItem

__all__ = [
    "JobQueue",
    "Job",
    "JobState",
    "JobQueueError",
    "StaleClaimError",
    "ESCALATION_KIND",
    "RETRAIN_KIND",
    "escalation_payload",
    "item_from_payload",
]

ESCALATION_KIND = "escalation"
"""Job kind carrying one low-confidence run awaiting a human label."""

RETRAIN_KIND = "retrain_publish"
"""Job kind ordering a drain-annotate-refit-publish cycle."""


class JobQueueError(RuntimeError):
    """A queue operation could not be satisfied (unknown job, bad state)."""


class StaleClaimError(JobQueueError):
    """The claim token does not match the job's current lease.

    Raised when a worker tries to ack/nack/extend a delivery that was
    already redelivered (its visibility deadline lapsed) or completed.
    """


class JobState:
    """The five job states (plain strings so SQL rows read directly)."""

    PENDING = "PENDING"
    CLAIMED = "CLAIMED"
    DONE = "DONE"
    FAILED = "FAILED"
    DEAD = "DEAD"

    ALL = (PENDING, CLAIMED, DONE, FAILED, DEAD)


@dataclass(frozen=True)
class Job:
    """One queue row, immutable snapshot at read time."""

    job_id: int
    kind: str
    payload: dict
    state: str
    attempts: int
    max_attempts: int
    not_before: float
    claim_token: str | None
    claim_worker: str | None
    visibility_deadline: float | None
    created_at: float
    updated_at: float
    last_error: str | None


_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id INTEGER PRIMARY KEY AUTOINCREMENT,
    kind TEXT NOT NULL,
    payload TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'PENDING',
    attempts INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL,
    not_before REAL NOT NULL DEFAULT 0.0,
    claim_token TEXT,
    claim_worker TEXT,
    visibility_deadline REAL,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL,
    last_error TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_state_kind
    ON jobs (state, kind, not_before);
"""


class JobQueue:
    """SQLite-backed at-least-once job queue (one file, WAL, stdlib-only).

    Parameters
    ----------
    path:
        Database file; created (with parents) on first use. Several
        queues — in one process or many — may open the same file; SQLite
        locking plus ``BEGIN IMMEDIATE`` claim transactions keep every
        transition atomic across them.
    visibility_timeout_s:
        Default lease length for :meth:`claim`; a claimed job whose
        deadline lapses without ack/nack/extend is redelivered.
    max_attempts:
        Default delivery budget per job; exhausted jobs land on the DEAD
        shelf.
    backoff_base_s / backoff_max_s:
        Retry schedule after ``nack``: ``base * 2**attempts`` capped at
        ``max``.
    time_fn:
        Clock (wall seconds). Injectable so expiry tests don't sleep;
        cross-process deployments must share the default.
    """

    def __init__(
        self,
        path: str | Path,
        visibility_timeout_s: float = 30.0,
        max_attempts: int = 5,
        backoff_base_s: float = 0.5,
        backoff_max_s: float = 60.0,
        time_fn: Callable[[], float] = time.time,
    ):
        if visibility_timeout_s <= 0:
            raise ValueError(
                f"visibility_timeout_s must be > 0, got {visibility_timeout_s}"
            )
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if backoff_base_s < 0 or backoff_max_s < 0:
            raise ValueError("backoff delays must be >= 0")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.visibility_timeout_s = visibility_timeout_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self._time = time_fn
        # one connection guarded by a lock: sqlite3 objects are not
        # thread-safe, and serializing writers in-process avoids busy-spins;
        # cross-process writers serialize on the database lock instead
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            str(self.path), timeout=30.0, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()

    # ------------------------------------------------------------------
    # producer side
    def enqueue(
        self,
        kind: str,
        payload: dict,
        max_attempts: int | None = None,
        not_before: float | None = None,
    ) -> Job:
        """Append one PENDING job; returns its snapshot (with id)."""
        now = self._time()
        budget = self.max_attempts if max_attempts is None else max_attempts
        if budget < 1:
            raise ValueError(f"max_attempts must be >= 1, got {budget}")
        with self._lock:
            cur = self._conn.execute(
                "INSERT INTO jobs (kind, payload, state, max_attempts,"
                " not_before, created_at, updated_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    kind,
                    json.dumps(payload, sort_keys=True),
                    JobState.PENDING,
                    budget,
                    not_before if not_before is not None else 0.0,
                    now,
                    now,
                ),
            )
            self._conn.commit()
            return self._get_locked(int(cur.lastrowid))

    # ------------------------------------------------------------------
    # consumer side
    def claim(
        self,
        kinds: Sequence[str] | None = None,
        n: int = 1,
        worker: str = "",
        visibility_timeout_s: float | None = None,
    ) -> list[Job]:
        """Atomically lease up to ``n`` deliverable jobs (oldest first).

        Deliverable means: PENDING, or FAILED with its backoff elapsed,
        or CLAIMED with a *lapsed* visibility deadline (the previous
        lease is broken and counted as one attempt — if that exhausts
        the budget the job goes DEAD instead of redelivering, so a
        worker-killing job cannot loop forever).
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        timeout = (
            self.visibility_timeout_s
            if visibility_timeout_s is None
            else visibility_timeout_s
        )
        now = self._time()
        kind_sql, kind_args = self._kind_filter(kinds)
        claimed: list[Job] = []
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                # bury lease-expired jobs that are out of attempts first,
                # so the SELECT below never redelivers a spent job
                self._conn.execute(
                    "UPDATE jobs SET state = ?, attempts = attempts + 1,"
                    " claim_token = NULL, claim_worker = NULL,"
                    " visibility_deadline = NULL, updated_at = ?,"
                    " last_error = COALESCE(last_error, 'lease expired')"
                    " WHERE state = ? AND visibility_deadline <= ?"
                    "   AND attempts + 1 >= max_attempts" + kind_sql,
                    [JobState.DEAD, now, JobState.CLAIMED, now, *kind_args],
                )
                rows = self._conn.execute(
                    "SELECT job_id, state FROM jobs WHERE ("
                    " (state = ? AND not_before <= ?)"
                    " OR (state = ? AND not_before <= ?)"
                    " OR (state = ? AND visibility_deadline <= ?))"
                    + kind_sql
                    + " ORDER BY job_id LIMIT ?",
                    [
                        JobState.PENDING,
                        now,
                        JobState.FAILED,
                        now,
                        JobState.CLAIMED,
                        now,
                        *kind_args,
                        n,
                    ],
                ).fetchall()
                for row in rows:
                    token = uuid.uuid4().hex
                    was_expired_lease = row["state"] == JobState.CLAIMED
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, claim_token = ?,"
                        " claim_worker = ?, visibility_deadline = ?,"
                        " attempts = attempts + ?, updated_at = ?"
                        " WHERE job_id = ?",
                        (
                            JobState.CLAIMED,
                            token,
                            worker,
                            now + timeout,
                            1 if was_expired_lease else 0,
                            now,
                            row["job_id"],
                        ),
                    )
                    claimed.append(self._get_locked(int(row["job_id"])))
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        return claimed

    def ack(self, job_id: int, claim_token: str) -> Job:
        """Complete one delivery: CLAIMED → DONE (token-fenced)."""
        return self._finish_claim(
            job_id, claim_token, JobState.DONE, error=None
        )

    def nack(self, job_id: int, claim_token: str, error: str = "") -> Job:
        """Fail one delivery: CLAIMED → FAILED (backoff) or DEAD.

        The retry becomes claimable after ``backoff_base_s * 2**attempts``
        seconds (capped at ``backoff_max_s``); when the attempt budget is
        spent the job moves to the DEAD shelf instead.
        """
        with self._lock:
            job = self._fence(job_id, claim_token)
            attempts = job.attempts + 1
            now = self._time()
            if attempts >= job.max_attempts:
                state, not_before = JobState.DEAD, 0.0
            else:
                delay = min(
                    self.backoff_max_s, self.backoff_base_s * (2.0**job.attempts)
                )
                state, not_before = JobState.FAILED, now + delay
            self._conn.execute(
                "UPDATE jobs SET state = ?, attempts = ?, not_before = ?,"
                " claim_token = NULL, claim_worker = NULL,"
                " visibility_deadline = NULL, updated_at = ?, last_error = ?"
                " WHERE job_id = ?",
                (state, attempts, not_before, now, error or None, job_id),
            )
            self._conn.commit()
            return self._get_locked(job_id)

    def extend(self, job_id: int, claim_token: str, extra_s: float) -> Job:
        """Heartbeat: push a live lease's visibility deadline out."""
        if extra_s <= 0:
            raise ValueError(f"extra_s must be > 0, got {extra_s}")
        with self._lock:
            self._fence(job_id, claim_token)
            now = self._time()
            self._conn.execute(
                "UPDATE jobs SET visibility_deadline = ?, updated_at = ?"
                " WHERE job_id = ?",
                (now + extra_s, now, job_id),
            )
            self._conn.commit()
            return self._get_locked(job_id)

    # ------------------------------------------------------------------
    # operator side
    def requeue(self, job_id: int) -> Job:
        """DEAD/FAILED/CLAIMED → PENDING with a fresh attempt budget.

        The operator action behind ``repro queue requeue``: an explicit
        requeue breaks any live lease (the old token is fenced out) and zeroes ``attempts`` —
        the operator has presumably fixed whatever was killing the job.
        """
        with self._lock:
            job = self._get_locked(job_id)
            if job.state == JobState.DONE:
                raise JobQueueError(f"job {job_id} is DONE; nothing to requeue")
            now = self._time()
            self._conn.execute(
                "UPDATE jobs SET state = ?, attempts = 0, not_before = 0.0,"
                " claim_token = NULL, claim_worker = NULL,"
                " visibility_deadline = NULL, updated_at = ?"
                " WHERE job_id = ?",
                (JobState.PENDING, now, job_id),
            )
            self._conn.commit()
            return self._get_locked(job_id)

    def purge(self, states: Iterable[str] = (JobState.DONE,)) -> int:
        """Delete rows in the given states; returns the count removed."""
        states = tuple(states)
        for state in states:
            if state not in JobState.ALL:
                raise ValueError(f"unknown job state {state!r}")
        with self._lock:
            cur = self._conn.execute(
                "DELETE FROM jobs WHERE state IN (%s)"
                % ",".join("?" * len(states)),
                states,
            )
            self._conn.commit()
            return cur.rowcount

    # ------------------------------------------------------------------
    # introspection
    def get(self, job_id: int) -> Job:
        """Snapshot one job by id."""
        with self._lock:
            return self._get_locked(job_id)

    def _get_locked(self, job_id: int) -> Job:
        """Fetch one job; the caller must already hold ``self._lock``."""
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise JobQueueError(f"no such job: {job_id}")
        return self._job(row)

    def list_jobs(
        self,
        state: str | None = None,
        kind: str | None = None,
        limit: int = 100,
    ) -> list[Job]:
        """Snapshot jobs, oldest first, optionally filtered."""
        sql = "SELECT * FROM jobs"
        clauses, args = [], []
        if state is not None:
            if state not in JobState.ALL:
                raise ValueError(f"unknown job state {state!r}")
            clauses.append("state = ?")
            args.append(state)
        if kind is not None:
            clauses.append("kind = ?")
            args.append(kind)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY job_id LIMIT ?"
        args.append(limit)
        with self._lock:
            rows = self._conn.execute(sql, args).fetchall()
        return [self._job(r) for r in rows]

    def counts(self) -> dict:
        """``{state: n}`` over every state (zero-filled)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        out = {state: 0 for state in JobState.ALL}
        for row in rows:
            out[row["state"]] = int(row["n"])
        return out

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _kind_filter(
        self, kinds: Sequence[str] | None
    ) -> tuple[str, list[str]]:
        if not kinds:
            return "", []
        return " AND kind IN (%s)" % ",".join("?" * len(kinds)), list(kinds)

    def _fence(self, job_id: int, claim_token: str) -> Job:
        """Assert the caller still holds the live lease (lock held)."""
        job = self._get_locked(job_id)
        if job.state != JobState.CLAIMED or job.claim_token != claim_token:
            raise StaleClaimError(
                f"job {job_id} is {job.state} under a different lease; "
                "this delivery was superseded"
            )
        return job

    def _finish_claim(
        self, job_id: int, claim_token: str, state: str, error: str | None
    ) -> Job:
        with self._lock:
            self._fence(job_id, claim_token)
            self._conn.execute(
                "UPDATE jobs SET state = ?, claim_token = NULL,"
                " claim_worker = NULL, visibility_deadline = NULL,"
                " updated_at = ?, last_error = ? WHERE job_id = ?",
                (state, self._time(), error, job_id),
            )
            self._conn.commit()
            return self._get_locked(job_id)

    @staticmethod
    def _job(row: sqlite3.Row) -> Job:
        return Job(
            job_id=int(row["job_id"]),
            kind=row["kind"],
            payload=json.loads(row["payload"]),
            state=row["state"],
            attempts=int(row["attempts"]),
            max_attempts=int(row["max_attempts"]),
            not_before=float(row["not_before"]),
            claim_token=row["claim_token"],
            claim_worker=row["claim_worker"],
            visibility_deadline=(
                None
                if row["visibility_deadline"] is None
                else float(row["visibility_deadline"])
            ),
            created_at=float(row["created_at"]),
            updated_at=float(row["updated_at"]),
            last_error=row["last_error"],
        )


# ----------------------------------------------------------------------
# escalation payload codec: EscalationItem <-> JSON-safe dict
def escalation_payload(item: "EscalationItem") -> dict:
    """Serialize one escalated run for the durable queue.

    The telemetry matrix rides as base64 of its raw float64 bytes plus
    the shape — exact round-trip, no precision loss — so a redelivered
    job reproduces the *identical* run fingerprint.
    """
    run = item.run
    data = np.ascontiguousarray(run.data, dtype=np.float64)
    return {
        "run": {
            "app": run.app,
            "input_deck": int(run.input_deck),
            "node_count": int(run.node_count),
            "node_id": int(run.node_id),
            "anomaly": run.anomaly,
            "intensity": float(run.intensity),
            "shape": list(data.shape),
            "data_b64": base64.b64encode(data.tobytes()).decode("ascii"),
            "metric_names": list(run.metric_names),
        },
        "diagnosis": {
            "label": item.diagnosis.label,
            "confidence": float(item.diagnosis.confidence),
        },
        "uncertainty": float(item.uncertainty),
        "threshold": float(item.threshold),
    }


def item_from_payload(payload: dict) -> "EscalationItem":
    """Inverse of :func:`escalation_payload` (bit-exact run matrix)."""
    from ..core.framework import Diagnosis
    from ..telemetry.collector import RunRecord
    from .escalation import EscalationItem

    spec = payload["run"]
    data = np.frombuffer(
        base64.b64decode(spec["data_b64"]), dtype=np.float64
    ).reshape(spec["shape"])
    run = RunRecord(
        app=spec["app"],
        input_deck=spec["input_deck"],
        node_count=spec["node_count"],
        node_id=spec["node_id"],
        anomaly=spec["anomaly"],
        intensity=spec["intensity"],
        data=data.copy(),
        metric_names=list(spec["metric_names"]),
    )
    diag = payload["diagnosis"]
    return EscalationItem(
        run=run,
        diagnosis=Diagnosis(label=diag["label"], confidence=diag["confidence"]),
        uncertainty=payload["uncertainty"],
        threshold=payload["threshold"],
    )


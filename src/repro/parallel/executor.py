"""Chunked parallel map over warm thread/process pools.

The guides' advice for Python HPC: vectorize inside a process, fan
embarrassingly parallel work across workers. This executor wraps
``concurrent.futures`` pools with block chunking (amortizes per-task
overhead over many small tasks — per-run feature extraction is
milliseconds, far below the cost of a bare task submission) and falls
back to serial execution transparently when ``n_workers <= 1``, which
keeps tests and seeded experiments deterministic by default.

Two backends, selected per call site:

* ``"process"`` — a ``ProcessPoolExecutor``. True multi-core scaling for
  Python-bound work, at the cost of crossing a pickle boundary. The map
  function is pickled **once per map call** (not once per chunk, the old
  behaviour) and cached inside each worker by digest, so a bound method
  dragging a whole extractor or dataset through pickle is paid once; big
  array payloads should ride :mod:`repro.parallel.shm` instead of the
  task pickle.
* ``"thread"`` — a ``ThreadPoolExecutor``. No pickling, no copies, no
  spawn cost; the right tool for the repo's GIL-releasing numpy kernels
  (histogram bincounts, blocked entropy, interpolation) and for boxes
  whose CPU affinity mask leaves nothing to scale across.
* ``"auto"`` — ``"process"`` when the affinity mask offers more than one
  core, else ``"thread"`` with the worker count clamped to the mask:
  workers that cannot run concurrently should pay neither the pickle tax
  nor the GIL tax, so on a one-core mask ``n_jobs=8`` degrades cleanly
  to the serial path (same bits, zero fan-out overhead).

Pools are started lazily on the first parallel ``map`` and *reused* by
every later call: the active-learning loop refits a forest after every
query, so paying worker spawn/teardown per ``map`` dominated small
refits. :func:`shared_executor` goes one step further and keeps one warm
pool per ``(backend, n_workers)`` for the whole process, so a campaign's
generate → featurize → fit stages all reuse the same workers.

``map`` and ``close`` serialize on an internal lock: closing an executor
from another thread (or a ``__del__`` racing a map) waits for the
in-flight map to finish instead of surfacing ``BrokenProcessPool``.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .partition import block_partition

__all__ = [
    "Executor",
    "close_shared_executors",
    "default_workers",
    "effective_cpu_count",
    "resolve_backend",
    "shared_executor",
]

T = TypeVar("T")
R = TypeVar("R")

_BACKENDS = ("process", "thread")


def effective_cpu_count() -> int:
    """Cores this process may actually run on.

    ``os.cpu_count()`` reports the machine; under cgroup quotas or an
    affinity mask (the normal case on HPC nodes, where the batch system
    pins jobs to a core set) the process sees far fewer. Sizing pools to
    the machine then oversubscribes the mask and every worker fights for
    the same cores.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # exotic platforms: fall through to cpu_count
            pass
    return os.cpu_count() or 1


def default_workers() -> int:
    """A sensible worker count: available parallelism minus one, at least 1."""
    return max(1, effective_cpu_count() - 1)


def resolve_backend(backend: str) -> str:
    """Resolve ``"auto"`` to a concrete backend for this machine."""
    if backend == "auto":
        return "process" if effective_cpu_count() > 1 else "thread"
    if backend not in _BACKENDS:
        raise ValueError(
            f"backend must be one of {_BACKENDS + ('auto',)}, got {backend!r}"
        )
    return backend


def _run_chunk(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# worker-side function cache (process backend)
#
# ``pool.map(_run_chunk, [fn] * n_chunks, chunks)`` pickles ``fn`` once per
# chunk; when fn is a bound method it drags its whole object graph through
# pickle every time. Instead the parent pickles fn once per map call and
# workers unpickle it once each, keyed by digest. The pool initializer
# pre-seeds the first function so the warm-pool steady state (same fn every
# refit) ships the function exactly once per pool.

_FN_CACHE: dict[bytes, Callable] = {}


def _seed_fn_cache(digest: bytes, payload: bytes) -> None:
    _FN_CACHE[digest] = pickle.loads(payload)


def _run_cached_chunk(
    digest: bytes, payload: bytes, items: Sequence[T]
) -> list[R]:
    fn = _FN_CACHE.get(digest)
    if fn is None:
        fn = pickle.loads(payload)
        _FN_CACHE[digest] = fn
    return [fn(item) for item in items]


class Executor:
    """Chunked, order-preserving parallel map over a reusable pool.

    Parameters
    ----------
    n_workers:
        Worker count; ``<= 1`` runs serially in-process (no pool, no
        pickling — exact same results, easier debugging).
    chunks_per_worker:
        Number of chunks each worker receives; >1 improves load balance
        when per-item cost varies.
    backend:
        ``"process"`` (default), ``"thread"``, or ``"auto"`` — resolved
        once at construction via :func:`resolve_backend`.
    """

    def __init__(
        self,
        n_workers: int | None = None,
        chunks_per_worker: int = 4,
        backend: str = "process",
    ):
        if chunks_per_worker < 1:
            raise ValueError(f"chunks_per_worker must be >= 1, got {chunks_per_worker}")
        self.n_workers = default_workers() if n_workers is None else max(1, n_workers)
        self.chunks_per_worker = chunks_per_worker
        self.backend = resolve_backend(backend)
        if backend == "auto" and self.backend == "thread":
            # auto resolved to threads because the affinity mask offers a
            # single core: CPU-bound chunks cannot overlap there, extra
            # threads only thrash the GIL — run the serial path instead.
            # An explicit backend="thread" keeps the requested count.
            self.n_workers = min(self.n_workers, effective_cpu_count())
        self._pool: ProcessPoolExecutor | ThreadPoolExecutor | None = None
        self._seeded_digest: bytes | None = None
        self._lock = threading.RLock()

    def _ensure_pool(
        self, digest: bytes | None = None, payload: bytes | None = None
    ) -> ProcessPoolExecutor | ThreadPoolExecutor:
        if self._pool is None:
            if self.backend == "thread":
                self._pool = ThreadPoolExecutor(max_workers=self.n_workers)
                return self._pool
            # start the resource tracker BEFORE forking workers: a worker
            # forked while no tracker exists spawns its own private one on
            # first SharedMemory attach, whose ledger nobody ever cleans —
            # it then warns about "leaked" segments the parent unlinked
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
            if digest is not None:
                # seed every worker with the first map function at spawn:
                # later maps of the same fn send only its digest
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    initializer=_seed_fn_cache,
                    initargs=(digest, payload),
                )
                self._seeded_digest = digest
            else:
                self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
        return self._pool

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, preserving input order.

        ``fn`` and the items must be picklable when ``n_workers > 1``
        and the backend is ``"process"`` (module-level functions or
        picklable callables; no lambdas). The thread backend and the
        serial path (``n_workers <= 1`` or a single item) carry no such
        restriction and are byte-identical to a plain list comprehension.
        """
        items = list(items)
        if not items:
            return []
        if self.n_workers <= 1 or len(items) == 1:
            return [fn(item) for item in items]
        n_chunks = min(len(items), self.n_workers * self.chunks_per_worker)
        chunks = [
            [items[i] for i in idx]
            for idx in block_partition(len(items), n_chunks)
            if len(idx)
        ]
        with self._lock:
            if self.backend == "thread":
                pool = self._ensure_pool()
                chunk_results = list(
                    pool.map(_run_chunk, [fn] * len(chunks), chunks)
                )
            else:
                payload = pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
                digest = hashlib.sha256(payload).digest()
                pool = self._ensure_pool(digest, payload)
                if digest == self._seeded_digest:
                    # every worker was born with this fn: ship digest only
                    payloads: list[bytes] = [b""] * len(chunks)
                else:
                    payloads = [payload] * len(chunks)
                chunk_results = list(
                    pool.map(
                        _run_cached_chunk,
                        [digest] * len(chunks),
                        payloads,
                        chunks,
                    )
                )
        return [r for chunk in chunk_results for r in chunk]

    def __getstate__(self) -> dict:
        # a live pool holds locks and OS handles; callers pickle objects
        # that reference their executor (e.g. a bound Executor.map), so ship the
        # configuration only — the copy restarts its pool lazily
        state = self.__dict__.copy()
        state["_pool"] = None
        state["_seeded_digest"] = None
        state["_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        state.setdefault("backend", "process")
        state.setdefault("_seeded_digest", None)
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def close(self) -> None:
        """Shut the worker pool down; safe to call twice or never.

        Serialized against ``map``: a close racing an in-flight map waits
        for the map to complete rather than breaking the pool under it.
        A later ``map`` lazily starts a fresh pool, so a closed executor
        stays usable.
        """
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
                self._seeded_digest = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def __del__(self):  # best-effort: never leak worker processes
        try:
            if getattr(self, "_lock", None) is not None:
                self.close()
        except Exception:  # repro-lint: disable=EH001 -- interpreter may be tearing down; logging here can itself raise
            pass


# ---------------------------------------------------------------------------
# process-wide warm pools
#
# A campaign touches the executor from several layers (grid generation,
# feature extraction, forest fitting). Giving each layer its own pool pays
# spawn/teardown at every stage boundary; sharing one pool per
# (backend, n_workers) keeps the workers — and their function caches — warm
# across the whole generate → featurize → fit sequence.

_SHARED_LOCK = threading.Lock()
_SHARED: dict[tuple[str, int], Executor] = {}


def shared_executor(
    n_workers: int, backend: str = "auto", chunks_per_worker: int = 4
) -> Executor:
    """The process-wide warm executor for ``(backend, n_workers)``.

    Callers must **not** close the returned executor (closing it is
    harmless — it restarts lazily — but throws the warmth away);
    :func:`close_shared_executors` runs at interpreter exit.
    """
    key = (resolve_backend(backend), max(1, int(n_workers)))
    with _SHARED_LOCK:
        ex = _SHARED.get(key)
        if ex is None:
            # pass the caller's literal backend: "auto" resolving to
            # threads also clamps workers to the one-core mask
            ex = Executor(
                n_workers=key[1],
                chunks_per_worker=chunks_per_worker,
                backend=backend,
            )
            _SHARED[key] = ex
        return ex


def close_shared_executors() -> None:
    """Shut down every process-wide pool (idempotent; used at exit)."""
    with _SHARED_LOCK:
        executors = list(_SHARED.values())
        _SHARED.clear()
    for ex in executors:
        ex.close()


atexit.register(close_shared_executors)

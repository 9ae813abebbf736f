"""Order-preserving parallel map: in-process, or over a warm process pool.

:func:`map_blocks` is the one way work crosses into workers. A caller
writes one worker function ``fn(block, *arrays)`` that handles a
contiguous block of its items given a tuple of read-only arrays, and it
runs the same way in-process and in a worker. When the work fans out,
the arrays cross into the workers through :mod:`repro.parallel.shm`
segments that this module creates, hands out and unlinks; tasks carry
only a block of items and the segment handles.

Where the work runs is decided here, from what this module can observe:

* ``n_jobs``: ``None`` or ``<= 1`` calls ``fn`` once in-process, with no
  pool lookup, no timing and no segment;
* the affinity mask: workers are clamped to the CPUs this process may
  run on (:func:`effective_cpu_count`), so a one-CPU mask runs
  in-process;
* the size of the work: the seconds per item of the same worker
  function on data of the same width, timed by this module on the
  previous such call, or, on the first one, by running the first of
  ``4 W`` blocks in-process (a first call with fewer items runs whole,
  timed). The rest fans out only when ``W`` workers would save more
  than the pool's round trip (``_ROUND_TRIP_S``); smaller work runs
  in-process.

Which way a call went never changes its result: every caller's blocks
are independent, so outputs are bit-identical at any ``n_jobs``.

The pool itself is :class:`Executor`: a chunked, order-preserving map
over a lazily started ``ProcessPoolExecutor`` that is *reused* by every
later call. :func:`shared_executor` keeps one warm pool per worker count
for the whole process, so a campaign's generate → featurize → fit stages
and every active-learning refit reuse the same workers.

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
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from functools import partial
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .partition import block_partition, chunk_sizes
from .shm import SharedArray, SharedArrayHandle

__all__ = [
    "Executor",
    "close_shared_executors",
    "default_workers",
    "effective_cpu_count",
    "map_blocks",
    "shared_executor",
]

T = TypeVar("T")
R = TypeVar("R")

# Blocks per worker when work fans out: several per worker balance
# uneven blocks, and the first one is the timing probe on a first call.
_BLOCKS_PER_WORKER = 4

# What a fan-out costs beyond the work itself: waking the warm pool,
# copying the arrays into segments, shipping the worker function and
# bringing results back. On a 2-vCPU host a fan-out over 2 warm workers
# took 15-35 ms longer than half the in-process time of the same smoke
# work (a 32-run campaign's generation and extraction, a 4-tree forest
# fit); about three times that keeps work whose saving is within noise
# of the round trip in-process.
_ROUND_TRIP_S = 0.1

# Seconds per item of each worker function, keyed by the function and
# the width of its data (see _cost_key); written after every timed call.
# Process-wide like the pools: the objects that request work do not
# outlive it (the active-learning loop clones a fresh forest per refit).
# A stale entry only ever moves where work runs, never its result.
_SECONDS_PER_ITEM: dict[tuple, float] = {}


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


# ---------------------------------------------------------------------------
# worker-side function cache
#
# Mapping ``fn`` over chunks with a plain ``pool.map`` pickles it once per
# chunk; when fn carries an object graph it drags it through pickle every
# time. Instead the parent pickles fn once per map call and
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
    """Chunked, order-preserving parallel map over a reusable process pool.

    Parameters
    ----------
    n_workers:
        Worker count; ``<= 1`` runs serially in-process (no pool, no
        pickling — exact same results, easier debugging).
    chunks_per_worker:
        Number of chunks each worker receives; >1 improves load balance
        when per-item cost varies.
    """

    def __init__(self, n_workers: int | None = None, chunks_per_worker: int = 4):
        if chunks_per_worker < 1:
            raise ValueError(f"chunks_per_worker must be >= 1, got {chunks_per_worker}")
        self.n_workers = default_workers() if n_workers is None else max(1, n_workers)
        self.chunks_per_worker = chunks_per_worker
        self._pool: ProcessPoolExecutor | None = None
        self._seeded_digest: bytes | None = None
        self._lock = threading.RLock()

    def _ensure_pool(self, digest: bytes, payload: bytes) -> ProcessPoolExecutor:
        if self._pool is None:
            # start the resource tracker BEFORE forking workers: a worker
            # forked while no tracker exists spawns its own private one on
            # first SharedMemory attach, whose ledger nobody ever cleans —
            # it then warns about "leaked" segments the parent unlinked
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
            # seed every worker with the first map function at spawn:
            # later maps of the same fn send only its digest
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=_seed_fn_cache,
                initargs=(digest, payload),
            )
            self._seeded_digest = digest
        return self._pool

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, preserving input order.

        ``fn`` and the items must be picklable when ``n_workers > 1``
        (module-level functions or picklable callables; no lambdas). The
        serial path (``n_workers <= 1`` or a single item) carries no such
        restriction and is byte-identical to a plain list comprehension.
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
            payload = pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.sha256(payload).digest()
            pool = self._ensure_pool(digest, payload)
            if digest == self._seeded_digest:
                # every worker was born with this fn: ship digest only
                payloads: list[bytes] = [b""] * len(chunks)
            else:
                payloads = [payload] * len(chunks)
            chunk_results = list(
                pool.map(_run_cached_chunk, [digest] * len(chunks), payloads, chunks)
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
# spawn/teardown at every stage boundary; sharing one pool per worker
# count keeps the workers — and their function caches — warm across the
# whole generate → featurize → fit sequence.

_SHARED_LOCK = threading.Lock()
_SHARED: dict[int, Executor] = {}


def shared_executor(n_workers: int) -> Executor:
    """The process-wide warm executor with ``n_workers`` workers.

    Callers must **not** close the returned executor (closing it is
    harmless — it restarts lazily — but throws the warmth away);
    :func:`close_shared_executors` runs at interpreter exit.
    """
    n_workers = max(1, int(n_workers))
    with _SHARED_LOCK:
        ex = _SHARED.get(n_workers)
        if ex is None:
            ex = Executor(n_workers=n_workers, chunks_per_worker=_BLOCKS_PER_WORKER)
            _SHARED[n_workers] = ex
        return ex


def close_shared_executors() -> None:
    """Shut down every process-wide pool (idempotent; used at exit)."""
    with _SHARED_LOCK:
        executors = list(_SHARED.values())
        _SHARED.clear()
    for ex in executors:
        ex.close()


atexit.register(close_shared_executors)


# ---------------------------------------------------------------------------
# the map every n_jobs caller goes through


def _run_block(
    fn: Callable, task: tuple[tuple[SharedArrayHandle | None, ...], Sequence]
) -> tuple[object, float]:
    """Worker body: attach the segments, run one block, time it, detach."""
    handles, block = task
    with ExitStack() as stack:
        arrays = [
            None if h is None else stack.enter_context(h.open()).array
            for h in handles
        ]
        t0 = time.perf_counter()
        out = fn(block, *arrays)
        return out, time.perf_counter() - t0


def _cost_key(fn: Callable, arrays: tuple) -> tuple:
    """Work of one worker function on data of one width.

    The width is the trailing shape of the first array (metric columns
    of a corpus buffer, feature columns of a code matrix), so calls that
    differ only in row count, as successive refits do, share a timing.
    """
    width = arrays[0].shape[1:] if arrays and arrays[0] is not None else ()
    return getattr(fn, "func", fn), width


def _timed(key: tuple, fn: Callable, block: Sequence, arrays: tuple) -> object:
    t0 = time.perf_counter()
    out = fn(block, *arrays)
    _SECONDS_PER_ITEM[key] = (time.perf_counter() - t0) / len(block)
    return out


def map_blocks(
    fn: Callable[..., R],
    items: Sequence,
    arrays: tuple[np.ndarray | None, ...] = (),
    n_jobs: int | None = None,
) -> list[R]:
    """Run ``fn(block, *arrays)`` over contiguous blocks of ``items``.

    Returns one result per block, in item order; the caller joins them
    (``np.vstack``, list concatenation, ...). ``items`` is any sliceable
    sequence (list, ``range``, ndarray) and each block is a slice of it.
    ``arrays`` are read-only inputs every block needs (``None`` entries
    pass through); workers see them as shared-memory views, so ``fn``
    must not write to them or return views of them.

    With ``n_jobs`` ``None`` or ``<= 1`` this is ``[fn(items, *arrays)]``
    and nothing more. Otherwise the module decides between in-process
    blocks and the warm process pool as described in the module
    docstring; ``fn`` and the items must then be picklable.
    """
    if n_jobs is None or n_jobs <= 1:
        return [fn(items, *arrays)]
    n_items = len(items)
    n_workers = min(n_jobs, effective_cpu_count(), n_items)
    if n_workers <= 1:
        return [fn(items, *arrays)]
    key = _cost_key(fn, arrays)
    n_blocks = n_workers * _BLOCKS_PER_WORKER
    per_item = _SECONDS_PER_ITEM.get(key)
    out: list = []
    start = 0
    if per_item is None and n_items >= n_blocks:
        # first call: time the first block in-process. With fewer items
        # the cost counts as zero and the call runs whole, since a split
        # only slows work whose cost rides on batching (lockstep trees)
        start = chunk_sizes(n_items, n_blocks)[0]
        out.append(_timed(key, fn, items[:start], arrays))
        per_item = _SECONDS_PER_ITEM[key]
    rest = items[start:]
    n_workers = min(n_workers, len(rest))
    saving = (per_item or 0.0) * len(rest) * (1.0 - 1.0 / n_workers)
    if n_workers <= 1 or saving <= _ROUND_TRIP_S:
        out.append(_timed(key, fn, rest, arrays))
        return out
    blocks, lo = [], 0
    for size in chunk_sizes(len(rest), n_workers * _BLOCKS_PER_WORKER):
        if size:
            blocks.append(rest[lo:lo + size])
            lo += size
    with ExitStack() as stack:
        handles = tuple(
            None if a is None else stack.enter_context(SharedArray(a)).handle
            for a in arrays
        )
        timed = shared_executor(n_workers).map(
            partial(_run_block, fn), [(handles, block) for block in blocks]
        )
    _SECONDS_PER_ITEM[key] = sum(t for _, t in timed) / len(rest)
    return out + [block_out for block_out, _ in timed]

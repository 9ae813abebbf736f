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

A fan-out sends one task per block to a ``ProcessPoolExecutor`` that
this module starts on the first fan-out at a worker count and reuses for
every later one, so a campaign's generate → featurize → fit stages and
every active-learning refit share the same workers. The worker function
is pickled once per call and travels with each task as bytes. A pool
whose worker died is dropped when its map raises ``BrokenProcessPool``,
so the next fan-out starts a fresh one. :func:`close_shared_executors`
shuts the pools down (at exit, too) and waits for an in-flight fan-out
to finish first.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from itertools import repeat
from typing import Callable, Sequence, TypeVar

import numpy as np

from .shm import SharedArray, SharedArrayHandle

__all__ = [
    "chunk_sizes",
    "close_shared_executors",
    "effective_cpu_count",
    "map_blocks",
]

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


def chunk_sizes(n_items: int, n_parts: int) -> list[int]:
    """Sizes of ``n_parts`` contiguous blocks covering ``n_items`` items.

    The first ``n_items % n_parts`` blocks get one extra item, so blocks
    are balanced to within one item.
    """
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    base, extra = divmod(n_items, n_parts)
    return [base + (1 if p < extra else 0) for p in range(n_parts)]


# ---------------------------------------------------------------------------
# process-wide warm pools
#
# One pool per worker count, started by the first fan-out at that count
# and reused by every later one, so a campaign's generate -> featurize ->
# fit stages and every active-learning refit share the same workers.
# A fan-out holds the lock for its whole map: closing waits for it
# instead of breaking the pool under it.

_POOLS_LOCK = threading.Lock()
_POOLS: dict[int, ProcessPoolExecutor] = {}


def _pool(n_workers: int) -> ProcessPoolExecutor:
    """The warm pool with ``n_workers`` workers; caller holds the lock."""
    pool = _POOLS.get(n_workers)
    if pool is None:
        # start the resource tracker BEFORE forking workers: a worker
        # forked while no tracker exists spawns its own private one on
        # first SharedMemory attach, whose ledger nobody ever cleans -
        # it then warns about "leaked" segments the parent unlinked
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        pool = _POOLS[n_workers] = ProcessPoolExecutor(max_workers=n_workers)
    return pool


def close_shared_executors() -> None:
    """Shut down every warm pool (idempotent; runs at exit).

    Waits for an in-flight fan-out to finish; the next fan-out starts a
    fresh pool.
    """
    with _POOLS_LOCK:
        for pool in _POOLS.values():
            pool.shutdown(wait=True)
        _POOLS.clear()


atexit.register(close_shared_executors)


# ---------------------------------------------------------------------------
# the map every n_jobs caller goes through


def _run_block(
    payload: bytes, handles: tuple[SharedArrayHandle | None, ...], block: Sequence
) -> tuple[object, float]:
    """Worker body: load the function, attach the segments, run one block
    and time it, detach."""
    fn = pickle.loads(payload)
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
    payload = pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
    with ExitStack() as stack:
        handles = tuple(
            None if a is None else stack.enter_context(SharedArray(a)).handle
            for a in arrays
        )
        with _POOLS_LOCK:
            pool = _pool(n_workers)
            try:
                timed = list(pool.map(_run_block, repeat(payload), repeat(handles), blocks))
            except BrokenProcessPool:
                # a worker died (an OOM kill, os._exit): the pool can run
                # no further task, so the next fan-out starts a fresh one
                del _POOLS[n_workers]
                pool.shutdown(wait=True)
                raise
    _SECONDS_PER_ITEM[key] = sum(t for _, t in timed) / len(rest)
    return out + [block_out for block_out, _ in timed]

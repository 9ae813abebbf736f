"""Tests for map_blocks, the map every n_jobs caller uses, and its warm pools."""

import os
import threading
import time

import numpy as np
import pytest

import repro.parallel.executor as executor_mod
from repro.parallel import (
    active_segments,
    close_shared_executors,
    effective_cpu_count,
    map_blocks,
)


@pytest.fixture
def fresh_timings(monkeypatch):
    timings: dict = {}
    monkeypatch.setattr(executor_mod, "_SECONDS_PER_ITEM", timings)
    return timings


@pytest.fixture
def no_pool(monkeypatch):
    def _explode(*args, **kwargs):
        raise AssertionError("this map must stay in-process")

    monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", _explode)


@pytest.fixture
def pools():
    """The live warm pools, starting from none."""
    close_shared_executors()
    yield executor_mod._POOLS
    close_shared_executors()


def _squares(block):
    return [x * x for x in block]


def _cubes(block):
    return [x ** 3 for x in block]


def _whoami(block):
    return [os.getpid() for _ in block]


def _joined(parts):
    return [x for part in parts for x in part]


class TestSerialPath:
    """Calls that never reach a pool, even with the pool forced on."""

    def test_n_workers_one_runs_inline(self, fan_out, no_pool):
        assert map_blocks(_squares, range(5), n_jobs=1) == [[0, 1, 4, 9, 16]]

    def test_empty_input(self, fan_out, no_pool):
        assert map_blocks(_squares, [], n_jobs=4) == [[]]

    def test_single_item_runs_inline(self, fan_out, no_pool):
        assert map_blocks(_squares, [3], n_jobs=4) == [[9]]

    def test_lambda_ok_serially(self, no_pool):
        parts = map_blocks(lambda b: [x + 1 for x in b], [1, 2], n_jobs=1)
        assert parts == [[2, 3]]


class TestParallelPath:
    def test_results_ordered(self, fan_out):
        parts = map_blocks(_squares, list(range(40)), n_jobs=2)
        assert len(parts) > 1
        assert _joined(parts) == [i * i for i in range(40)]

    def test_work_runs_in_child_processes(self, fan_out, fresh_timings):
        fresh_timings[executor_mod._cost_key(_whoami, ())] = 1.0  # no probe
        pids = set(_joined(map_blocks(_whoami, range(16), n_jobs=2)))
        # on a single-core box the pool may drain every block through one
        # worker; what must hold is that no work ran in the parent
        assert pids and os.getpid() not in pids

    def test_matches_serial_results(self, fan_out):
        serial = map_blocks(_squares, range(25))
        parallel = map_blocks(_squares, range(25), n_jobs=3)
        assert _joined(parallel) == serial[0]


class TestConfig:
    def test_worker_floor(self, fan_out, no_pool):
        assert map_blocks(_squares, range(4), n_jobs=-3) == [[0, 1, 4, 9]]


class TestEffectiveCpuCount:
    """Pool sizing must follow the affinity mask, not the machine.

    HPC batch systems pin jobs to a core subset; ``os.cpu_count()``
    reports the whole node and oversubscribes the mask.
    """

    def test_uses_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert effective_cpu_count() == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert effective_cpu_count() == 6

    def test_falls_back_when_affinity_raises(self, monkeypatch):
        def _boom(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(os, "sched_getaffinity", _boom)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert effective_cpu_count() == 2

    def test_never_below_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert effective_cpu_count() == 1


def _slow_squares(block):
    time.sleep(0.02 * len(block))
    return _squares(block)


class TestCloseMapRace:
    """Regression: closing the pools under an in-flight map must not break it.

    Shutting a pool down under a running ``pool.map`` surfaces
    ``BrokenProcessPool`` in the mapping thread. A fan-out holds the pool
    lock for its whole map, so the close waits for it, and a later
    fan-out starts a fresh pool.
    """

    def test_close_waits_for_inflight_map(self, fan_out, fresh_timings, pools):
        fresh_timings[executor_mod._cost_key(_slow_squares, ())] = 1.0
        results: list = []
        errors: list = []

        def _mapper():
            try:
                results.append(_joined(map_blocks(_slow_squares, range(8), n_jobs=2)))
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        t = threading.Thread(target=_mapper)
        t.start()
        deadline = time.monotonic() + 30.0
        while 2 not in pools and time.monotonic() < deadline:
            time.sleep(0.005)  # wait for the map to reach its pool
        close_shared_executors()
        t.join(timeout=30.0)
        assert not t.is_alive()
        assert errors == []
        assert results == [[i * i for i in range(8)]]
        # the next fan-out starts a fresh pool
        assert _joined(map_blocks(_squares, range(4), n_jobs=2)) == [0, 1, 4, 9]


class TestSharedExecutors:
    def test_same_key_returns_same_instance(self, fan_out, pools):
        map_blocks(_squares, range(8), n_jobs=2)
        pool = pools[2]
        assert _joined(map_blocks(_cubes, range(8), n_jobs=2)) == [
            i ** 3 for i in range(8)
        ]
        assert pools[2] is pool

    def test_distinct_keys_get_distinct_pools(self, fan_out, pools):
        map_blocks(_squares, range(8), n_jobs=2)
        map_blocks(_squares, range(8), n_jobs=3)
        assert set(pools) == {2, 3}
        assert pools[2] is not pools[3]

    def test_close_shared_executors_resets_registry(self, fan_out, pools):
        map_blocks(_squares, range(8), n_jobs=2)
        pool = pools[2]
        close_shared_executors()
        assert pools == {}
        map_blocks(_squares, range(8), n_jobs=2)
        assert pools[2] is not pool


class TestSerialFallback:
    """Calls at n_jobs <= 1, or with one item, never touch a process pool."""

    def test_zero_workers_runs_inline(self, fan_out, no_pool):
        assert map_blocks(_squares, range(4), n_jobs=0) == [[0, 1, 4, 9]]

    def test_serial_path_avoids_pool(self, no_pool):
        assert map_blocks(_squares, range(6)) == [[0, 1, 4, 9, 16, 25]]

    def test_single_item_avoids_pool_even_with_workers(self, fan_out, no_pool):
        assert map_blocks(_squares, [7], n_jobs=8) == [[49]]

    def test_unpicklable_fn_ok_serially(self, no_pool):
        parts = map_blocks(lambda b: [x * 10 for x in b], range(3))
        assert parts == [[0, 10, 20]]


class TestPoolReuse:
    def test_pool_persists_across_maps(self, fan_out, pools):
        map_blocks(_squares, range(8), n_jobs=2)
        pool = pools[2]
        map_blocks(_squares, range(8), n_jobs=2)
        assert pools[2] is pool  # no spawn/teardown per map

    def test_lazy_start(self, monkeypatch, fresh_timings, pools):
        # two CPUs, but work far below the round trip: runs in-process
        monkeypatch.setattr(executor_mod, "effective_cpu_count", lambda: 2)
        map_blocks(_squares, range(8), n_jobs=2)
        assert pools == {}  # nothing spawned until the first fan-out

    def test_close_idempotent_and_restartable(self, fan_out, pools):
        assert _joined(map_blocks(_squares, range(8), n_jobs=2))[:4] == [0, 1, 4, 9]
        close_shared_executors()
        close_shared_executors()  # second close is a no-op
        assert pools == {}
        # the next fan-out starts a fresh pool
        assert _joined(map_blocks(_squares, range(8), n_jobs=2))[:4] == [0, 1, 4, 9]
        assert 2 in pools

    def test_serial_executor_never_starts_a_pool(self, fan_out, pools):
        map_blocks(_squares, range(10), n_jobs=1)
        assert pools == {}

    def test_different_fns_share_one_pool(self, fan_out, pools):
        assert _joined(map_blocks(_squares, range(6), n_jobs=2)) == [
            i * i for i in range(6)
        ]
        assert _joined(map_blocks(_cubes, range(6), n_jobs=2)) == [
            i ** 3 for i in range(6)
        ]
        assert len(pools) == 1


class _CountsPickles:
    """A worker function that counts how often the parent pickles it."""

    pickled = 0

    def __call__(self, block):
        return list(block)

    def __reduce__(self):
        type(self).pickled += 1
        return (_CountsPickles, ())


class TestWorkerFunction:
    def test_pickled_once_per_call(self, fan_out):
        _CountsPickles.pickled = 0
        parts = map_blocks(_CountsPickles(), range(40), n_jobs=2)
        assert len(parts) > 2  # several blocks went to the workers
        assert _joined(parts) == list(range(40))
        assert _CountsPickles.pickled == 1


def _crash(block, data):
    os._exit(13)  # hard kill: no finally blocks, no atexit


class TestBrokenPool:
    """A worker that dies breaks its pool; the next fan-out must not
    inherit the broken pool."""

    def test_next_fan_out_after_a_crash_succeeds(self, fan_out, fresh_timings, pools):
        from concurrent.futures.process import BrokenProcessPool

        # a known cost: no in-process timing probe runs the crash here
        fresh_timings[executor_mod._cost_key(_crash, (np.zeros((8, 2)),))] = 1.0
        before = set(active_segments())
        with pytest.raises(BrokenProcessPool):
            map_blocks(_crash, range(8), (np.zeros((8, 2)),), n_jobs=2)
        assert set(active_segments()) == before
        assert 2 not in pools
        # a different, healthy function at the same worker count
        assert _joined(map_blocks(_squares, range(8), n_jobs=2)) == [
            i * i for i in range(8)
        ]


# ---------------------------------------------------------------------------
# map_blocks: the one path every n_jobs caller takes


def _pids(block):
    return [(os.getpid(), x) for x in block]


def _weighted_sums(block, data, nothing, weights):
    assert nothing is None
    return [float(data[i].sum() * weights[i]) for i in block]


def _fail_on_seven(block, data):
    if 7 in block:
        raise ValueError("item 7")
    return list(block)


class TestMapBlocksInProcess:
    @pytest.mark.parametrize("n_jobs", [None, 0, 1])
    def test_n_jobs_one_is_one_call(self, n_jobs, fresh_timings, no_pool):
        parts = map_blocks(_pids, range(10), n_jobs=n_jobs)
        assert parts == [[(os.getpid(), x) for x in range(10)]]
        assert fresh_timings == {}  # no timing on the n_jobs=1 path

    def test_one_cpu_mask_runs_in_process(self, monkeypatch, fresh_timings, no_pool):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        parts = map_blocks(_pids, list(range(10)), n_jobs=8)
        assert parts == [[(os.getpid(), x) for x in range(10)]]

    def test_small_work_stays_in_process(self, monkeypatch, fresh_timings, no_pool):
        monkeypatch.setattr(executor_mod, "effective_cpu_count", lambda: 4)
        items = list(range(40))
        # first call: the first block is timed, the rest runs as one block
        first = map_blocks(_pids, items, n_jobs=4)
        assert len(first) == 2
        assert [x for part in first for _, x in part] == items
        assert {pid for part in first for pid, _ in part} == {os.getpid()}
        assert len(fresh_timings) == 1
        # the timing is known now: the same work runs as a single block
        assert map_blocks(_pids, items, n_jobs=4) == [_pids(items)]


class TestMapBlocksFanOut:
    def test_timed_big_work_fans_out(self, monkeypatch, fresh_timings):
        monkeypatch.setattr(executor_mod, "effective_cpu_count", lambda: 2)
        fresh_timings[executor_mod._cost_key(_pids, ())] = 1.0  # 1 s per item
        parts = map_blocks(_pids, list(range(16)), n_jobs=2)
        assert [x for part in parts for _, x in part] == list(range(16))
        pids = {pid for part in parts for pid, _ in part}
        assert pids and os.getpid() not in pids
        # the workers' faster timing replaces the estimate
        assert fresh_timings[executor_mod._cost_key(_pids, ())] < 1.0

    @pytest.mark.parametrize("n_jobs", [2, 3, 4])
    def test_arrays_cross_through_shared_memory(self, n_jobs, fan_out):
        before = set(active_segments())
        rng = np.random.default_rng(0)
        data, weights = rng.normal(size=(30, 5)), rng.normal(size=30)
        arrays = (data, None, weights)
        serial = map_blocks(_weighted_sums, np.arange(30), arrays)
        parts = map_blocks(_weighted_sums, np.arange(30), arrays, n_jobs=n_jobs)
        assert len(parts) > 1
        assert [v for part in parts for v in part] == serial[0]
        assert set(active_segments()) == before

    def test_worker_error_propagates_and_unlinks(self, fan_out):
        before = set(active_segments())
        with pytest.raises(ValueError, match="item 7"):
            map_blocks(_fail_on_seven, range(20), (np.zeros((20, 2)),), n_jobs=2)
        assert set(active_segments()) == before

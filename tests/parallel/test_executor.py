"""Tests for the process-pool executor and the map every n_jobs caller uses."""

import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro.parallel.executor import (
    Executor,
    close_shared_executors,
    default_workers,
    effective_cpu_count,
    shared_executor,
)


def _square(x):
    return x * x


def _whoami(_):
    return os.getpid()


class TestSerialPath:
    def test_n_workers_one_runs_inline(self):
        ex = Executor(n_workers=1)
        assert ex.map(_square, range(5)) == [0, 1, 4, 9, 16]

    def test_empty_input(self):
        assert Executor(n_workers=1).map(_square, []) == []

    def test_single_item_runs_inline(self):
        ex = Executor(n_workers=4)
        assert ex.map(_square, [3]) == [9]

    def test_lambda_ok_serially(self):
        assert Executor(n_workers=1).map(lambda x: x + 1, [1, 2]) == [2, 3]


class TestParallelPath:
    def test_results_ordered(self):
        ex = Executor(n_workers=2)
        assert ex.map(_square, range(40)) == [i * i for i in range(40)]

    def test_work_runs_in_child_processes(self):
        ex = Executor(n_workers=2, chunks_per_worker=2)
        pids = set(ex.map(_whoami, range(16)))
        # on a single-core box the pool may drain every chunk through one
        # worker; what must hold is that no work ran in the parent
        assert pids and os.getpid() not in pids

    def test_matches_serial_results(self):
        serial = Executor(n_workers=1).map(_square, range(25))
        parallel = Executor(n_workers=3).map(_square, range(25))
        assert serial == parallel


class TestConfig:
    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_invalid_chunks_per_worker(self):
        with pytest.raises(ValueError, match="chunks_per_worker"):
            Executor(chunks_per_worker=0)

    def test_worker_floor(self):
        assert Executor(n_workers=-3).n_workers == 1


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


class TestDefaultWorkers:
    """The engine's serving path leans on these defaults; pin them down."""

    def test_leaves_one_core_free(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        assert default_workers() == 7

    def test_single_core_mask_still_gets_one_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert default_workers() == 1

    def test_unknown_core_count_falls_back(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_workers() == 1

    def test_none_n_workers_uses_default(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)))
        assert Executor(n_workers=None).n_workers == 4


def _slow_square(x):
    time.sleep(0.02)
    return x * x


class TestCloseMapRace:
    """Regression: close() racing an in-flight map must not break the pool.

    The old executor shut the pool down under a running ``pool.map``,
    surfacing ``BrokenProcessPool`` from the mapping thread. ``map`` and
    ``close`` now serialize on the executor lock: close waits for the
    in-flight map, and a later map lazily restarts the pool.
    """

    def test_close_waits_for_inflight_map(self):
        ex = Executor(n_workers=2)
        results: list = []
        errors: list = []

        def _mapper():
            try:
                results.append(ex.map(_slow_square, range(8)))
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        t = threading.Thread(target=_mapper)
        t.start()
        time.sleep(0.05)  # let the map reach the pool
        ex.close()
        t.join(timeout=30.0)
        assert not t.is_alive()
        assert errors == []
        assert results == [[i * i for i in range(8)]]
        # the executor stays usable after the racing close
        assert ex.map(_square, range(4)) == [0, 1, 4, 9]
        ex.close()


class TestSharedExecutors:
    def test_same_key_returns_same_instance(self):
        a = shared_executor(2)
        b = shared_executor(2)
        assert a is b

    def test_distinct_keys_get_distinct_pools(self):
        a = shared_executor(2)
        b = shared_executor(3)
        assert a is not b

    def test_close_shared_executors_resets_registry(self):
        a = shared_executor(2)
        close_shared_executors()
        assert shared_executor(2) is not a


class TestSerialFallback:
    """n_workers <= 1 must never touch a process pool."""

    def test_zero_workers_runs_inline(self):
        assert Executor(n_workers=0).map(_square, range(4)) == [0, 1, 4, 9]

    def test_serial_path_avoids_pool(self, monkeypatch):
        import repro.parallel.executor as executor_mod

        def _explode(*args, **kwargs):
            raise AssertionError("serial path must not build a process pool")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", _explode)
        assert Executor(n_workers=1).map(_square, range(6)) == [
            0, 1, 4, 9, 16, 25,
        ]

    def test_single_item_avoids_pool_even_with_workers(self, monkeypatch):
        import repro.parallel.executor as executor_mod

        def _explode(*args, **kwargs):
            raise AssertionError("single-item map must stay inline")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", _explode)
        assert Executor(n_workers=8).map(_square, [7]) == [49]

    def test_unpicklable_fn_ok_serially(self):
        results = Executor(n_workers=1).map(lambda x: x * 10, range(3))
        assert results == [0, 10, 20]

    def test_serial_preserves_generator_input(self):
        assert Executor(n_workers=1).map(_square, (i for i in range(5))) == [
            0, 1, 4, 9, 16,
        ]


class TestPoolReuse:
    def test_pool_persists_across_maps(self):
        ex = Executor(n_workers=2)
        try:
            ex.map(_square, range(4))
            pool1 = ex._pool
            ex.map(_square, range(4))
            assert ex._pool is pool1  # no spawn/teardown per map
        finally:
            ex.close()

    def test_lazy_start(self):
        ex = Executor(n_workers=2)
        assert ex._pool is None  # nothing spawned until first parallel map
        ex.close()

    def test_close_idempotent_and_restartable(self):
        ex = Executor(n_workers=2)
        assert ex.map(_square, range(4)) == [0, 1, 4, 9]
        ex.close()
        ex.close()  # second close is a no-op
        assert ex._pool is None
        # a closed executor lazily restarts on the next map
        assert ex.map(_square, range(4)) == [0, 1, 4, 9]
        ex.close()

    def test_context_manager_closes(self):
        with Executor(n_workers=2) as ex:
            assert ex.map(_square, range(4)) == [0, 1, 4, 9]
            assert ex._pool is not None
        assert ex._pool is None

    def test_serial_executor_never_starts_a_pool(self):
        ex = Executor(n_workers=1)
        ex.map(_square, range(10))
        assert ex._pool is None

    def test_executor_with_live_pool_is_picklable(self):
        # objects that reference their executor (a bound Executor.map) get
        # pickled into worker processes; the live pool must not ride along
        ex = Executor(n_workers=2)
        try:
            ex.map(_square, range(4))  # starts the pool
            clone = pickle.loads(pickle.dumps(ex))
            assert clone._pool is None
            assert clone.n_workers == 2
            assert clone.map(_square, range(3)) == [0, 1, 4]
            clone.close()
        finally:
            ex.close()


def _cube(x):
    return x * x * x


class TestWorkerFnCache:
    """The map function ships once per pool, not once per chunk."""

    def test_pool_is_seeded_with_first_fn(self):
        with Executor(n_workers=2) as ex:
            ex.map(_square, range(8))
            assert ex._seeded_digest is not None

    def test_same_fn_reuses_seeded_pool(self):
        with Executor(n_workers=2) as ex:
            ex.map(_square, range(8))
            pool = ex._pool
            assert ex.map(_square, range(8)) == [i * i for i in range(8)]
            assert ex._pool is pool

    def test_different_fn_same_pool_still_correct(self):
        with Executor(n_workers=2) as ex:
            assert ex.map(_square, range(6)) == [i * i for i in range(6)]
            assert ex.map(_cube, range(6)) == [i ** 3 for i in range(6)]

    def test_seed_cleared_on_close(self):
        ex = Executor(n_workers=2)
        ex.map(_square, range(8))
        ex.close()
        assert ex._seeded_digest is None


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


@pytest.fixture
def fresh_timings(monkeypatch):
    import repro.parallel.executor as executor_mod

    timings: dict = {}
    monkeypatch.setattr(executor_mod, "_SECONDS_PER_ITEM", timings)
    return timings


@pytest.fixture
def no_pool(monkeypatch):
    import repro.parallel.executor as executor_mod

    def _explode(*args, **kwargs):
        raise AssertionError("this map must stay in-process")

    monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", _explode)


class TestMapBlocksInProcess:
    @pytest.mark.parametrize("n_jobs", [None, 0, 1])
    def test_n_jobs_one_is_one_call(self, n_jobs, fresh_timings, no_pool):
        from repro.parallel import map_blocks

        parts = map_blocks(_pids, range(10), n_jobs=n_jobs)
        assert parts == [[(os.getpid(), x) for x in range(10)]]
        assert fresh_timings == {}  # no timing on the n_jobs=1 path

    def test_one_cpu_mask_runs_in_process(self, monkeypatch, fresh_timings, no_pool):
        from repro.parallel import map_blocks

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        parts = map_blocks(_pids, list(range(10)), n_jobs=8)
        assert parts == [[(os.getpid(), x) for x in range(10)]]

    def test_small_work_stays_in_process(self, monkeypatch, fresh_timings, no_pool):
        import repro.parallel.executor as executor_mod
        from repro.parallel import map_blocks

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
        import repro.parallel.executor as executor_mod
        from repro.parallel import map_blocks

        monkeypatch.setattr(executor_mod, "effective_cpu_count", lambda: 2)
        fresh_timings[executor_mod._cost_key(_pids, ())] = 1.0  # 1 s per item
        parts = map_blocks(_pids, list(range(16)), n_jobs=2)
        assert [x for part in parts for _, x in part] == list(range(16))
        pids = {pid for part in parts for pid, _ in part}
        assert pids and os.getpid() not in pids
        # the workers' own timing replaces the estimate
        assert fresh_timings[executor_mod._cost_key(_pids, ())] < 1.0

    @pytest.mark.parametrize("n_jobs", [2, 3, 4])
    def test_arrays_cross_through_shared_memory(self, n_jobs, fan_out):
        from repro.parallel import active_segments, map_blocks

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
        from repro.parallel import active_segments, map_blocks

        before = set(active_segments())
        with pytest.raises(ValueError, match="item 7"):
            map_blocks(_fail_on_seven, range(20), (np.zeros((20, 2)),), n_jobs=2)
        assert set(active_segments()) == before

"""Lifecycle tests for the shared-memory transport.

The contract under test: every ``SharedArray`` owner unlinks its
``/dev/shm`` segment exactly once — on normal exit, on exceptions, on
garbage collection, and even when a pool worker attached to the segment
crashes hard. A leaked segment on a production HPC node eats tmpfs
until reboot, so these tests diff ``active_segments()`` around every
scenario.
"""

import gc
import pickle

import numpy as np
import pytest

from repro.parallel import Executor, active_segments
from repro.parallel.shm import SharedArray, SharedArrayHandle


@pytest.fixture(autouse=True)
def no_segment_leaks():
    before = set(active_segments())
    yield
    leaked = sorted(set(active_segments()) - before)
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def _matrix() -> np.ndarray:
    return np.arange(24.0).reshape(6, 4)


class TestSharedArrayRoundtrip:
    def test_owner_sees_copied_data(self):
        data = _matrix()
        with SharedArray(data) as sh:
            assert np.array_equal(sh.array, data)
            # a copy, not a view: mutating the source must not leak through
            data[0, 0] = 99.0
            assert sh.array[0, 0] == 0.0

    def test_attachment_sees_same_bytes(self):
        with SharedArray(_matrix()) as sh:
            with sh.handle.open() as att:
                assert np.array_equal(att.array, _matrix())
                assert att.array.dtype == np.float64
                assert att.array.shape == (6, 4)

    def test_handle_is_picklable(self):
        with SharedArray(_matrix()) as sh:
            handle = pickle.loads(pickle.dumps(sh.handle))
            assert isinstance(handle, SharedArrayHandle)
            with handle.open() as att:
                assert np.array_equal(att.array, _matrix())

    def test_non_contiguous_input(self):
        data = np.arange(40.0).reshape(10, 4)[::2]  # strided view
        with SharedArray(data) as sh:
            assert np.array_equal(sh.array, data)

    def test_zero_size_array(self):
        with SharedArray(np.empty((0, 3))) as sh:
            with sh.handle.open() as att:
                assert att.array.shape == (0, 3)


class TestUnlinkOnExit:
    def test_normal_exit_unlinks(self):
        with SharedArray(_matrix()) as sh:
            name = sh.handle.name
            assert name in active_segments()
        assert name not in active_segments()

    def test_exception_exit_unlinks(self):
        name = None
        with pytest.raises(RuntimeError, match="boom"):
            with SharedArray(_matrix()) as sh:
                name = sh.handle.name
                raise RuntimeError("boom")
        assert name not in active_segments()

    def test_close_is_idempotent(self):
        sh = SharedArray(_matrix())
        sh.close()
        sh.close()
        assert sh.closed

    def test_gc_unlinks_unclosed_owner(self):
        sh = SharedArray(_matrix())
        name = sh.handle.name
        assert name in active_segments()
        del sh
        gc.collect()
        assert name not in active_segments()

    def test_closed_owner_rejects_array_access(self):
        sh = SharedArray(_matrix())
        sh.close()
        assert sh.array is None


def _read_cell(args):
    handle, i = args
    with handle.open() as att:
        return float(att.array[i, 0])


def _crash(args):
    import os

    os._exit(13)  # hard kill: no finally blocks, no atexit


class TestWorkerLifecycles:
    def test_workers_attach_and_owner_unlinks(self):
        data = _matrix()
        with SharedArray(data) as sh:
            with Executor(n_workers=2) as ex:
                out = ex.map(
                    _read_cell, [(sh.handle, i) for i in range(len(data))]
                )
        assert out == [float(v) for v in data[:, 0]]

    def test_worker_crash_leaves_no_segment(self):
        from concurrent.futures.process import BrokenProcessPool

        with SharedArray(_matrix()) as sh:
            name = sh.handle.name
            ex = Executor(n_workers=2)
            try:
                with pytest.raises(BrokenProcessPool):
                    ex.map(_crash, [(sh.handle, i) for i in range(6)])
            finally:
                ex.close()
        assert name not in active_segments()

    def test_exception_during_map_leaves_no_segment(self):
        with SharedArray(_matrix()) as sh:
            name = sh.handle.name
            with Executor(n_workers=2) as ex:
                with pytest.raises(IndexError):
                    ex.map(
                        _read_cell, [(sh.handle, i) for i in range(100)]
                    )
        assert name not in active_segments()

"""Tests for how map_blocks cuts its items into blocks."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parallel import map_blocks
from repro.parallel.executor import chunk_sizes


class TestChunkSizes:
    def test_even_division(self):
        assert chunk_sizes(12, 4) == [3, 3, 3, 3]

    def test_remainder_goes_to_front(self):
        assert chunk_sizes(10, 4) == [3, 3, 2, 2]

    def test_more_parts_than_items(self):
        assert chunk_sizes(2, 5) == [1, 1, 0, 0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_sizes(5, 0)
        with pytest.raises(ValueError):
            chunk_sizes(-1, 2)

    @given(n=st.integers(0, 500), p=st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_sizes_sum_and_balance(self, n, p):
        sizes = chunk_sizes(n, p)
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1


def _block(block):
    return list(block)


class TestBlockPartition:
    """The blocks a fan-out hands its workers."""

    def test_blocks_are_contiguous(self, fan_out):
        parts = map_blocks(_block, range(50), n_jobs=3)
        assert len(parts) > 3
        for part in parts:
            assert part == list(range(part[0], part[-1] + 1))

    @given(n=st.integers(0, 300), p=st.integers(1, 16))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_exact_cover(self, fan_out, n, p):
        parts = map_blocks(_block, range(n), n_jobs=p)
        assert all(parts) or n == 0
        assert [x for part in parts for x in part] == list(range(n))

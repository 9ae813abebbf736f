"""Tests for the block partitioners."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.partition import block_partition, chunk_sizes


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


class TestBlockPartition:
    def test_blocks_are_contiguous(self):
        parts = block_partition(10, 3)
        for part in parts:
            if len(part) > 1:
                assert np.all(np.diff(part) == 1)

    @given(n=st.integers(0, 300), p=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_exact_cover(self, n, p):
        parts = block_partition(n, p)
        merged = np.concatenate(parts) if parts else np.array([])
        assert np.array_equal(merged, np.arange(n))


"""Balanced contiguous block partitions of a work list.

Feature extraction over hundreds of runs and forest fits over many trees
are embarrassingly parallel; these helpers split index ranges the way an
MPI code would decompose a domain, into contiguous blocks balanced to
within one item (good cache behaviour, and every block stays a slice).
"""

from __future__ import annotations

import numpy as np

__all__ = ["block_partition", "chunk_sizes"]


def chunk_sizes(n_items: int, n_parts: int) -> list[int]:
    """Sizes of ``n_parts`` balanced blocks covering ``n_items`` items.

    The first ``n_items % n_parts`` blocks get one extra item — the
    canonical balanced-block rule.
    """
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    base, extra = divmod(n_items, n_parts)
    return [base + (1 if p < extra else 0) for p in range(n_parts)]


def block_partition(n_items: int, n_parts: int) -> list[np.ndarray]:
    """Contiguous index blocks, balanced to within one item."""
    sizes = chunk_sizes(n_items, n_parts)
    out: list[np.ndarray] = []
    start = 0
    for size in sizes:
        out.append(np.arange(start, start + size))
        start += size
    return out


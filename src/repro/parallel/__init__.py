"""repro.parallel — the one way work crosses into workers (pool, shared memory)."""

from .executor import (
    Executor,
    close_shared_executors,
    default_workers,
    effective_cpu_count,
    map_blocks,
    shared_executor,
)
from .partition import block_partition, chunk_sizes
from .shm import (
    SHM_PREFIX,
    AttachedArray,
    SharedArray,
    SharedArrayHandle,
    active_segments,
)

__all__ = [
    "AttachedArray",
    "Executor",
    "SHM_PREFIX",
    "SharedArray",
    "SharedArrayHandle",
    "active_segments",
    "block_partition",
    "chunk_sizes",
    "close_shared_executors",
    "default_workers",
    "effective_cpu_count",
    "map_blocks",
    "shared_executor",
]

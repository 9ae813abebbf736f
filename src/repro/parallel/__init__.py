"""repro.parallel — the one way work crosses into workers (pool, shared memory)."""

from .executor import close_shared_executors, effective_cpu_count, map_blocks
from .shm import (
    SHM_PREFIX,
    AttachedArray,
    SharedArray,
    SharedArrayHandle,
    active_segments,
)

__all__ = [
    "AttachedArray",
    "SHM_PREFIX",
    "SharedArray",
    "SharedArrayHandle",
    "active_segments",
    "close_shared_executors",
    "effective_cpu_count",
    "map_blocks",
]

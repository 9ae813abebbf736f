"""repro.cluster — multi-node cluster simulation.

Jobs spanning several compute nodes, first-fit scheduling over a fixed
node pool, and per-node telemetry collection with the paper's labeling
rule (anomaly on the first allocated node; other nodes of the same job
contribute healthy samples).
"""

from .job import Job
from .simulator import ClusterSim, JobPlacement
from .topology import VOLTA_TOPOLOGY, SwitchTopology, contention_factors

__all__ = [
    "ClusterSim",
    "Job",
    "JobPlacement",
    "SwitchTopology",
    "VOLTA_TOPOLOGY",
    "contention_factors",
]

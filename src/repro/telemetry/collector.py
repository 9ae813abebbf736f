"""Per-run telemetry collection: the (T × M) sample of the paper.

A *sample* in the paper is "the whole set of telemetry data collected
during the execution of an application on a compute node". ``RunRecord``
is that unit: the raw metric matrix plus the ground-truth metadata
(application, input deck, node count, anomaly label and intensity) the
experiments need for labeling, splitting, and drill-down analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mlcore.base import check_random_state
from .catalog import MetricCatalog
from .node import NodeProfile
from .sampler import TelemetrySampler

__all__ = ["RunRecord", "Collector"]

HEALTHY = "healthy"


@dataclass
class RunRecord:
    """One application execution on one compute node.

    ``label`` is the diagnosis target: the anomaly name if an anomaly ran
    alongside the application on this node, else ``"healthy"``.
    """

    app: str
    input_deck: int
    node_count: int
    node_id: int
    anomaly: str | None
    intensity: float
    data: np.ndarray  # (T, n_metrics), may contain NaNs
    metric_names: list[str] = field(repr=False, default_factory=list)

    @property
    def label(self) -> str:
        """Ground-truth diagnosis label (anomaly name or ``"healthy"``)."""
        return self.anomaly if self.anomaly is not None else HEALTHY

    @property
    def duration(self) -> int:
        """Number of 1 Hz samples collected."""
        return self.data.shape[0]

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(f"data must be (T, M), got {self.data.shape}")
        if self.metric_names and len(self.metric_names) != self.data.shape[1]:
            raise ValueError("metric_names / data column mismatch")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError(f"intensity must be in [0, 1], got {self.intensity}")


class Collector:
    """Run applications (optionally with an anomaly) and record telemetry.

    Wires an application signature's demand timeline through the anomaly
    injector and the node model into the sampler — the whole left column of
    the paper's Fig. 1.
    """

    def __init__(
        self,
        catalog: MetricCatalog,
        node: NodeProfile,
        missing_rate: float = 0.005,
    ):
        self.catalog = catalog
        self.node = node
        self.sampler = TelemetrySampler(
            catalog=catalog, node=node, missing_rate=missing_rate
        )

    def collect(
        self,
        app,
        input_deck: int,
        duration: int,
        anomaly=None,
        intensity: float = 0.0,
        node_count: int = 4,
        rng: int | np.random.Generator | None = None,
    ) -> RunRecord:
        """Execute one run and return its :class:`RunRecord`.

        ``app`` is an :class:`repro.apps.base.AppSignature`; ``anomaly`` an
        optional :class:`repro.anomalies.base.Anomaly`. The record is
        node 0's, the first allocated node, where the paper runs the
        anomaly.
        """
        rng = check_random_state(rng)
        demand = app.demand_timeline(
            duration, input_deck=input_deck, node_count=node_count, rng=rng
        )
        if anomaly is not None:
            demand = anomaly.inject(demand, intensity=intensity, rng=rng)
        data = self.sampler.sample(demand, rng=rng)
        return RunRecord(
            app=app.name,
            input_deck=input_deck,
            node_count=node_count,
            node_id=0,
            anomaly=None if anomaly is None else anomaly.name,
            intensity=float(intensity) if anomaly is not None else 0.0,
            data=data,
            metric_names=self.catalog.names,
        )

"""Packed run-corpus container: the data plane's zero-copy unit of work.

``list[RunRecord]`` is the friendly API surface, but on the hot path it is
a poor transport: shipping a chunk of records to a worker process pickles
every dataclass, every per-record ``metric_names`` list, and every small
``data`` array separately. :class:`RunCorpus` packs a whole campaign into
*one* contiguous ``(sum_T, M)`` float64 buffer plus ragged row offsets and
flat metadata arrays, so

* work crosses into a worker process as one buffer in shared memory
  plus a range of runs (no per-record pickling),
* featurization can walk runs as views into the buffer, and
* metadata columns (labels, apps, decks, …) are already the flat arrays
  :class:`~repro.features.pipeline.FeatureDataset` wants.

Conversion to/from ``list[RunRecord]`` is lossless; ``record(i)`` returns
views (no copies) into the packed buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .collector import HEALTHY, RunRecord

__all__ = ["RunCorpus", "plan_length_groups", "DEFAULT_MAX_PANEL_ELEMS"]

# Cap on T * B * M float64 elements per extraction panel (1 MB of
# telemetry). The extraction kernels hold a few dozen panel-sized
# temporaries at once (hstack panel, interpolated and differenced copies,
# centered/z-scored/squared series, sort buffers, Welch segments), so the
# cap is what bounds a whole-campaign call's transient: featurizing 81
# MVTS runs of (96, 51) peaks at ~16 MB traced and 143 TSFRESH runs of
# (120, 76) at ~37 MB, against ~35 MB and ~167 MB at 1 << 22, with equal
# or lower time. Larger panels buy nothing: 10^5 elements already
# amortize each kernel's dispatch cost.
DEFAULT_MAX_PANEL_ELEMS = 1 << 17


def plan_length_groups(
    lengths: np.ndarray,
    n_metrics: int,
    max_panel_elems: int = DEFAULT_MAX_PANEL_ELEMS,
) -> list[np.ndarray]:
    """Plan run-batched extraction panels: group run indices by length.

    Runs whose raw length ``T`` matches trim to the same post-trim length,
    so their ``(T, M)`` matrices can be ``hstack``-ed into one ``(T, B*M)``
    panel and preprocessed + featurized in a single kernel pass (every
    reduction in the extractors is per-column). Returns index arrays into
    ``lengths``, each holding runs of one identical ``T``; groups larger
    than ``max_panel_elems / (T * n_metrics)`` runs are split so the panel
    working set stays bounded. The plan is deterministic: groups are
    ordered by ``T``, and indices inside a group keep corpus order.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if n_metrics <= 0:
        raise ValueError(f"n_metrics must be positive, got {n_metrics}")
    if max_panel_elems <= 0:
        raise ValueError(f"max_panel_elems must be positive, got {max_panel_elems}")
    groups: list[np.ndarray] = []
    for T in np.unique(lengths):
        idx = np.flatnonzero(lengths == T)
        per_panel = max(1, int(max_panel_elems // max(1, int(T) * n_metrics)))
        for lo in range(0, len(idx), per_panel):
            groups.append(idx[lo:lo + per_panel])
    return groups


@dataclass
class RunCorpus:
    """A campaign's runs packed into one buffer + flat metadata arrays.

    ``buffer`` stacks every run's ``(T_i, M)`` telemetry matrix along axis
    0; run ``i`` occupies rows ``offsets[i]:offsets[i + 1]``. The metadata
    arrays are aligned per run. ``anomalies`` stores ``""`` for healthy
    runs (fixed-width unicode arrays cannot hold ``None``).
    """

    buffer: np.ndarray  # (sum_T, M) float64
    offsets: np.ndarray  # (n_runs + 1,) int64
    apps: np.ndarray
    input_decks: np.ndarray
    node_counts: np.ndarray
    node_ids: np.ndarray
    anomalies: np.ndarray
    intensities: np.ndarray
    metric_names: list[str] = field(repr=False, default_factory=list)

    def __post_init__(self) -> None:
        self.buffer = np.asarray(self.buffer, dtype=np.float64)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        if self.buffer.ndim != 2:
            raise ValueError(f"buffer must be (sum_T, M), got {self.buffer.shape}")
        if self.offsets.ndim != 1 or len(self.offsets) < 1:
            raise ValueError("offsets must be a 1-D array of length n_runs + 1")
        if self.offsets[0] != 0 or self.offsets[-1] != self.buffer.shape[0]:
            raise ValueError("offsets must span the buffer exactly")
        if np.any(np.diff(self.offsets) <= 0):
            raise ValueError("offsets must be strictly increasing (no empty runs)")
        n = len(self)
        for name in ("apps", "input_decks", "node_counts", "node_ids",
                     "anomalies", "intensities"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length does not match run count {n}")
        if self.metric_names and len(self.metric_names) != self.buffer.shape[1]:
            raise ValueError("metric_names / buffer column mismatch")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_metrics(self) -> int:
        return self.buffer.shape[1]

    @property
    def lengths(self) -> np.ndarray:
        """Per-run raw sample counts ``T_i`` (the group-by key for batching)."""
        return np.diff(self.offsets)

    @property
    def labels(self) -> np.ndarray:
        """Per-run diagnosis labels (anomaly name or ``"healthy"``)."""
        return np.where(self.anomalies == "", HEALTHY, self.anomalies)

    def run_data(self, i: int) -> np.ndarray:
        """Zero-copy view of run ``i``'s ``(T_i, M)`` telemetry matrix."""
        return self.buffer[self.offsets[i]:self.offsets[i + 1]]

    def take_columns(self, columns: np.ndarray) -> "RunCorpus":
        """The same runs restricted to metric ``columns`` (a compact copy).

        Every run keeps its length and metadata; only the buffer narrows,
        so a column-sliced corpus featurizes through the same batched
        path as the full one.
        """
        columns = np.asarray(columns, dtype=np.int64)
        return RunCorpus(
            # np.take keeps the buffer C-ordered; buffer[:, columns] would
            # be F-ordered, and numpy sums F-ordered panels pairwise
            buffer=np.take(self.buffer, columns, axis=1),
            offsets=self.offsets,
            apps=self.apps,
            input_decks=self.input_decks,
            node_counts=self.node_counts,
            node_ids=self.node_ids,
            anomalies=self.anomalies,
            intensities=self.intensities,
            metric_names=[self.metric_names[j] for j in columns]
            if self.metric_names else [],
        )

    def record(self, i: int) -> RunRecord:
        """Materialize run ``i`` as a :class:`RunRecord` (data is a view)."""
        i = int(i)
        if not 0 <= i < len(self):
            raise IndexError(f"run index {i} out of range for {len(self)} runs")
        anomaly = str(self.anomalies[i]) or None
        return RunRecord(
            app=str(self.apps[i]),
            input_deck=int(self.input_decks[i]),
            node_count=int(self.node_counts[i]),
            node_id=int(self.node_ids[i]),
            anomaly=anomaly,
            intensity=float(self.intensities[i]),
            data=self.run_data(i),
            metric_names=self.metric_names,
        )

    def __iter__(self) -> Iterator[RunRecord]:
        return (self.record(i) for i in range(len(self)))

    def to_records(self) -> list[RunRecord]:
        """The friendly representation (data arrays are buffer views)."""
        return [self.record(i) for i in range(len(self))]

    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, runs: Sequence[RunRecord]) -> "RunCorpus":
        """Pack a record list; all runs must share the metric catalog."""
        if not runs:
            raise ValueError("cannot pack an empty run list")
        widths = {r.data.shape[1] for r in runs}
        if len(widths) != 1:
            raise ValueError(f"runs disagree on metric count: {sorted(widths)}")
        names = runs[0].metric_names
        for r in runs:
            if r.metric_names != names:
                raise ValueError("runs disagree on metric names")
        lengths = np.array([r.data.shape[0] for r in runs], dtype=np.int64)
        offsets = np.zeros(len(runs) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(
            buffer=np.concatenate([r.data for r in runs], axis=0),
            offsets=offsets,
            apps=np.array([r.app for r in runs]),
            input_decks=np.array([r.input_deck for r in runs], dtype=np.int64),
            node_counts=np.array([r.node_count for r in runs], dtype=np.int64),
            node_ids=np.array([r.node_id for r in runs], dtype=np.int64),
            anomalies=np.array([r.anomaly or "" for r in runs]),
            intensities=np.array([r.intensity for r in runs], dtype=np.float64),
            metric_names=list(names),
        )

    @classmethod
    def concat(cls, parts: Sequence["RunCorpus"]) -> "RunCorpus":
        """Stitch chunk results back into one corpus (order preserved)."""
        if not parts:
            raise ValueError("cannot concatenate zero corpus chunks")
        if len(parts) == 1:
            return parts[0]
        names = parts[0].metric_names
        widths = {p.n_metrics for p in parts}
        if len(widths) != 1:
            raise ValueError(f"chunks disagree on metric count: {sorted(widths)}")
        for p in parts:
            if p.metric_names != names:
                raise ValueError("chunks disagree on metric names")
        sizes = np.array([p.offsets[-1] for p in parts], dtype=np.int64)
        bases = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        offsets = np.concatenate(
            [[0]] + [p.offsets[1:] + base for p, base in zip(parts, bases)]
        )
        return cls(
            buffer=np.concatenate([p.buffer for p in parts], axis=0),
            offsets=offsets,
            apps=np.concatenate([p.apps for p in parts]),
            input_decks=np.concatenate([p.input_decks for p in parts]),
            node_counts=np.concatenate([p.node_counts for p in parts]),
            node_ids=np.concatenate([p.node_ids for p in parts]),
            anomalies=np.concatenate([p.anomalies for p in parts]),
            intensities=np.concatenate([p.intensities for p in parts]),
            metric_names=list(names),
        )

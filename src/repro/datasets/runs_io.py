"""Raw run-record persistence (.npz archives).

The CLI's campaign/train/diagnose stages exchange *raw* telemetry runs,
not featurized matrices — feature extraction belongs to the trained
framework (its drop-mask and scaler are fit state). This module packs a
list of :class:`~repro.telemetry.collector.RunRecord` into one compressed
archive: a stacked data tensor (runs must share duration and catalog) plus
parallel metadata arrays. Every array is numeric or unicode, so an
archive loads without unpickling anything: ``--runs`` files come from
outside the process, and a pickled array in one could run code on load.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from ..telemetry.collector import RunRecord

__all__ = ["save_runs", "load_runs"]

_FIELDS = (
    "data", "app", "input_deck", "node_count", "node_id", "anomaly",
    "intensity", "metric_names",
)


def save_runs(runs: Sequence[RunRecord], path: str | Path) -> Path:
    """Write runs to a compressed ``.npz``; all runs must be homogeneous."""
    if not runs:
        raise ValueError("no runs to save")
    durations = {r.data.shape[0] for r in runs}
    widths = {r.data.shape[1] for r in runs}
    if len(durations) != 1 or len(widths) != 1:
        raise ValueError(
            f"runs are heterogeneous: durations {sorted(durations)}, "
            f"metric counts {sorted(widths)}"
        )
    names = runs[0].metric_names
    for r in runs:
        if r.metric_names != names:
            raise ValueError("runs disagree on metric names")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        data=np.stack([r.data for r in runs]),
        app=np.array([r.app for r in runs]),
        input_deck=np.array([r.input_deck for r in runs]),
        node_count=np.array([r.node_count for r in runs]),
        node_id=np.array([r.node_id for r in runs]),
        anomaly=np.array([r.anomaly or "" for r in runs]),
        intensity=np.array([r.intensity for r in runs]),
        metric_names=np.array(names, dtype=str),
    )
    return path


def load_runs(path: str | Path) -> list[RunRecord]:
    """Restore runs written by :func:`save_runs`.

    Raises :class:`ValueError` for an archive holding an object array:
    loading one would unpickle it.
    """
    with np.load(Path(path), allow_pickle=False) as z:
        try:
            # each z[key] decompresses the whole member: read every one once
            cols = {key: z[key] for key in _FIELDS}
        except ValueError as exc:
            raise ValueError(
                f"{path}: run archive holds an object (pickled) array; "
                f"refusing to unpickle it ({exc})"
            ) from None
    names = [str(name) for name in cols["metric_names"]]
    return [
        RunRecord(
            app=str(cols["app"][i]),
            input_deck=int(cols["input_deck"][i]),
            node_count=int(cols["node_count"][i]),
            node_id=int(cols["node_id"][i]),
            anomaly=str(cols["anomaly"][i]) or None,
            intensity=float(cols["intensity"][i]),
            data=cols["data"][i],
            metric_names=names,
        )
        for i in range(len(cols["app"]))
    ]

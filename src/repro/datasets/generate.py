"""Run-campaign generation (paper Sec. IV-A/IV-C data collection).

A *campaign* runs every application with every input deck many times,
healthy and with each synthetic anomaly at each intensity setting, and
records per-node telemetry — the raw material behind both the Volta and
Eclipse datasets. :class:`SystemConfig` captures everything that differs
between the two systems (applications, node hardware, metric catalog,
intensity grid, node counts, run durations), and
:func:`generate_runs` / :func:`build_dataset` execute the campaign.

Two execution modes:

* ``n_jobs=None`` (default) — the legacy serial path: one shared RNG is
  consumed run by run, byte-identical to every corpus this repo has ever
  generated. Cached ``.npz`` snapshots and seeded experiment numbers
  stay valid.
* ``n_jobs=<int>`` — the *seed-streamed* data plane: the full
  (app × deck × anomaly × repeat) condition grid is materialized up
  front and every run draws from its own RNG stream derived from the
  master seed plus the run's grid coordinates (the same trick as the
  forest's per-tree streams). Because no run reads another run's stream,
  the corpus is bit-identical at any worker count — ``n_jobs=1`` and
  ``n_jobs=8`` produce the same bytes — and the grid goes through
  :func:`repro.parallel.map_blocks` in blocks that each come back as a
  packed :class:`~repro.telemetry.corpus.RunCorpus` (one contiguous
  buffer, no per-record pickling). See ``docs/data_plane.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping

import numpy as np

from ..anomalies import get_anomaly
from ..apps.base import AppSignature
from ..features.pipeline import FeatureDataset, FeatureExtractor
from ..mlcore.base import check_random_state
from ..parallel import map_blocks
from ..telemetry.catalog import MetricCatalog
from ..telemetry.collector import Collector, RunRecord
from ..telemetry.corpus import RunCorpus
from ..telemetry.node import NodeProfile

__all__ = ["SystemConfig", "generate_runs", "generate_corpus", "build_dataset"]


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to run a data-collection campaign on one system.

    ``n_healthy_per_app_input`` healthy runs are collected for every
    (application, input deck) pair; ``n_anomalous_per_app_anomaly``
    anomalous runs for every (application, anomaly) pair, cycling through
    input decks, node counts, and the intensity grid so the anomalous
    corpus covers the full condition matrix.
    """

    name: str
    apps: Mapping[str, AppSignature]
    catalog: MetricCatalog
    node: NodeProfile
    anomaly_names: tuple[str, ...] = (
        "cpuoccupy",
        "cachecopy",
        "membw",
        "memleak",
        "dial",
    )
    intensities: tuple[float, ...] = (0.1, 0.5, 1.0)
    node_counts: tuple[int, ...] = (4,)
    duration: int = 120
    n_healthy_per_app_input: int = 10
    n_anomalous_per_app_anomaly: int = 6
    missing_rate: float = 0.005

    def __post_init__(self) -> None:
        if not self.apps:
            raise ValueError("campaign needs at least one application")
        if self.duration < 32:
            raise ValueError(f"duration too short for feature extraction: {self.duration}")
        if self.n_healthy_per_app_input < 1 or self.n_anomalous_per_app_anomaly < 1:
            raise ValueError("need at least one run per condition")

    @property
    def classes(self) -> tuple[str, ...]:
        """The diagnosis label set: healthy plus every anomaly."""
        return ("healthy", *self.anomaly_names)


# ----------------------------------------------------------------------
# the condition grid and per-run seed streams (parallel data plane)

@dataclass(frozen=True)
class _RunSpec:
    """One cell of the campaign grid, with its RNG stream coordinates.

    ``stream_key`` identifies the run's independent seed stream: healthy
    runs use ``(app_idx, 0, deck, repeat)``, anomalous runs
    ``(app_idx, 1 + anomaly_idx, repeat)``. The key depends only on the
    grid coordinates — never on enumeration order or worker count.
    ``node_count`` is ``None`` for healthy runs: they draw it at
    collection time (see :func:`_collect_spec`).
    """

    app_name: str
    input_deck: int
    anomaly_name: str | None
    intensity: float
    node_count: int | None
    stream_key: tuple[int, ...]


def _campaign_grid(config: SystemConfig) -> list[_RunSpec]:
    """Materialize every (app × deck × anomaly × repeat) cell, in corpus
    order; both generators enumerate this grid."""
    specs: list[_RunSpec] = []
    for app_idx, (app_name, app) in enumerate(sorted(config.apps.items())):
        n_inputs = min(app.n_inputs, 3)
        for deck in range(n_inputs):
            for rep in range(config.n_healthy_per_app_input):
                specs.append(
                    _RunSpec(
                        app_name=app_name,
                        input_deck=deck,
                        anomaly_name=None,
                        intensity=0.0,
                        node_count=None,
                        stream_key=(app_idx, 0, deck, rep),
                    )
                )
        for anomaly_idx, anomaly_name in enumerate(config.anomaly_names):
            for rep in range(config.n_anomalous_per_app_anomaly):
                specs.append(
                    _RunSpec(
                        app_name=app_name,
                        input_deck=rep % n_inputs,
                        anomaly_name=anomaly_name,
                        intensity=config.intensities[rep % len(config.intensities)],
                        node_count=config.node_counts[rep % len(config.node_counts)],
                        stream_key=(app_idx, 1 + anomaly_idx, rep),
                    )
                )
    return specs


def _master_entropy(rng: int | np.random.Generator | None) -> int:
    """The campaign-level seed the per-run streams branch from."""
    if rng is None:
        return int(np.random.SeedSequence().entropy)  # repro-lint: disable=DET003 -- rng=None explicitly requests OS entropy; all deterministic paths pass a seed
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(np.iinfo(np.int64).max))
    return int(rng)


def _collect_spec(
    collector: Collector,
    config: SystemConfig,
    spec: _RunSpec,
    rng: np.random.Generator,
) -> RunRecord:
    """Collect one grid cell. A healthy run draws its ``node_count`` from
    ``rng`` first: the campaign's shared RNG on the legacy path, the
    run's own stream on the seed-streamed one."""
    node_count = spec.node_count
    if node_count is None:
        node_count = config.node_counts[int(rng.integers(len(config.node_counts)))]
    return collector.collect(
        config.apps[spec.app_name],
        input_deck=spec.input_deck,
        duration=config.duration,
        anomaly=get_anomaly(spec.anomaly_name) if spec.anomaly_name else None,
        intensity=spec.intensity,
        node_count=node_count,
        rng=rng,
    )


def _collect_runs(
    config: SystemConfig, master: int, specs: list[_RunSpec]
) -> RunCorpus:
    """Worker body: collect one block of the grid into a packed corpus.

    Every run derives its RNG purely from ``(master, stream_key)``, so
    the result is independent of blocking and worker count.
    """
    collector = Collector(config.catalog, config.node, config.missing_rate)
    runs = [
        _collect_spec(
            collector,
            config,
            spec,
            np.random.default_rng(
                np.random.SeedSequence(entropy=master, spawn_key=spec.stream_key)
            ),
        )
        for spec in specs
    ]
    return RunCorpus.from_records(runs)


def generate_corpus(
    config: SystemConfig,
    rng: int | np.random.Generator | None = None,
    n_jobs: int = 1,
) -> RunCorpus:
    """Execute the campaign with per-run seed streams, packed.

    The output is bit-identical for every ``n_jobs``; pass the same seed
    to get the same corpus whether it was built by one process or eight.
    Fan-out rides :func:`repro.parallel.map_blocks` and its process-wide
    warm pool, so the featurize and fit stages that follow reuse the
    same workers.
    """
    master = _master_entropy(rng)
    specs = _campaign_grid(config)
    parts = map_blocks(partial(_collect_runs, config, master), specs, n_jobs=n_jobs)
    return RunCorpus.concat(parts)


# ----------------------------------------------------------------------
def generate_runs(
    config: SystemConfig,
    rng: int | np.random.Generator | None = None,
    n_jobs: int | None = None,
) -> list[RunRecord]:
    """Execute the full campaign and return every collected run.

    ``n_jobs=None`` keeps the legacy shared-RNG serial path (byte-stable
    across releases); any explicit ``n_jobs`` — including 1 — switches to
    the seed-streamed grid of :func:`generate_corpus`, whose output is
    bit-identical at every worker count but differs from the legacy
    stream (each run owns an independent RNG).
    """
    if n_jobs is not None:
        return generate_corpus(config, rng, n_jobs=n_jobs).to_records()
    rng = check_random_state(rng)
    collector = Collector(config.catalog, config.node, config.missing_rate)
    return [
        _collect_spec(collector, config, spec, rng)
        for spec in _campaign_grid(config)
    ]


def build_dataset(
    config: SystemConfig,
    method: str = "mvts",
    rng: int | np.random.Generator | None = None,
    n_jobs: int | None = None,
) -> tuple[FeatureDataset, FeatureExtractor]:
    """Run the campaign and featurize it in one call.

    Returns the featurized corpus plus the fitted extractor (whose drop
    mask must be reused on any later runs from the same system).
    ``n_jobs=None`` is the legacy serial pipeline; an explicit ``n_jobs``
    runs the seed-streamed generator *and* chunk-wise parallel feature
    extraction, with output bit-identical at every worker count.
    """
    if n_jobs is None:
        runs = generate_runs(config, rng)
        extractor = FeatureExtractor(config.catalog, method=method)
        return extractor.fit_transform(runs), extractor
    corpus = generate_corpus(config, rng, n_jobs=n_jobs)
    extractor = FeatureExtractor(config.catalog, method=method, n_jobs=n_jobs)
    return extractor.fit_transform(corpus), extractor

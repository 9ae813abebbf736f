"""The legacy serial campaign (``generate_runs(..., n_jobs=None)``) is
pinned to its bytes.

Every seeded paper number in EXPERIMENTS.md starts from this stream, so
any change to a digest below is a bug, not a re-baseline: it would move
every result built on it. The digests were recorded from the shared-RNG
generator before it was folded onto the campaign grid.
"""

import hashlib

import pytest

from repro.apps.volta_apps import VOLTA_APPS
from repro.datasets.generate import SystemConfig, generate_runs
from repro.datasets.volta import volta_config
from repro.telemetry.catalog import build_catalog
from repro.telemetry.node import VOLTA_NODE


def corpus_sha256(runs) -> str:
    """Digest of every field and sample of a run list, in order."""
    h = hashlib.sha256()
    for r in runs:
        h.update(
            f"{r.app}|{r.input_deck}|{r.node_count}|{r.node_id}|"
            f"{r.anomaly}|{r.intensity!r}|{','.join(r.metric_names)}|"
            f"{r.data.shape}|{r.data.dtype.str}\n".encode()
        )
        h.update(r.data.tobytes())
    return h.hexdigest()


def _mixed_node_counts() -> SystemConfig:
    """Healthy runs draw ``node_count`` from the shared RNG only when
    there is more than one to choose from."""
    return SystemConfig(
        name="mixed-nodes",
        apps={k: VOLTA_APPS[k] for k in ("CG", "BT")},
        catalog=build_catalog(n_cores=1, n_nics=1, n_extra_cray=2),
        node=VOLTA_NODE,
        intensities=(0.2, 1.0),
        node_counts=(2, 4, 8),
        duration=48,
        n_healthy_per_app_input=2,
        n_anomalous_per_app_anomaly=2,
    )


@pytest.mark.parametrize(
    "make_config, seed, digest",
    [
        (
            lambda: volta_config(
                scale=0.03, n_healthy_per_app_input=1,
                n_anomalous_per_app_anomaly=2, duration=48,
            ),
            1,
            "1372933efcf2790fbbbc49e10b6dcfe5de44d058b0e25aa9a631094f4bec353f",
        ),
        (
            _mixed_node_counts,
            7,
            "b31319e0a4528b474bb91809b0bf303d93325e2a073b36c0ae4dca94d59269df",
        ),
    ],
    ids=["volta", "mixed-node-counts"],
)
def test_legacy_corpus_bytes_are_pinned(make_config, seed, digest):
    assert corpus_sha256(generate_runs(make_config(), rng=seed)) == digest

"""Content-addressed on-disk caching of featurized campaign datasets.

Campaign generation plus feature extraction is the expensive, perfectly
deterministic prefix of every experiment (tens of seconds for MVTS, minutes
for TSFRESH). Benchmarks for different figures share the same corpora, so
the first bench pays the cost and the rest load an ``.npz`` snapshot.

Three layers of integrity:

* **content-addressed keys** — :func:`config_fingerprint` hashes the full
  campaign description (``SystemConfig`` → apps, catalog, node model,
  anomaly/intensity grids, durations) together with the extractor method
  and seed, so any substrate change produces a new key automatically (no
  more manual ``-v3`` suffix bumps);
* **validated loads** — every entry's :func:`dataset_fingerprint` (a hash
  of the feature matrix, metadata arrays, and feature names) is recorded
  in ``manifest.json`` and re-checked on load; a mismatch (truncated or
  tampered snapshot, stale manifest) rebuilds the entry;
* **atomic writes** — snapshots and the manifest are written to a
  temporary file and ``os.replace``d into place, so concurrent benches
  sharing one cache directory never observe a half-written entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Callable

import numpy as np

from ..features.pipeline import FeatureDataset

__all__ = [
    "save_dataset",
    "load_dataset",
    "get_or_build",
    "dataset_fingerprint",
    "config_fingerprint",
]

_META_KEYS = ("labels", "apps", "input_decks", "intensities", "node_counts")
_FORMAT_VERSION = 2

_LOG = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# fingerprints

def _hash_array(h, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())


def dataset_fingerprint(ds: FeatureDataset) -> str:
    """Content hash of a featurized corpus (matrix + metadata + names)."""
    h = hashlib.sha256()
    _hash_array(h, ds.X)
    for key in _META_KEYS:
        _hash_array(h, np.asarray(getattr(ds, key)))
    h.update("\x00".join(ds.feature_names).encode())
    return h.hexdigest()


def config_fingerprint(config, method: str = "mvts", seed=0, **extra) -> str:
    """Content hash of a campaign description plus extraction settings.

    ``config`` is a :class:`~repro.datasets.generate.SystemConfig`; the
    hash covers every field recursively (apps, catalog specs, node model,
    grids), the extractor ``method``, the ``seed``, and any ``extra``
    key/values the caller wants in the key (e.g. ``trim_frac``). Worker
    counts deliberately do **not** participate: the data plane produces
    identical bytes at any ``n_jobs``.
    """
    description = {
        "config": dataclasses.asdict(config),
        "method": method,
        "seed": seed,
        "format": _FORMAT_VERSION,
        **extra,
    }
    canonical = json.dumps(description, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# atomic snapshot IO

def _atomic_replace(path: Path, write_fn: Callable[[Path], None]) -> None:
    """Write via a same-directory temp file + ``os.replace`` (atomic)."""
    tmp = path.with_name(f".{path.stem}.tmp-{os.getpid()}{path.suffix}")
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # write_fn failed mid-way
            tmp.unlink()


def save_dataset(ds: FeatureDataset, path: str | Path) -> Path:
    """Write a featurized dataset (matrix + metadata + names) to ``.npz``.

    The write is atomic: concurrent benches racing on the same cache
    entry each produce a complete file, and the last rename wins.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_replace(
        path,
        lambda tmp: np.savez_compressed(
            tmp,
            X=ds.X,
            labels=ds.labels,
            apps=ds.apps,
            input_decks=ds.input_decks,
            intensities=ds.intensities,
            node_counts=ds.node_counts,
            feature_names=np.array(ds.feature_names, dtype=object),
        ),
    )
    return path


def load_dataset(path: str | Path) -> FeatureDataset:
    """Restore a dataset written by :func:`save_dataset`."""
    with np.load(Path(path), allow_pickle=True) as data:
        return FeatureDataset(
            X=data["X"],
            labels=data["labels"],
            apps=data["apps"],
            input_decks=data["input_decks"],
            intensities=data["intensities"],
            node_counts=data["node_counts"],
            feature_names=list(data["feature_names"]),
        )


# ----------------------------------------------------------------------
# the manifest and the build-or-load entry point

def _read_manifest(cache_dir: Path) -> dict:
    manifest = cache_dir / "manifest.json"
    if not manifest.exists():
        return {}
    try:
        return json.loads(manifest.read_text())
    except (json.JSONDecodeError, OSError):
        return {}  # corrupt manifest: entries re-validate and re-register


def _write_manifest_entry(cache_dir: Path, name: str, entry: dict) -> None:
    entries = _read_manifest(cache_dir)
    entries[name] = entry
    _atomic_replace(
        cache_dir / "manifest.json",
        lambda tmp: tmp.write_text(json.dumps(entries, indent=2, sort_keys=True)),
    )


def get_or_build(
    name: str,
    builder: Callable[[], FeatureDataset],
    cache_dir: str | Path,
) -> FeatureDataset:
    """Load ``<cache_dir>/<name>.npz`` if present and valid, else (re)build.

    ``builder`` must be deterministic (seeded) — the cache assumes the same
    name always denotes the same corpus; use :func:`config_fingerprint` in
    the name to make that hold by construction. A loaded entry is checked
    against the corpus fingerprint recorded in ``manifest.json``:
    mismatches (truncated snapshots, stale manifests, hand-edited files)
    are rebuilt, not served. Entries predating the manifest fingerprint
    get one backfilled on first load.
    """
    cache_dir = Path(cache_dir)
    path = cache_dir / f"{name}.npz"
    if path.exists():
        ds = None
        try:
            ds = load_dataset(path)
        except Exception as exc:
            _LOG.warning("corrupt cache entry %s (%s); rebuilding", path, exc)
        if ds is not None:
            recorded = _read_manifest(cache_dir).get(name, {}).get("fingerprint")
            actual = dataset_fingerprint(ds)
            if recorded is None:
                _write_manifest_entry(cache_dir, name, _manifest_entry(ds, actual))
                return ds
            if recorded == actual:
                return ds
        path.unlink()
    ds = builder()
    save_dataset(ds, path)
    _write_manifest_entry(
        cache_dir, name, _manifest_entry(ds, dataset_fingerprint(ds))
    )
    return ds


def _manifest_entry(ds: FeatureDataset, fingerprint: str) -> dict:
    return {
        "rows": int(len(ds)),
        "features": int(ds.X.shape[1]),
        "fingerprint": fingerprint,
        "format": _FORMAT_VERSION,
    }

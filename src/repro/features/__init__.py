"""repro.features — statistical feature extraction (MVTS / TSFRESH stand-ins).

48 MVTS features and 112 TSFRESH-lite features per metric, plus the
preprocessing pipeline (trim, counter differencing, interpolation,
NaN/zero-feature dropping) of the paper's Sec. IV-E1.
"""

from .mvts import MVTS_FEATURE_NAMES, extract_mvts
from .pipeline import (
    FeatureDataset,
    FeatureExtractor,
    interpolate_missing,
    preprocess_run,
)
from .tsfresh_lite import TSFRESH_FEATURE_NAMES, extract_tsfresh

__all__ = [
    "FeatureDataset",
    "FeatureExtractor",
    "MVTS_FEATURE_NAMES",
    "TSFRESH_FEATURE_NAMES",
    "extract_mvts",
    "extract_tsfresh",
    "interpolate_missing",
    "preprocess_run",
]

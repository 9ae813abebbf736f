"""repro.core — the ALBADross framework (the paper's contribution)."""

from .annotation import AnnotationSession, MetricDeviation, MetricHighlighter
from .config import MODEL_FAMILIES, FrameworkConfig, default_model_params
from .framework import ALBADross, Diagnosis, build_model, table4_grid
from .monitor import DriftMonitor, DriftReport
from .persistence import load_framework, save_framework

__all__ = [
    "ALBADross",
    "AnnotationSession",
    "MetricDeviation",
    "MetricHighlighter",
    "Diagnosis",
    "DriftMonitor",
    "DriftReport",
    "FrameworkConfig",
    "MODEL_FAMILIES",
    "build_model",
    "default_model_params",
    "load_framework",
    "save_framework",
    "table4_grid",
]

"""In-memory span tracer that wraps the public entry points of each layer.

The benchmark never edits the program it measures. For a traced run it
swaps a small timing wrapper onto the public methods listed in
``_traced_methods`` (one class attribute each), records one span per call
(name, start, end, parent, request id, attributes), and restores the
original methods afterwards. Spans are kept in a list and written out as
JSON lines when the run ends.

A span's parent is the innermost open span on the same thread, so a
layer's *self time* is its spans' durations minus the time covered by
their children.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("core", "features", "mlcore", "active", "serving", "registry", "escalation")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _n_rows(args, kwargs, _result) -> dict:
    runs = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    ids = [id(r) for r in runs] if isinstance(runs, (list, tuple)) else []
    return {"n": len(runs), "ids": ids}


def _offer_result(_args, _kwargs, result) -> dict:
    return {"escalated": bool(result)}


def _traced_methods() -> list[tuple[type, str, str, object]]:
    """(class, attribute, span name, attribute extractor) for every wrapper."""
    from repro.active.learner import ActiveLearner
    from repro.core.framework import ALBADross
    from repro.features.pipeline import FeatureExtractor
    from repro.mlcore.feature_selection import SelectKBest
    from repro.mlcore.forest import RandomForestClassifier
    from repro.mlcore.preprocessing import MinMaxScaler
    from repro.serving.escalation import EscalationQueue
    from repro.serving.registry import ModelRegistry

    return [
        (ALBADross, "fit_features", "core.fit_features", None),
        (ALBADross, "fit_initial", "core.fit_initial", None),
        (ALBADross, "learn", "core.learn", None),
        (ALBADross, "featurize", "core.featurize", None),
        (ALBADross, "predict_features", "core.predict_features", None),
        (ALBADross, "diagnose", "core.diagnose", None),
        (ALBADross, "absorb", "core.absorb", None),
        (FeatureExtractor, "fit_transform", "features.extract", _n_rows),
        (FeatureExtractor, "transform", "features.extract", _n_rows),
        (MinMaxScaler, "transform", "mlcore.scale", None),
        (SelectKBest, "transform", "mlcore.select", None),
        (RandomForestClassifier, "fit", "mlcore.fit", None),
        (RandomForestClassifier, "fit_binned", "mlcore.fit", None),
        (RandomForestClassifier, "refit", "mlcore.refit", None),
        (RandomForestClassifier, "predict_proba", "mlcore.predict_proba", None),
        (ActiveLearner, "query", "active.query", None),
        (ActiveLearner, "teach", "active.teach", None),
        (ActiveLearner, "predict", "active.eval", None),
        (ModelRegistry, "publish", "registry.publish", None),
        (ModelRegistry, "load", "registry.load", None),
        (EscalationQueue, "offer", "escalation.offer", _offer_result),
    ]


class Tracer:
    """Span recorder; ``enabled`` toggles recording without unpatching."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[type, str, object]] = []

    # -- span bookkeeping ---------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: int | None = None, **attrs):
        """Time the ``with`` body as one span.

        Yields the open :class:`Span` (its ``attrs`` may still be filled
        in) or ``None`` while recording is off.
        """
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    stack[-1] if stack else None, rid, attrs)
        stack.append(span.sid)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def call(self, name: str, fn, args=(), kwargs=None, annotate=None):
        """Run ``fn`` inside a span named ``name`` (plain call when off)."""
        kwargs = kwargs or {}
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name) as span:
            result = fn(*args, **kwargs)
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
        return result

    def record(self, name: str, start: float, end: float, parent=None, rid=None, **attrs) -> int:
        """Add an already-timed span (waits measured by the load generator)."""
        sid = next(self._ids)
        self.spans.append(Span(sid, name, start, end, parent, rid, attrs))
        return sid

    # -- patching -----------------------------------------------------
    def install(self) -> "Tracer":
        for cls, attr, name, annotate in _traced_methods():
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrapper(original, name, annotate))
        return self

    def uninstall(self) -> None:
        while self._undo:
            cls, attr, original = self._undo.pop()
            setattr(cls, attr, original)

    def _wrapper(self, fn, name: str, annotate):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, annotate)

        return wrapper

    # -- reporting ----------------------------------------------------
    def self_time_by_layer(self) -> dict[str, float]:
        """Sum over work spans of duration minus the children's durations."""
        child_time: dict[int, float] = {}
        work = [s for s in self.spans if s.attrs.get("kind") != "wait"]
        for span in work:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
        totals = {layer: 0.0 for layer in LAYERS}
        for span in work:
            if span.layer in totals:
                totals[span.layer] += span.duration - child_time.get(span.sid, 0.0)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                attrs = {k: v for k, v in s.attrs.items() if k != "ids"}
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "rid": s.rid,
                            **attrs,
                        }
                    )
                    + "\n"
                )

"""repro.active — pool-based active learning (modAL stand-in + paper loop).

Query strategies (uncertainty / margin / entropy, Eqs. 1–4), the
:class:`ActiveLearner` query/teach cycle, the label :class:`Oracle`, the
Random / Equal App / Proctor baselines, and :func:`run_active_learning`,
the experiment driver behind every curve in the paper's Sec. V.
"""

from .baselines import EqualAppSelector, ProctorModel, RandomSelector
from .learner import ActiveLearner
from .loop import ALResult, queries_to_reach, run_active_learning
from .oracle import Oracle, QueryRecord
from .stream import ThresholdController
from .strategies import (
    STRATEGIES,
    entropy_sampling,
    entropy_scores,
    get_strategy,
    margin_sampling,
    margin_scores,
    uncertainty_sampling,
    uncertainty_scores,
)

__all__ = [
    "ALResult",
    "ThresholdController",
    "ActiveLearner",
    "EqualAppSelector",
    "Oracle",
    "ProctorModel",
    "QueryRecord",
    "RandomSelector",
    "STRATEGIES",
    "entropy_sampling",
    "entropy_scores",
    "get_strategy",
    "margin_sampling",
    "margin_scores",
    "queries_to_reach",
    "run_active_learning",
    "uncertainty_sampling",
    "uncertainty_scores",
]

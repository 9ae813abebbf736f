"""Stream-based selective sampling (paper Sec. II-A's second AL scenario).

The paper deploys *pool-based* sampling (Sec. III-D) because production
telemetry arrives in bulk, but its related-work section lays out the
stream alternative: samples arrive one at a time and the learner decides
on the spot whether to spend an annotator query, against a pre-defined
uncertainty threshold. The serving escalation queue
(:mod:`repro.serving.escalation`) runs that scenario in production; this
module holds its policy.

The threshold self-tunes: a budget controller nudges it so the realized
query rate tracks a target fraction (spend annotator time evenly instead
of exhausting it on the first confusing burst).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ThresholdController"]


@dataclass
class ThresholdController:
    """Self-tuning uncertainty threshold with a query-rate budget.

    Query when ``U(x) >= threshold``, then nudge the threshold so the
    realized query rate tracks ``target_rate`` (``None`` keeps it fixed).
    ``adapt_step`` is the multiplicative adjustment per observed sample.
    """

    threshold: float = 0.35
    target_rate: float | None = 0.1
    adapt_step: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.target_rate is not None and not 0.0 < self.target_rate < 1.0:
            raise ValueError(f"target_rate must be in (0, 1), got {self.target_rate}")
        self.n_seen = 0
        self.n_queried = 0

    def should_query(self, uncertainty: float) -> bool:
        """Decide one sample and update the adaptive threshold."""
        queried = uncertainty >= self.threshold
        self.n_seen += 1
        if queried:
            self.n_queried += 1
        self._adapt(queried)
        return queried

    def _adapt(self, queried: bool) -> None:
        if self.target_rate is None:
            return
        if queried:
            # spent budget: become pickier
            self.threshold = min(1.0, self.threshold * (1 + self.adapt_step))
        else:
            self.threshold = max(
                0.0, self.threshold * (1 - self.adapt_step * self.target_rate)
            )

    @property
    def query_rate(self) -> float:
        """Realized fraction of observed samples that were queried."""
        return self.n_queried / self.n_seen if self.n_seen else 0.0

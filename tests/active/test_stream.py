"""Tests for the stream-sampling threshold controller."""

import numpy as np
import pytest

from repro.active.stream import ThresholdController


class TestValidation:
    def test_threshold_range(self):
        with pytest.raises(ValueError, match="threshold"):
            ThresholdController(threshold=1.5)

    def test_target_rate_range(self):
        with pytest.raises(ValueError, match="target_rate"):
            ThresholdController(target_rate=0.0)


class TestDecisions:
    def test_confident_sample_passed(self):
        controller = ThresholdController(threshold=0.35, target_rate=None)
        assert not controller.should_query(0.02)
        assert controller.threshold == 0.35

    def test_boundary_sample_queried(self):
        controller = ThresholdController(threshold=0.35, target_rate=None)
        assert controller.should_query(0.35)
        assert controller.should_query(0.49)
        assert controller.threshold == 0.35

    def test_counts_track_decisions(self):
        controller = ThresholdController(target_rate=None)
        controller.should_query(0.02)
        controller.should_query(0.49)
        assert controller.n_seen == 2
        assert controller.n_queried == 1
        assert controller.query_rate == 0.5


class TestAdaptiveThreshold:
    def test_query_raises_threshold(self):
        controller = ThresholdController(threshold=0.2, target_rate=0.1)
        assert controller.should_query(0.45)
        assert controller.threshold > 0.2

    def test_pass_lowers_threshold(self):
        controller = ThresholdController(threshold=0.5, target_rate=0.1)
        assert not controller.should_query(0.01)
        assert controller.threshold < 0.5

    def test_rate_tracks_target_roughly(self):
        rng = np.random.default_rng(2)
        controller = ThresholdController(
            threshold=0.3, target_rate=0.2, adapt_step=0.05
        )
        for u in rng.uniform(0.0, 0.5, size=400):
            controller.should_query(float(u))
        assert abs(controller.query_rate - 0.2) < 0.05

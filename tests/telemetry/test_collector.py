"""Tests for RunRecord and the Collector."""

import numpy as np
import pytest

from repro.anomalies import get_anomaly
from repro.apps.volta_apps import VOLTA_APPS
from repro.telemetry.catalog import build_catalog
from repro.telemetry.collector import Collector, RunRecord
from repro.telemetry.node import VOLTA_NODE


@pytest.fixture(scope="module")
def collector():
    cat = build_catalog(n_cores=2, n_nics=1, n_extra_cray=4)
    return Collector(cat, VOLTA_NODE, missing_rate=0.0)


class TestRunRecord:
    def test_label_healthy_when_no_anomaly(self):
        rec = RunRecord(
            app="CG", input_deck=0, node_count=4, node_id=0,
            anomaly=None, intensity=0.0, data=np.zeros((10, 3)),
        )
        assert rec.label == "healthy"
        assert rec.duration == 10

    def test_label_is_anomaly_name(self):
        rec = RunRecord(
            app="CG", input_deck=0, node_count=4, node_id=0,
            anomaly="membw", intensity=0.5, data=np.zeros((10, 3)),
        )
        assert rec.label == "membw"

    def test_bad_intensity(self):
        with pytest.raises(ValueError, match="intensity"):
            RunRecord(
                app="CG", input_deck=0, node_count=4, node_id=0,
                anomaly="membw", intensity=1.5, data=np.zeros((10, 3)),
            )

    def test_metric_names_mismatch(self):
        with pytest.raises(ValueError, match="metric_names"):
            RunRecord(
                app="CG", input_deck=0, node_count=4, node_id=0,
                anomaly=None, intensity=0.0, data=np.zeros((10, 3)),
                metric_names=["a"],
            )


class TestCollect:
    def test_healthy_run(self, collector):
        rec = collector.collect(VOLTA_APPS["CG"], input_deck=0, duration=64, rng=0)
        assert rec.data.shape == (64, len(collector.catalog))
        assert rec.label == "healthy"
        assert rec.metric_names == collector.catalog.names

    def test_anomalous_run(self, collector):
        rec = collector.collect(
            VOLTA_APPS["CG"], input_deck=0, duration=64,
            anomaly=get_anomaly("cpuoccupy"), intensity=1.0, rng=0,
        )
        assert rec.label == "cpuoccupy"
        assert rec.intensity == 1.0

    def test_anomaly_moves_telemetry(self, collector):
        """A full-intensity cpuoccupy must visibly shift CPU-coupled metrics."""
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        healthy = collector.collect(VOLTA_APPS["CG"], 0, 128, rng=rng1)
        sick = collector.collect(
            VOLTA_APPS["CG"], 0, 128,
            anomaly=get_anomaly("cpuoccupy"), intensity=1.0, rng=rng2,
        )
        i = healthy.metric_names.index("procstat.cpu0.user")
        rate_h = np.diff(healthy.data[:, i]).mean()
        rate_s = np.diff(sick.data[:, i]).mean()
        assert rate_s > rate_h * 1.2

    def test_run_to_run_variation(self, collector):
        rng = np.random.default_rng(0)
        a = collector.collect(VOLTA_APPS["Kripke"], 0, 64, rng=rng)
        b = collector.collect(VOLTA_APPS["Kripke"], 0, 64, rng=rng)
        assert not np.array_equal(a.data, b.data)

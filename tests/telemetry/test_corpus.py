"""Tests for the packed RunCorpus container."""

import pickle

import numpy as np
import pytest

from repro.telemetry.collector import RunRecord
from repro.telemetry.corpus import RunCorpus


def _records(n=5, width=3, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        T = int(rng.integers(4, 9))
        records.append(
            RunRecord(
                data=rng.normal(size=(T, width)),
                metric_names=[f"m{j}" for j in range(width)],
                app=f"app{i % 2}",
                input_deck=i % 3,
                node_count=4,
                node_id=i,
                anomaly="membw" if i % 2 else None,
                intensity=0.5 if i % 2 else 0.0,
            )
        )
    return records


class TestRoundtrip:
    def test_records_survive_packing(self):
        records = _records()
        corpus = RunCorpus.from_records(records)
        assert len(corpus) == len(records)
        for i, original in enumerate(records):
            back = corpus.record(i)
            assert np.array_equal(back.data, original.data)
            assert back.app == original.app
            assert back.input_deck == original.input_deck
            assert back.label == original.label
            assert back.intensity == original.intensity
            assert back.node_count == original.node_count

    def test_to_records_matches(self):
        records = _records()
        back = RunCorpus.from_records(records).to_records()
        assert [r.label for r in back] == [r.label for r in records]
        assert all(
            np.array_equal(a.data, b.data) for a, b in zip(back, records)
        )

    def test_labels_map_empty_anomaly_to_healthy(self):
        corpus = RunCorpus.from_records(_records())
        labels = corpus.labels
        assert labels[0] == "healthy"
        assert labels[1] == "membw"

    def test_run_data_is_view(self):
        corpus = RunCorpus.from_records(_records())
        assert corpus.run_data(2).base is corpus.buffer

    def test_pickle_roundtrip(self):
        corpus = RunCorpus.from_records(_records())
        back = pickle.loads(pickle.dumps(corpus))
        assert np.array_equal(back.buffer, corpus.buffer)
        assert np.array_equal(back.offsets, corpus.offsets)
        assert list(back.apps) == list(corpus.apps)


class TestChunkConcat:
    def test_concat_of_chunks_is_identity(self):
        records = _records(n=7)
        corpus = RunCorpus.from_records(records)
        parts = [
            RunCorpus.from_records(records[lo:hi])
            for lo, hi in ((0, 2), (2, 5), (5, 7))
        ]
        back = RunCorpus.concat(parts)
        assert np.array_equal(back.buffer, corpus.buffer)
        assert np.array_equal(back.offsets, corpus.offsets)
        assert list(back.anomalies) == list(corpus.anomalies)

    def test_concat_single_part(self):
        corpus = RunCorpus.from_records(_records(n=3))
        back = RunCorpus.concat([corpus])
        assert np.array_equal(back.buffer, corpus.buffer)


    def test_take_columns_keeps_runs_and_metadata(self):
        corpus = RunCorpus.from_records(_records(n=4, width=5))
        narrow = corpus.take_columns(np.array([1, 4]))
        assert narrow.metric_names == ["m1", "m4"]
        assert np.array_equal(narrow.offsets, corpus.offsets)
        assert list(narrow.labels) == list(corpus.labels)
        for i in range(len(corpus)):
            assert np.array_equal(narrow.run_data(i), corpus.run_data(i)[:, [1, 4]])


class TestValidation:
    def test_from_records_rejects_mixed_width(self):
        records = _records(n=2, width=3)
        bad = RunRecord(
            data=np.zeros((5, 4)),
            metric_names=[f"m{j}" for j in range(4)],
            app="x",
            input_deck=0,
            node_count=4,
            node_id=9,
            anomaly=None,
            intensity=0.0,
        )
        with pytest.raises(ValueError):
            RunCorpus.from_records(records + [bad])

    def test_from_records_rejects_empty(self):
        with pytest.raises(ValueError):
            RunCorpus.from_records([])

    def test_bad_offsets_rejected(self):
        corpus = RunCorpus.from_records(_records(n=3))
        with pytest.raises(ValueError):
            RunCorpus(
                buffer=corpus.buffer,
                offsets=corpus.offsets[:-1],  # span mismatch
                apps=corpus.apps,
                input_decks=corpus.input_decks,
                node_counts=corpus.node_counts,
                node_ids=corpus.node_ids,
                anomalies=corpus.anomalies,
                intensities=corpus.intensities,
                metric_names=corpus.metric_names,
            )

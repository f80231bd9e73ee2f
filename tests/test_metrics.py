import csv
import json

import numpy as np
import pytest

from driftal.metrics import (
    MonthlyMetrics,
    aggregate,
    bench,
    compute_metrics,
    distance_ops,
    emit_report,
    forward_ops,
    train_step_ops,
    write_bench_csv,
)
from driftal.net import LayerSpec
from driftal.stream import StreamResult


class TestComputeMetrics:
    def test_perfect_prediction(self):
        m = compute_metrics([1, 0, 1, 0], [1, 0, 1, 0])
        assert (m.tp, m.fp, m.tn, m.fn) == (2, 0, 2, 0)
        assert m.f1 == 1.0 and m.fnr == 0.0 and m.fpr == 0.0

    def test_all_wrong(self):
        m = compute_metrics([0, 1], [1, 0])
        assert (m.tp, m.fp, m.tn, m.fn) == (0, 1, 0, 1)
        assert m.f1 == 0.0 and m.fnr == 1.0 and m.fpr == 1.0

    def test_hand_worked_confusion(self):
        preds = [1, 1, 1, 0, 0, 0, 1, 0]
        truth = [1, 1, 0, 1, 0, 0, 0, 1]
        m = compute_metrics(preds, truth)
        assert (m.tp, m.fp, m.tn, m.fn) == (2, 2, 2, 2)
        assert np.isclose(m.f1, 2 * 2 / (2 * 2 + 2 + 2))
        assert np.isclose(m.fnr, 0.5)
        assert np.isclose(m.fpr, 0.5)

    def test_undefined_rates_are_none(self):
        no_pos = compute_metrics([0, 0], [0, 0])
        assert no_pos.fnr is None and no_pos.f1 is None
        assert no_pos.fpr == 0.0
        no_neg = compute_metrics([1, 1], [1, 1])
        assert no_neg.fpr is None and no_neg.f1 == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics([1], [1, 0])


class TestAggregate:
    def test_mean_and_sample_std(self):
        mean, std = aggregate([0.5, 0.7, 0.9])
        assert np.isclose(mean, 0.7)
        assert np.isclose(std, np.std([0.5, 0.7, 0.9], ddof=1))

    def test_none_entries_skipped(self):
        mean, std = aggregate([0.5, None, 0.7])
        assert np.isclose(mean, 0.6)

    def test_single_value_std_zero(self):
        assert aggregate([0.4]) == (0.4, 0.0)

    def test_all_none(self):
        assert aggregate([None, None]) == (None, None)


def fake_result():
    monthly = [
        compute_metrics([1, 0, 1], [1, 0, 0], month="2020-01"),
        compute_metrics([1, 1, 0], [1, 1, 0], month="2020-02"),
    ]
    f1s = [m.f1 for m in monthly]
    return StreamResult(
        monthly, [["a"], ["b", "c"]],
        float(np.mean(f1s)), float(np.std(f1s, ddof=1)),
        0.2, 0.05, 0.1, 0.02, seed=3,
    )


class TestEmitReport:
    def test_json_payload(self, tmp_path):
        paths = emit_report(fake_result(), tmp_path, config_hash="abc", seeds=[3])
        payload = json.loads(paths[0].read_text())
        assert payload["config_hash"] == "abc"
        assert payload["seeds"] == [3]
        assert len(payload["monthly"]) == 2
        assert payload["monthly"][0]["month"] == "2020-01"

    def test_csv_columns_and_percentages(self, tmp_path):
        paths = emit_report(fake_result(), tmp_path)
        with open(paths[1]) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["month", "tp", "fp", "tn", "fn",
                                 "f1", "fnr", "fpr", "n_selected"]
        assert rows[1]["f1"] == "100.0"
        assert rows[0]["n_selected"] == "1"
        assert rows[1]["n_selected"] == "2"

    def test_both_writes_two_files(self, tmp_path):
        paths = emit_report(fake_result(), tmp_path)
        assert {p.name for p in paths} == {"result.json", "result.csv"}


class TestOpCounts:
    def test_forward_single_layer_closed_form(self):
        arch = [LayerSpec(3, 2, "identity")]
        # batch * (2 * in * out + out) per layer
        assert forward_ops(arch, 4) == 4 * (2 * 3 * 2 + 2)

    def test_distance_ops(self):
        assert distance_ops(10, 5, 8) == 10 * 5 * 3 * 8

    def test_train_step_linear_in_batch(self):
        arch = [LayerSpec(6, 4, "relu"), LayerSpec(4, 2, "identity")]
        assert train_step_ops(arch, 2, 2) * 3 == train_step_ops(arch, 6, 6)


class TestBench:
    def test_records_and_linearity(self):
        records = bench([40, 80], budget=4, dim=10, hidden=(4,), batch=8)
        assert [r.sample_count for r in records] == [40, 80]
        assert all(r.seconds > 0 for r in records)
        ratio = records[1].operations / records[0].operations
        assert 1.5 < ratio < 2.5

    def test_csv_output(self, tmp_path):
        records = bench([30], budget=3, dim=8, hidden=(4,), batch=10)
        path = write_bench_csv(records, tmp_path / "bench.csv")
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["sample_count"] == "30"
        assert int(rows[0]["operations"]) == records[0].operations

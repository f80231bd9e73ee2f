import csv

import numpy as np
import pytest

from driftal import augment as aug
from driftal import selection as sel
from driftal import trainer
from driftal.losses import LossConfig
from driftal.net import Optimizer
from driftal.metrics import (
    BenchRecord,
    MonthlyMetrics,
    aggregate,
    bench,
    bench_rows,
    compute_metrics,
    distance_ops,
    emit_report,
    forward_ops,
    train_step_ops,
)
from driftal.outputs import write_outputs
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
    def test_json_payload(self):
        result = fake_result()
        payload = emit_report(result)["result.json"]
        assert payload == result.to_dict()
        assert len(payload["monthly"]) == 2
        assert payload["monthly"][0]["month"] == "2020-01"

    def test_csv_columns_and_percentages(self, tmp_path):
        [_, path] = write_outputs(tmp_path, emit_report(fake_result()))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["month", "tp", "fp", "tn", "fn",
                                 "f1", "fnr", "fpr", "n_selected"]
        assert rows[1]["f1"] == "100.0"
        assert rows[0]["n_selected"] == "1"
        assert rows[1]["n_selected"] == "2"

    def test_undefined_ratios_are_empty_cells(self, tmp_path):
        # with no positive row F1 and FNR are undefined: empty cells, not 0.0
        no_positive = compute_metrics([0, 0], [0, 0], month="2020-04")
        result = StreamResult([no_positive], [[]], None, None, None, None, 0.0, 0.0,
                              seed=0)
        [_, path] = write_outputs(tmp_path, emit_report(result))
        assert path.read_text().splitlines()[1:] == ["2020-04,0,0,2,0,,,0.0,0"]

    def test_both_writes_two_files(self, tmp_path):
        paths = write_outputs(tmp_path, emit_report(fake_result()))
        assert paths == [tmp_path / "result.json", tmp_path / "result.csv"]


class TestOpCounts:
    def test_forward_single_layer_closed_form(self):
        arch = (3, 2)
        # batch * (2 * in * out + out) per layer
        assert forward_ops(arch, 4) == 4 * (2 * 3 * 2 + 2)

    def test_distance_ops(self):
        assert distance_ops(10, 5, 8) == 10 * 5 * 3 * 8

    def test_train_step_linear_in_batch(self):
        arch = (6, 4, 2)
        assert train_step_ops(arch, 2, 2) * 3 == train_step_ops(arch, 6, 6)


def reference_bench(n, budget, dim, hidden, batch, seed):
    """``metrics.bench``'s training for one pool size, with the step loop it
    ran before it called ``trainer.run_epoch``; returns (theta, operations)."""

    def bench_epoch(model, opt, Xl, yl, Xu, aug_cfg, loss_cfg, rng):
        n_lab = len(Xl)
        steps = int(np.ceil(len(Xu) / batch))
        for s in range(steps):
            lab = np.arange(s * batch, (s + 1) * batch) % n_lab
            Bu = Xu[s * batch : (s + 1) * batch]
            Xw = aug.weak_view(Bu, aug_cfg, rng)
            Xs = aug.strong_view(Bu, aug_cfg, rng)
            _, grad = trainer.step_loss_and_grads(model, Xl[lab], yl[lab], Xw, Xs,
                                                  loss_cfg)
            opt.step(model, grad)
        return steps

    aug_cfg, loss_cfg, sel_cfg = aug.AugmentConfig(), LossConfig(), sel.SelectorConfig()
    n_lab = max(2, budget)
    rng = np.random.default_rng(seed)
    X = (rng.random((n + n_lab, dim)) < 0.3).astype(np.uint8)
    y = rng.integers(0, 2, size=n + n_lab)
    Xl, yl, Xu = X[:n_lab], y[:n_lab], X[n_lab:]
    model = trainer.build_model(dim, trainer.TrainConfig(hidden=hidden), seed)
    opt = Optimizer()
    sel.select(Xu[:1], model, Xl, sel_cfg, 1)
    steps = bench_epoch(model, opt, Xl, yl, Xu, aug_cfg, loss_cfg, rng)
    chosen, _ = sel.select(Xu, model, Xl, sel_cfg, min(budget, n // 10))
    keep = np.ones(len(Xu), dtype=bool)
    keep[chosen] = False
    Xl2 = np.concatenate([Xl, Xu[~keep]])
    yl2 = np.concatenate([yl, y[n_lab:][~keep]])
    steps += bench_epoch(model, opt, Xl2, yl2, Xu[keep], aug_cfg, loss_cfg, rng)
    arch = model.architecture
    ops = (steps * train_step_ops(arch, batch, batch) + forward_ops(arch, n)
           + distance_ops(n, n_lab, model.embedding_dim))
    return model.theta, ops


class TestBench:
    @pytest.mark.parametrize("sizes,budget,dim,hidden,batch,seed", [
        ([100, 300], 10, 20, (8,), 10, 0),
        ([57, 203], 7, 13, (6, 4), 9, 3),  # batch divides neither pool
        ([40, 81], 4, 10, (4,), 8, 1),
        ([2003], 50, 60, (16,), 10, 0),  # 116 of its steps have confident rows
    ])
    def test_matches_reference_step_loop(self, monkeypatch, sizes, budget, dim, hidden,
                                         batch, seed):
        # bench steps through trainer.run_epoch; its models and operation
        # counts are the old private loop's, bit for bit
        models = []
        build = trainer.build_model
        monkeypatch.setattr(trainer, "build_model",
                            lambda *a: models.append(build(*a)) or models[-1])
        records = bench(sizes, budget=budget, dim=dim, hidden=hidden, batch=batch,
                        seed=seed)
        monkeypatch.undo()
        for n, record, model in zip(sizes, records, models, strict=True):
            theta, ops = reference_bench(n, budget, dim, hidden, batch, seed)
            assert record.operations == ops
            assert model.theta.tobytes() == theta.tobytes()

    def test_records_and_linearity(self):
        records = bench([40, 80], budget=4, dim=10, hidden=(4,), batch=8)
        assert [r.sample_count for r in records] == [40, 80]
        assert all(r.seconds > 0 for r in records)
        ratio = records[1].operations / records[0].operations
        assert 1.5 < ratio < 2.5

    def test_csv_output(self, tmp_path):
        records = bench([30], budget=3, dim=8, hidden=(4,), batch=10)
        [path] = write_outputs(tmp_path, {"bench.csv": bench_rows(records)})
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["sample_count"] == "30"
        assert int(rows[0]["operations"]) == records[0].operations

    def test_record_dict_has_the_csv_columns(self):
        # perfbench writes records as dicts: the keys are bench.csv's header
        record = BenchRecord(30, 0.25, 1200)
        payload = record.to_dict()
        assert list(payload) == bench_rows([record])[0]
        assert payload == {"sample_count": 30, "seconds": 0.25, "operations": 1200}
        payload["seconds"] = 1.0
        assert record.seconds == 0.25

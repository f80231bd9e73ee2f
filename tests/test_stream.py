from dataclasses import replace

import numpy as np
import pytest

from driftal import stream
from driftal.data import DriftGeneratorConfig, synth_drift_generate
from driftal.experiment import Experiment, ExperimentSetup
from driftal.losses import LossConfig
from driftal.selection import SelectorConfig
from driftal.stream import (
    MonthData,
    StreamConfig,
    _Pool,
    PoolInvariantError,
    aggregate_runs,
    months_from_dataset,
    run_stream,
)
from driftal.trainer import TrainConfig, build_model, train


def small_cfg(**kw):
    defaults = dict(
        budget=5,
        retrain=TrainConfig(epochs=2, hidden=(8,), labeled_batch=16,
                            unlabeled_batch=16),
        seed=0,
    )
    defaults.update(kw)
    return StreamConfig(**defaults)


def make_world(n_train=40, n_pool=30, d=6, n_months=3, per_month=20, seed=0):
    """Tiny labeled/unlabeled split plus a monthly stream, all with true labels."""
    rng = np.random.default_rng(seed)

    def batch(prefix, n):
        X = (rng.random((n, d)) < 0.5).astype(np.uint8)
        y = (X[:, :3].sum(axis=1) >= 2).astype(np.int64)
        ids = [f"{prefix}{i}" for i in range(n)]
        return X, y, ids

    Xl, yl, ids_l = batch("l", n_train)
    Xu, yu, ids_u = batch("u", n_pool)
    months = []
    for m in range(n_months):
        X, y, ids = batch(f"m{m}_", per_month)
        months.append(MonthData(f"2020-{m + 1:02d}", ids, X, y))
    cfg = TrainConfig(epochs=5, hidden=(8,), seed=seed)
    model = build_model(d, cfg)
    model, _ = train(model, (Xl, yl), Xu, cfg)
    return model, (Xl, yl, ids_l), (Xu, yu, ids_u), months


def make_pool(ids_l, ids_u, yu=None):
    """Pool of zero labeled rows (label 0) and one-valued unlabeled rows."""
    yu = [1] * len(ids_u) if yu is None else yu
    return _Pool((np.zeros((len(ids_l), 3), np.uint8), [0] * len(ids_l), ids_l),
                 (np.ones((len(ids_u), 3), np.uint8), yu, ids_u))


class TestPool:
    def test_promote_moves_rows(self):
        """Rows, ids and labels move together, in ``chosen`` order."""
        pool = make_pool(["a"], ["p", "q", "r", "s", "t"], yu=[0, 0, 1, 1, 0])
        pool.Xu[:, 0] = np.arange(5)  # tag each row with its pool index
        pool.promote([3, 1])
        assert pool.ids_l == ["a", "s", "q"]
        assert pool.yl.tolist() == [0, 1, 0]
        assert pool.Xl[1:, 0].tolist() == [3, 1]
        assert pool.ids_u == ["p", "r", "t"]
        assert pool.yu.tolist() == [0, 1, 0]
        assert pool.Xu[:, 0].tolist() == [0, 2, 4]
        pool.check(6)

    def test_check_detects_overlap(self):
        pool = make_pool(["a"], ["a"])
        with pytest.raises(PoolInvariantError):
            pool.check(2)

    def test_check_detects_count_drift(self):
        pool = make_pool(["a"], ["b"])
        with pytest.raises(PoolInvariantError):
            pool.check(3)

    def test_check_detects_repeated_id(self):
        pool = make_pool(["a"], ["b", "c", "b"])
        with pytest.raises(PoolInvariantError, match="repeated"):
            pool.check(4)


class TestRunStream:
    def test_budget_respected_and_ids_from_stream_or_pool(self):
        model, labeled, unlabeled, months = make_world()
        result = run_stream(model, labeled, unlabeled, months, small_cfg(budget=5))
        valid = set(unlabeled[2]) | {i for m in months for i in m.ids}
        for ids in result.selected_ids:
            assert len(ids) <= 5
            assert set(ids) <= valid
        all_ids = [i for ids in result.selected_ids for i in ids]
        assert len(all_ids) == len(set(all_ids))  # never labeled twice

    def test_zero_budget_is_static(self):
        model, labeled, unlabeled, months = make_world()
        result = run_stream(model, labeled, unlabeled, months, small_cfg(budget=0))
        assert all(ids == [] for ids in result.selected_ids)
        # the model must be untouched: recompute month metrics directly
        for mm, mdata in zip(result.monthly, months):
            preds = model.predict_batch(mdata.X).argmax(axis=1)
            tp = int(((preds == 1) & (mdata.y == 1)).sum())
            assert mm.tp == tp

    def test_input_model_not_mutated(self):
        model, labeled, unlabeled, months = make_world()
        before = model.theta.copy()
        run_stream(model, labeled, unlabeled, months, small_cfg())
        assert (before == model.theta).all()

    def test_first_month_static_equals_adaptive(self):
        """Test-then-train: month 1 is scored before any labeling."""
        model, labeled, unlabeled, months = make_world()
        r0 = run_stream(model, labeled, unlabeled, months, small_cfg(budget=0))
        r5 = run_stream(model, labeled, unlabeled, months, small_cfg(budget=5))
        assert r0.monthly[0].to_dict() == r5.monthly[0].to_dict()

    def test_deterministic_given_seed(self):
        model, labeled, unlabeled, months = make_world()
        cfg = small_cfg(selector=SelectorConfig(kind="random"))
        a = run_stream(model, labeled, unlabeled, months, cfg)
        b = run_stream(model, labeled, unlabeled, months, cfg)
        assert a.selected_ids == b.selected_ids
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("kind,embeds", [
        ("random", 0), ("multi_criteria", 3), ("margin_only", 0),
        ("low_confidence_only", 0), ("lp_only", 3),
    ])
    def test_labeled_embedding_only_when_scored(self, monkeypatch, kind, embeds):
        model, labeled, unlabeled, months = make_world()
        calls = []
        embed = type(model).embed_batch

        def counting_embed(m, X):
            calls.append(len(X))
            return embed(m, X)

        monkeypatch.setattr(type(model), "embed_batch", counting_embed)
        run_stream(model, labeled, unlabeled, months,
                   small_cfg(selector=SelectorConfig(kind=kind)))
        assert len(calls) == embeds

    def test_promoted_labels_are_truth(self, monkeypatch):
        model, labeled, unlabeled, months = make_world()
        blocks = [labeled[1:], unlabeled[1:]] + [(m.y, m.ids) for m in months]
        truth = {i: int(c) for y, ids in blocks for i, c in zip(ids, y)}
        retrains = []

        def recording_train(model, labeled_xy, unlabeled_x, cfg):
            retrains.append(labeled_xy[1].tolist())
            return train(model, labeled_xy, unlabeled_x, cfg)

        monkeypatch.setattr(stream, "train", recording_train)
        result = run_stream(model, labeled, unlabeled, months, small_cfg())
        assert len(retrains) == len(months)
        ids_l = list(labeled[2])
        for ids, yl in zip(result.selected_ids, retrains):
            ids_l += ids
            assert yl == [truth[i] for i in ids_l]

    def test_empty_month_handled(self):
        model, labeled, unlabeled, months = make_world()
        d = months[0].X.shape[1]
        months.insert(1, MonthData("2020-01b", [], np.zeros((0, d), np.uint8),
                                   np.zeros(0, np.int64)))
        result = run_stream(model, labeled, unlabeled, months, small_cfg())
        empty = result.monthly[1]
        assert empty.tp == empty.fp == empty.tn == empty.fn == 0
        assert empty.f1 is None

    def test_adaptation_beats_static_under_drift(self):
        gen = DriftGeneratorConfig(dim=60, months=6,
                                   samples_per_month_per_class=100,
                                   drift_rate=0.6, overlap=0.0, seed=1)
        ds = synth_drift_generate(gen)
        months = months_from_dataset(ds)
        train_m, stream_m = months[:1], months[1:]
        Xl, yl, ids_l = train_m[0].X, train_m[0].y, train_m[0].ids
        cfg = TrainConfig(epochs=15, hidden=(16,), seed=0)
        model = build_model(60, cfg)
        model, _ = train(model, (Xl, yl), np.zeros((0, 60)), cfg)
        labeled = (Xl, yl, ids_l)
        unlabeled = (np.zeros((0, 60), np.uint8), np.zeros(0, np.int64), [])
        static = run_stream(model, labeled, unlabeled, stream_m,
                            StreamConfig(budget=0, retrain=cfg, seed=0))
        adaptive = run_stream(
            model, labeled, unlabeled, stream_m,
            StreamConfig(budget=60, retrain=replace(cfg, epochs=5), seed=0),
        )
        assert adaptive.f1_mean > static.f1_mean + 0.05

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            StreamConfig(budget=-1)


class TestExperimentLabels:
    def test_noisy_initial_labels_clean_pool_labels(self):
        gen = DriftGeneratorConfig(dim=12, months=3, samples_per_month_per_class=20,
                                   seed=0)
        ds = synth_drift_generate(gen)
        months = ds.months()
        setup = ExperimentSetup(
            ds, months[:2], months[2:], label_ratio=0.5, noise_rate=0.3,
            train_cfg=TrainConfig(epochs=1, hidden=(4,)),
        )
        _, (_, yl, ids_l), (_, yu, ids_u), _ = Experiment(setup).initial_fit(0)
        truth = {r.id: r.label for r in ds.records}
        assert yu.tolist() == [truth[i] for i in ids_u]
        flipped = int((yl != [truth[i] for i in ids_l]).sum())
        assert len(ids_u) > 0 and flipped == round(0.3 * len(ids_l)) > 0


class TestRepeatedIds:
    """A month that re-sends ids already in the pools must stop the stream.

    The model has trained on every pooled id (labeled ones directly,
    unlabeled ones through the consistency loss), so evaluating on them
    again would leak training data into the test month.
    """

    @staticmethod
    def _repeat(months, ids):
        mdata = months[1]
        mdata.ids[: len(ids)] = ids

    @pytest.mark.parametrize("budget", [0, 5])
    def test_month_repeating_unlabeled_ids(self, budget):
        model, labeled, unlabeled, months = make_world()
        self._repeat(months, unlabeled[2][:4])
        with pytest.raises(PoolInvariantError):
            run_stream(model, labeled, unlabeled, months, small_cfg(budget=budget))

    @pytest.mark.parametrize("budget", [0, 5])
    def test_month_repeating_labeled_ids(self, budget):
        model, labeled, unlabeled, months = make_world()
        self._repeat(months, labeled[2][:4])
        with pytest.raises(PoolInvariantError, match="both pools"):
            run_stream(model, labeled, unlabeled, months, small_cfg(budget=budget))


class TestAggregation:
    def test_aggregate_runs(self):
        model, labeled, unlabeled, months = make_world()
        runs = [run_stream(model, labeled, unlabeled, months,
                           small_cfg(seed=s)) for s in (0, 1)]
        agg = aggregate_runs(runs)
        assert np.isclose(agg["f1"][0],
                          np.mean([r.f1_mean for r in runs]))

    def test_result_round_trips_through_dict(self):
        model, labeled, unlabeled, months = make_world()
        result = run_stream(model, labeled, unlabeled, months, small_cfg())
        d = result.to_dict()
        assert len(d["monthly"]) == len(months)
        assert d["aggregate"]["f1"][0] == result.f1_mean
        import json

        json.dumps(d)  # must be JSON-serializable

import re
from dataclasses import replace

import numpy as np
import pytest

from driftal import stream
from driftal.data import DriftGeneratorConfig, synth_drift_generate
from driftal.experiment import Experiment, ExperimentSetup
from driftal.losses import LossConfig
from driftal.metrics import compute_metrics
from driftal.selection import SELECTOR_KINDS, SelectorConfig, ranks_by_lp, select
from driftal.stream import (
    MonthData,
    StreamConfig,
    PoolInvariantError,
    aggregate_runs,
    check_pools,
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


def record_train_calls(monkeypatch):
    """Replace the stream's ``train`` with one that records each call's inputs."""
    calls = []

    def recording_train(model, labeled_xy, unlabeled_x, cfg):
        calls.append((labeled_xy, unlabeled_x))
        return train(model, labeled_xy, unlabeled_x, cfg)

    monkeypatch.setattr(stream, "train", recording_train)
    return calls


def pools(lab, unl):
    return np.array(lab, dtype=np.int64), np.array(unl, dtype=np.int64)


class TestCheckPools:
    def test_every_row_once_passes(self):
        check_pools(*pools([0, 3], [2, 1, 4]), 5)
        check_pools(*pools([], []), 0)

    def test_row_in_both_pools(self):
        with pytest.raises(PoolInvariantError, match=r"rows \[1\] .* \[2\] times"):
            check_pools(*pools([0, 1], [1, 2]), 3)

    def test_row_in_neither_pool(self):
        with pytest.raises(PoolInvariantError, match=r"rows \[1\] .* \[0\] times"):
            check_pools(*pools([0], [2]), 3)

    def test_row_repeated_within_a_pool(self):
        with pytest.raises(PoolInvariantError, match=r"rows \[1\] .* \[2\] times"):
            check_pools(*pools([0], [1, 2, 1]), 3)

    @pytest.mark.parametrize("lab,unl", [([0, 1], [2, 3]), ([0], [1, 7])])
    def test_row_beyond_revealed(self, lab, unl):
        with pytest.raises(PoolInvariantError, match="of 3 revealed"):
            check_pools(*pools(lab, unl), 3)


class TestStreamBoundary:
    """Stream ids and row counts are checked once, before any training."""

    @staticmethod
    def _raises_untrained(monkeypatch, world, match):
        calls = record_train_calls(monkeypatch)
        with pytest.raises(PoolInvariantError, match=match):
            run_stream(*world, small_cfg(budget=5))
        assert calls == []

    def test_id_repeated_within_a_month(self, monkeypatch):
        model, labeled, unlabeled, months = make_world()
        months[2].ids[3] = months[2].ids[0]
        self._raises_untrained(monkeypatch, (model, labeled, unlabeled, months),
                               re.escape("repeated ids ['m2_0']"))

    def test_id_repeated_within_labeled_block(self, monkeypatch):
        model, labeled, unlabeled, months = make_world()
        labeled[2][5] = labeled[2][1]
        self._raises_untrained(monkeypatch, (model, labeled, unlabeled, months),
                               re.escape("repeated ids ['l1']"))

    def test_month_with_fewer_ids_than_rows(self, monkeypatch):
        model, labeled, unlabeled, months = make_world()
        months[2].ids.pop()
        self._raises_untrained(monkeypatch, (model, labeled, unlabeled, months),
                               "130 rows, 130 labels, 129 ids")


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
        retrains = record_train_calls(monkeypatch)
        result = run_stream(model, labeled, unlabeled, months, small_cfg())
        assert len(retrains) == len(months)
        ids_l = list(labeled[2])
        for ids, ((_, yl), _) in zip(result.selected_ids, retrains):
            ids_l += ids
            assert yl.tolist() == [truth[i] for i in ids_l]

    def test_promotion_keeps_row_order(self, monkeypatch):
        """Picked rows join the labeled pool in picked order; the rest keep theirs."""
        model, labeled, unlabeled, months = make_world(n_pool=3, n_months=1,
                                                       per_month=2)
        monkeypatch.setattr(stream.sel, "select",
                            lambda *args, **kw: ([3, 1], None))
        retrains = record_train_calls(monkeypatch)
        run_stream(model, labeled, unlabeled, months, small_cfg())
        pool_X = np.concatenate([unlabeled[0], months[0].X])
        pool_y = np.concatenate([unlabeled[1], months[0].y])
        (Xl, yl), Xu = retrains[0]
        assert np.array_equal(Xl, np.concatenate([labeled[0], pool_X[[3, 1]]]))
        assert np.array_equal(yl, np.concatenate([labeled[1], pool_y[[3, 1]]]))
        assert np.array_equal(Xu, pool_X[[0, 2, 4]])

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


def reference_stream(model, labeled, unlabeled, months, cfg):
    """The protocol of ``run_stream``'s docstring, with pools as id -> row dicts.

    Returns the monthly (tp, fp, tn, fn) counts and the selected ids.
    """
    def rows(X, y, ids):
        return {i: (np.asarray(x, np.uint8), int(c)) for i, x, c in zip(ids, X, y)}

    def stack(pool):
        d = len(months[0].X[0])
        X = np.array([x for x, _ in pool.values()], np.uint8).reshape(-1, d)
        return X, np.array([c for _, c in pool.values()], np.int64)

    lab, unl = rows(*labeled), rows(*unlabeled)
    model, rng = model.copy(), np.random.default_rng(cfg.seed)
    counts, selected = [], []
    for evaluated, m in enumerate(months, start=1):
        preds = model.predict_batch(m.X).argmax(axis=1)
        mm = compute_metrics(preds, m.y, month=m.month)
        counts.append((mm.tp, mm.fp, mm.tn, mm.fn))
        unl.update(rows(m.X, m.y, m.ids))
        embs = model.embed_batch(stack(lab)[0]) if ranks_by_lp(cfg.selector) else None
        chosen, _ = select(stack(unl)[0], model, embs, cfg.selector, cfg.budget,
                           rng=rng)
        picked = [list(unl)[j] for j in chosen]
        selected.append(picked)
        for i in picked:
            lab[i] = unl.pop(i)
        if picked:
            rcfg = replace(cfg.retrain, seed=cfg.seed + evaluated)
            model, _ = train(model, stack(lab), stack(unl)[0], rcfg)
    return counts, selected


class TestReferenceStream:
    """``run_stream`` against an id-keyed reference of the same protocol."""

    @pytest.fixture(scope="class")
    def world(self):
        return make_world(n_train=24, n_pool=10, d=12, n_months=3, per_month=12,
                          seed=3)

    @pytest.mark.parametrize("kind", SELECTOR_KINDS)
    @pytest.mark.parametrize("budget", [0, 1, 23])  # 23 = first month's pool + 1
    def test_matches_reference(self, world, kind, budget):
        cfg = small_cfg(budget=budget, selector=SelectorConfig(kind=kind))
        result = run_stream(*world, cfg)
        counts, selected = reference_stream(*world, cfg)
        assert result.selected_ids == selected
        assert [(m.tp, m.fp, m.tn, m.fn) for m in result.monthly] == counts
        if budget == 23 and kind != "low_confidence_only":  # it skips confident rows
            assert [len(ids) for ids in selected] == [22, 12, 12]


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

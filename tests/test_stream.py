import functools
import json
import re
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftal import stream
from driftal.config import ConfigError
from driftal.data import Dataset, DriftGeneratorConfig, synth_drift_generate
from driftal.experiment import Experiment
from driftal.losses import LossConfig
from driftal.metrics import compute_metrics
from driftal.net import NumericError
from driftal.selection import SELECTOR_KINDS, SelectorConfig, select
from driftal.stream import (
    PoolInvariantError,
    aggregate_runs,
    check_pools,
    months_from_dataset,
    run_stream,
)
from driftal.trainer import TrainConfig, build_model, train

from test_selection import nn_oracle, selection_oracle


def small_cfg(budget=5, selector=SelectorConfig()):
    """``run_stream``'s selector, budget and retrain arguments."""
    return selector, budget, TrainConfig(epochs=2, hidden=(8,), labeled_batch=16,
                                         unlabeled_batch=16)


def make_world(n_train=40, n_pool=30, d=6, n_months=3, per_month=20, seed=0):
    """Tiny labeled and unlabeled Datasets plus a ``{month: Dataset}`` stream,
    all with true labels."""
    rng = np.random.default_rng(seed)

    def batch(prefix, n, month):
        X = (rng.random((n, d)) < 0.5).astype(np.uint8)
        y = (X[:, :3].sum(axis=1) >= 2).astype(np.int64)
        return Dataset.from_arrays("world", d, X, y, [f"{prefix}{i}" for i in range(n)],
                                   [month] * n)

    labeled = batch("l", n_train, "2019-12")
    unlabeled = batch("u", n_pool, "2019-12")
    months = {f"2020-{m + 1:02d}": batch(f"m{m}_", per_month, f"2020-{m + 1:02d}")
              for m in range(n_months)}
    cfg = TrainConfig(epochs=5, hidden=(8,))
    model = build_model(d, cfg, seed)
    model, _ = train(model, (labeled.X, labeled.y), unlabeled.X, cfg, seed)
    return model, labeled, unlabeled, months


def with_ids(block, ids):
    """``block`` with its ids replaced by ``ids``."""
    return Dataset.from_arrays(block.name, block.feature_dim, block.X, block.y, ids,
                               block.row_months)


def record_train_calls(monkeypatch):
    """Replace the stream's ``train`` with one that records each call's inputs
    and seed."""
    calls = []

    def recording_train(model, labeled_xy, unlabeled_x, cfg, seed):
        calls.append((labeled_xy, unlabeled_x, seed))
        return train(model, labeled_xy, unlabeled_x, cfg, seed)

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
    """Stream ids are checked once, before any training."""

    @staticmethod
    def _raises_untrained(monkeypatch, world, match):
        calls = record_train_calls(monkeypatch)
        with pytest.raises(PoolInvariantError, match=match):
            run_stream(*world, *small_cfg(budget=5), 0)
        assert calls == []

    def test_id_repeated_within_a_month(self, monkeypatch):
        model, labeled, unlabeled, months = make_world()
        ids = months["2020-03"].ids
        months["2020-03"] = with_ids(months["2020-03"], [*ids[:3], ids[0], *ids[4:]])
        self._raises_untrained(monkeypatch, (model, labeled, unlabeled, months),
                               re.escape("repeated ids ['m2_0']"))

    def test_id_repeated_within_labeled_block(self, monkeypatch):
        model, labeled, unlabeled, months = make_world()
        ids = labeled.ids
        labeled = with_ids(labeled, [*ids[:5], ids[1], *ids[6:]])
        self._raises_untrained(monkeypatch, (model, labeled, unlabeled, months),
                               re.escape("repeated ids ['l1']"))


class TestRunStream:
    def test_budget_respected_and_ids_from_stream_or_pool(self):
        model, labeled, unlabeled, months = make_world()
        result = run_stream(model, labeled, unlabeled, months, *small_cfg(budget=5), 0)
        valid = set(unlabeled.ids) | {i for m in months.values() for i in m.ids}
        for ids in result.selected_ids:
            assert len(ids) <= 5
            assert set(ids) <= valid
        all_ids = [i for ids in result.selected_ids for i in ids]
        assert len(all_ids) == len(set(all_ids))  # never labeled twice

    def test_zero_budget_is_static(self):
        model, labeled, unlabeled, months = make_world()
        result = run_stream(model, labeled, unlabeled, months, *small_cfg(budget=0), 0)
        assert all(ids == [] for ids in result.selected_ids)
        # the model must be untouched: recompute month metrics directly
        for mm, block in zip(result.monthly, months.values()):
            preds = model.predict_batch(block.X).argmax(axis=1)
            tp = int(((preds == 1) & (block.y == 1)).sum())
            assert mm.tp == tp

    def test_non_finite_model_output_raises(self):
        model, labeled, unlabeled, months = make_world()
        model.theta[:] = np.nan
        with pytest.raises(NumericError, match="^month 2020-01: non-finite model output$"):
            run_stream(model, labeled, unlabeled, months, *small_cfg(budget=0), 0)

    def test_input_model_not_mutated(self):
        model, labeled, unlabeled, months = make_world()
        before = model.theta.copy()
        run_stream(model, labeled, unlabeled, months, *small_cfg(), 0)
        assert (before == model.theta).all()

    def test_first_month_static_equals_adaptive(self):
        """Test-then-train: month 1 is scored before any labeling."""
        model, labeled, unlabeled, months = make_world()
        r0 = run_stream(model, labeled, unlabeled, months, *small_cfg(budget=0), 0)
        r5 = run_stream(model, labeled, unlabeled, months, *small_cfg(budget=5), 0)
        assert r0.monthly[0].to_dict() == r5.monthly[0].to_dict()

    def test_deterministic_given_seed(self):
        model, labeled, unlabeled, months = make_world()
        cfg = small_cfg(selector=SelectorConfig(kind="random"))
        a = run_stream(model, labeled, unlabeled, months, *cfg, 0)
        b = run_stream(model, labeled, unlabeled, months, *cfg, 0)
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
                   *small_cfg(selector=SelectorConfig(kind=kind)), 0)
        assert len(calls) == embeds

    def test_promoted_labels_are_truth(self, monkeypatch):
        model, labeled, unlabeled, months = make_world()
        blocks = [labeled, unlabeled, *months.values()]
        truth = {i: int(c) for b in blocks for i, c in zip(b.ids, b.y)}
        retrains = record_train_calls(monkeypatch)
        result = run_stream(model, labeled, unlabeled, months, *small_cfg(), 0)
        assert len(retrains) == len(months)
        ids_l = list(labeled.ids)
        for ids, ((_, yl), _, _) in zip(result.selected_ids, retrains):
            ids_l += ids
            assert yl.tolist() == [truth[i] for i in ids_l]

    def test_promotion_keeps_row_order(self, monkeypatch):
        """Picked rows join the labeled pool in picked order; the rest keep theirs."""
        model, labeled, unlabeled, months = make_world(n_pool=3, n_months=1,
                                                       per_month=2)
        monkeypatch.setattr(stream.sel, "select",
                            lambda *args, **kw: ([3, 1], None))
        retrains = record_train_calls(monkeypatch)
        run_stream(model, labeled, unlabeled, months, *small_cfg(), 0)
        [month] = months.values()
        pool_X = np.concatenate([unlabeled.X, month.X])
        pool_y = np.concatenate([unlabeled.y, month.y])
        (Xl, yl), Xu, _ = retrains[0]
        assert np.array_equal(Xl, np.concatenate([labeled.X, pool_X[[3, 1]]]))
        assert np.array_equal(yl, np.concatenate([labeled.y, pool_y[[3, 1]]]))
        assert np.array_equal(Xu, pool_X[[0, 2, 4]])

    def test_empty_month_handled(self):
        model, labeled, unlabeled, months = make_world()
        items = list(months.items())
        months = dict([items[0], ("2020-01b", labeled.take([])), *items[1:]])
        result = run_stream(model, labeled, unlabeled, months, *small_cfg(), 0)
        empty = result.monthly[1]
        assert empty.tp == empty.fp == empty.tn == empty.fn == 0
        assert empty.f1 is None

    def test_adaptation_beats_static_under_drift(self):
        gen = DriftGeneratorConfig(dim=60, months=6,
                                   samples_per_month_per_class=100,
                                   drift_rate=0.6, overlap=0.0, seed=1)
        ds = synth_drift_generate(gen)
        first, *rest = ds.months()
        labeled = ds.take(np.isin(ds.row_months, first))
        unlabeled, stream_m = labeled.take([]), months_from_dataset(ds, rest)
        cfg = TrainConfig(epochs=15, hidden=(16,))
        model = build_model(60, cfg, 0)
        model, _ = train(model, (labeled.X, labeled.y), unlabeled.X, cfg, 0)
        static = run_stream(model, labeled, unlabeled, stream_m, SelectorConfig(), 0,
                            cfg, 0)
        adaptive = run_stream(model, labeled, unlabeled, stream_m, SelectorConfig(), 60,
                              replace(cfg, epochs=5), 0)
        assert adaptive.f1_mean > static.f1_mean + 0.05

    @pytest.mark.parametrize("seed,error", [(-1, ValueError), (1.5, TypeError)])
    def test_run_seed_follows_default_rng(self, seed, error):
        # no config object holds the run seed; each function that takes it
        # rejects what np.random.default_rng rejects
        model, labeled, unlabeled, months = make_world()
        selector, budget, retrain = small_cfg()
        with pytest.raises(error):
            build_model(6, retrain, seed)
        with pytest.raises(error):
            train(model, (labeled.X, labeled.y), unlabeled.X, retrain, seed)
        with pytest.raises(error):
            run_stream(model, labeled, unlabeled, months, selector, budget, retrain, seed)

    def test_negative_budget_rejected(self):
        # select owns the budget rule, for every caller
        model, labeled, unlabeled, months = make_world()
        problem = "^budget: expected int >= 0, got -1$"
        with pytest.raises(ConfigError, match=problem):
            run_stream(model, labeled, unlabeled, months, *small_cfg(budget=-1), 0)
        with pytest.raises(ConfigError, match=problem):
            select(unlabeled.X, model, labeled.X, SelectorConfig(), -1)

    def test_month_overflow_names_the_month(self):
        # steps (1)-(3) raise numpy's overflow, not a RuntimeWarning
        model, labeled, unlabeled, months = make_world()
        model.theta *= 1e300
        with pytest.raises(NumericError, match="^month 2020-01: overflow"):
            run_stream(model, labeled, unlabeled, months, *small_cfg(), 0)


def reference_scores(model, pool_X, labeled_X, cfg):
    """The scores ``select`` documents, without ``selection``'s code: the
    model's probabilities and embeddings, hand-computed criteria and the
    brute-force nearest distance. The distance and the hybrid are NaN for
    the selectors that do not rank by them."""
    probs = model.predict_batch(pool_X)
    margin, confidence = np.abs(probs[:, 0] - probs[:, 1]), probs.max(axis=1)
    lp = hybrid = np.full(len(probs), np.nan)
    if cfg.kind in ("multi_criteria", "lp_only"):
        lp = nn_oracle(model.embed_batch(pool_X), model.embed_batch(labeled_X), cfg.p_norm)

        def scaled(v):
            lo, hi = v.min(), v.max()
            return np.full(len(v), 0.5) if hi == lo else (v - lo) / (hi - lo)

        hybrid = (cfg.alpha * (1.0 - scaled(margin)) + cfg.beta * scaled(lp)
                  + cfg.gamma * (1.0 - scaled(confidence)))
    return SimpleNamespace(margin=margin, lp_distance=lp, confidence=confidence,
                           hybrid=hybrid)


def reference_stream(model, labeled, unlabeled, months, selector, k, retrain, seed):
    """The protocol of ``run_stream``'s docstring, with pools as id -> row dicts
    and each pool scored by ``reference_scores`` and ranked by
    ``selection_oracle``.

    Returns the monthly (tp, fp, tn, fn) counts and the selected ids.
    """
    def rows(block):
        return {i: (x, int(c)) for i, x, c in zip(block.ids, block.X, block.y)}

    def stack(pool):
        X = np.array([x for x, _ in pool.values()], np.uint8)
        return (X.reshape(-1, labeled.feature_dim),
                np.array([c for _, c in pool.values()], np.int64))

    lab, unl = rows(labeled), rows(unlabeled)
    model, rng = model.copy(), np.random.default_rng(seed)
    counts, selected = [], []
    for evaluated, (month, block) in enumerate(months.items(), start=1):
        preds = model.predict_batch(block.X).argmax(axis=1)
        mm = compute_metrics(preds, block.y, month=month)
        counts.append((mm.tp, mm.fp, mm.tn, mm.fn))
        unl.update(rows(block))
        n = len(unl)
        if k <= 0 or n == 0:
            chosen = []
        elif selector.kind == "random":
            chosen = rng.choice(n, size=min(k, n), replace=False).tolist()
        else:
            scores = reference_scores(model, stack(unl)[0], stack(lab)[0], selector)
            chosen = selection_oracle(scores, selector, k)
        picked = [list(unl)[j] for j in chosen]
        selected.append(picked)
        for i in picked:
            lab[i] = unl.pop(i)
        if picked:
            model, _ = train(model, stack(lab), stack(unl)[0], retrain,
                             seed + evaluated)
    return counts, selected


class TestReferenceStream:
    """``run_stream`` against an id-keyed reference of the same protocol that
    shares no scoring, distance or ranking code with it."""

    @pytest.fixture(scope="class")
    def world(self):
        return make_world(n_train=24, n_pool=10, d=12, n_months=3, per_month=12,
                          seed=3)

    @pytest.mark.parametrize("kind", SELECTOR_KINDS)
    @pytest.mark.parametrize("budget", [0, 1, 23])  # 23 = first month's pool + 1
    def test_matches_reference(self, world, kind, budget):
        cfg = small_cfg(budget=budget, selector=SelectorConfig(kind=kind))
        result = run_stream(*world, *cfg, 0)
        counts, selected = reference_stream(*world, *cfg, 0)
        assert result.selected_ids == selected
        assert [(m.tp, m.fp, m.tn, m.fn) for m in result.monthly] == counts
        if budget == 23 and kind != "low_confidence_only":  # it skips confident rows
            assert [len(ids) for ids in selected] == [22, 12, 12]


@functools.cache
def cached_world(seed):
    """A ``make_world`` stream shared by the property tests, which never mutate it."""
    return make_world(seed=seed)


def bits(a):
    """Equal for two arrays exactly when they are equal bit for bit."""
    return a.dtype.str, a.shape, a.tobytes()


def run_recorded(world, cfg, seed):
    """``stream.run_stream``'s result on ``world``, and the inputs and seed of
    each retrain."""
    with pytest.MonkeyPatch.context() as mp:
        calls = record_train_calls(mp)
        return stream.run_stream(*world, *cfg, seed), calls


def check_no_future_leak(kind, budget, seed, k, extra, rows_seed):
    """Replacing every row after month k of a ``cached_world`` stream (other
    features, flipped labels, ``extra`` more rows a month, fresh ids) leaves
    months 1..k as they were: their metrics, their selected ids, and the inputs
    and seed of every retrain through month k, bit for bit."""
    model, labeled, unlabeled, months = world = cached_world(seed)
    rng, future = np.random.default_rng(rows_seed), {}
    for t, (month, block) in enumerate(months.items(), start=1):
        if t > k:
            n = len(block) + extra
            X = (rng.random((n, block.feature_dim)) < 0.5).astype(np.uint8)
            y = (X[:, :3].sum(axis=1) < 2).astype(np.int64)  # make_world's rule, flipped
            block = Dataset.from_arrays("future", block.feature_dim, X, y,
                                        [f"future{t}_{i}" for i in range(n)], [month] * n)
        future[month] = block
    cfg = small_cfg(budget=budget, selector=SelectorConfig(kind=kind))
    a, a_calls = run_recorded(world, cfg, seed)
    b, b_calls = run_recorded((model, labeled, unlabeled, future), cfg, seed)
    assert [m.to_dict() for m in a.monthly[:k]] == [m.to_dict() for m in b.monthly[:k]]
    assert a.selected_ids[:k] == b.selected_ids[:k]

    def retrains(calls):  # retrain seeds are the run seed + months evaluated
        return [(bits(Xl), bits(yl), bits(Xu), s) for (Xl, yl), Xu, s in calls
                if s <= seed + k]

    assert retrains(a_calls) == retrains(b_calls)


def check_no_label_leak(kind, budget, seed):
    """Flipping the label of every pool and month row of a ``cached_world``
    stream that the run never selects leaves every selection, and every
    month's predictions (``tp + fp``), as they were."""
    model, labeled, unlabeled, months = world = cached_world(seed)
    cfg = small_cfg(budget=budget, selector=SelectorConfig(kind=kind))
    a = stream.run_stream(*world, *cfg, seed)
    chosen = {i for ids in a.selected_ids for i in ids}

    def flipped(block):
        y = np.where([i in chosen for i in block.ids], block.y, 1 - block.y)
        return Dataset.from_arrays(block.name, block.feature_dim, block.X, y, block.ids,
                                   block.row_months)

    b = stream.run_stream(model, labeled, flipped(unlabeled),
                          {m: flipped(block) for m, block in months.items()}, *cfg, seed)
    assert b.selected_ids == a.selected_ids
    assert [m.tp + m.fp for m in b.monthly] == [m.tp + m.fp for m in a.monthly]


def peeking_run_stream(model, labeled, unlabeled, months, *args):
    """A mutant ``run_stream`` that leaks the future: each month's pool is
    ranked with the next month's rows in it, and a pick among those is dropped."""
    upcoming, real = iter([b.X for b in list(months.values())[1:]]), stream.sel.select

    def select(pool_X, *rest, **kw):
        chosen, scores = real(np.concatenate([pool_X, next(upcoming, pool_X[:0])]),
                              *rest, **kw)
        return [j for j in chosen if j < len(pool_X)], scores

    with mock.patch.object(stream.sel, "select", select):
        return run_stream(model, labeled, unlabeled, months, *args)


def label_reading_run_stream(model, labeled, unlabeled, months, *args):
    """A mutant ``run_stream`` whose ``train`` is handed the pool's labels: it
    trains on each unlabeled row as labeled, with the label of a pool or month
    row of the same features."""
    label = {x.tobytes(): c for b in (unlabeled, *months.values()) for x, c in zip(b.X, b.y)}

    def leaky_train(model, labeled_xy, unlabeled_x, cfg, seed):
        (Xl, yl), yu = labeled_xy, np.array([label[x.tobytes()] for x in unlabeled_x])
        return train(model, (np.concatenate([Xl, unlabeled_x]), np.concatenate([yl, yu])),
                     unlabeled_x, cfg, seed)

    with mock.patch.object(stream, "train", leaky_train):
        return run_stream(model, labeled, unlabeled, months, *args)


class TestStreamProperties:
    """Hypothesis properties of ``run_stream`` on small ``make_world`` streams."""

    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(SELECTOR_KINDS), budget=st.integers(0, 60),
           seed=st.integers(0, 2), data=st.data())
    def test_renaming_ids_changes_nothing_else(self, kind, budget, seed, data):
        model, labeled, unlabeled, months = cached_world(seed)
        ids = [*labeled.ids, *unlabeled.ids, *(i for m in months.values() for i in m.ids)]
        names = data.draw(st.lists(st.text(max_size=4), min_size=len(ids),
                                   max_size=len(ids), unique=True))
        rename = dict(zip(ids, names))

        def renamed(block):
            return with_ids(block, [rename[i] for i in block.ids])

        renamed_world = [renamed(labeled), renamed(unlabeled),
                         {m: renamed(b) for m, b in months.items()}]
        cfg = small_cfg(budget=budget, selector=SelectorConfig(kind=kind))
        a = run_stream(model, labeled, unlabeled, months, *cfg, seed)
        b = run_stream(model, *renamed_world, *cfg, seed)
        assert [m.to_dict() for m in a.monthly] == [m.to_dict() for m in b.monthly]
        position = {name: k for k, name in enumerate(names)}
        assert ([[ids.index(i) for i in sel] for sel in a.selected_ids]
                == [[position[i] for i in sel] for sel in b.selected_ids])

    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(SELECTOR_KINDS), extra=st.integers(0, 20),
           cutoff=st.floats(0.5, 1.0), seed=st.integers(0, 2))
    def test_budget_at_pool_size_takes_whole_pool(self, kind, extra, cutoff, seed):
        """Every month's pool is selected whole, or for ``low_confidence_only``
        exactly its rows below the cutoff."""
        model, labeled, unlabeled, months = cached_world(seed)
        budget = len(unlabeled) + sum(map(len, months.values())) + extra
        selector = SelectorConfig(kind=kind, low_confidence_cutoff=cutoff)
        calls, real = [], stream.sel.select

        def recording(pool_X, *args, **kw):
            chosen, scores = real(pool_X, *args, **kw)
            calls.append((len(pool_X), chosen, scores))
            return chosen, scores

        with mock.patch.object(stream.sel, "select", recording):
            result = run_stream(model, labeled, unlabeled, months,
                                *small_cfg(budget=budget, selector=selector), seed)
        assert len(calls) == len(months)
        pool = list(unlabeled.ids)
        for m, picked, (n, chosen, scores) in zip(months.values(), result.selected_ids,
                                                  calls):
            pool += m.ids
            assert n == len(pool)
            want = (np.flatnonzero(scores.confidence < cutoff).tolist()
                    if kind == "low_confidence_only" else list(range(n)))
            assert sorted(chosen) == want
            assert sorted(picked) == sorted(pool[j] for j in want)
            pool = [i for i in pool if i not in set(picked)]

    @settings(max_examples=12, deadline=None)
    @given(classes=st.lists(st.sampled_from([0, 1, None]), min_size=3, max_size=3),
           budget=st.integers(0, 10), seed=st.integers(0, 2))
    def test_single_class_month_gives_none_not_nan(self, classes, budget, seed):
        model, labeled, unlabeled, months = cached_world(seed)
        # None keeps both classes
        stream_months = {m: b if label is None else b.take(b.y == label)
                         for (m, b), label in zip(months.items(), classes)}
        result = run_stream(model, labeled, unlabeled, stream_months,
                            *small_cfg(budget=budget), seed)
        for mm, label in zip(result.monthly, classes):
            ratios = (mm.f1, mm.fnr, mm.fpr)
            assert all(v is None or np.isfinite(v) for v in ratios)
            if label is not None:  # no row of the other class: its rate is undefined
                assert (mm.fnr if label == 0 else mm.fpr) is None
        json.dumps(result.to_dict(), allow_nan=False)

    # budgets run from 0 to a whole pool: 30 unlabeled rows and three months of 20
    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(SELECTOR_KINDS), budget=st.integers(0, 90),
           seed=st.integers(0, 2), k=st.integers(1, 2), extra=st.integers(1, 20),
           rows_seed=st.integers(0, 2**32 - 1))
    def test_no_leak_from_the_future(self, kind, budget, seed, k, extra, rows_seed):
        check_no_future_leak(kind, budget, seed, k, extra, rows_seed)

    @pytest.mark.parametrize("kind", SELECTOR_KINDS)
    def test_future_leak_is_caught(self, monkeypatch, kind):
        monkeypatch.setattr(stream, "run_stream", peeking_run_stream)
        with pytest.raises(AssertionError):
            check_no_future_leak(kind, 20, 1, 1, 5, 0)

    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(SELECTOR_KINDS), budget=st.integers(0, 90),
           seed=st.integers(0, 2))
    def test_no_read_of_an_unrevealed_label(self, kind, budget, seed):
        check_no_label_leak(kind, budget, seed)

    @pytest.mark.parametrize("kind", SELECTOR_KINDS)
    def test_label_leak_is_caught(self, monkeypatch, kind):
        monkeypatch.setattr(stream, "run_stream", label_reading_run_stream)
        with pytest.raises(AssertionError):
            check_no_label_leak(kind, 20, 1)


class TestExperimentLabels:
    def test_noisy_initial_labels_clean_pool_labels(self):
        gen = DriftGeneratorConfig(dim=12, months=3, samples_per_month_per_class=20,
                                   seed=0)
        ds = synth_drift_generate(gen)
        months = ds.months()
        exp = Experiment(
            ds, months[:2], months[2:], label_ratio=0.5, noise_rate=0.3,
            train_cfg=TrainConfig(epochs=1, hidden=(4,)), retrain_epochs=1,
        )
        _, labeled, unlabeled, _ = exp.initial_fit(0)
        truth = dict(zip(ds.ids, ds.y.tolist()))
        assert unlabeled.y.tolist() == [truth[i] for i in unlabeled.ids]
        flipped = int((labeled.y != [truth[i] for i in labeled.ids]).sum())
        assert len(unlabeled) > 0 and flipped == round(0.3 * len(labeled)) > 0

    def test_replaced_noise_rate_refits(self):
        # noise runs each rate as dataclasses.replace(exp, noise_rate=rate): the
        # copy fits anew on its own labels and keeps its own cache
        gen = DriftGeneratorConfig(dim=12, months=3, samples_per_month_per_class=20,
                                   seed=0)
        ds = synth_drift_generate(gen)
        months = ds.months()
        exp = Experiment(ds, months[:2], months[2:], label_ratio=0.5, noise_rate=0.0,
                         train_cfg=TrainConfig(epochs=1, hidden=(4,)), retrain_epochs=1)
        clean = exp.initial_fit(0)
        noisy_exp = replace(exp, noise_rate=0.3)
        noisy = noisy_exp.initial_fit(0)
        assert noisy[1].ids == clean[1].ids
        assert noisy[1].y.tolist() != clean[1].y.tolist()
        assert noisy_exp.initial_fit(0) is noisy and exp.initial_fit(0) is clean


class TestRepeatedIds:
    """A month that re-sends ids already in the pools must stop the stream.

    The model has trained on every pooled id (labeled ones directly,
    unlabeled ones through the consistency loss), so evaluating on them
    again would leak training data into the test month.
    """

    @staticmethod
    def _repeat(months, ids):
        """``months`` with the second month's first ids replaced by ``ids``."""
        month, block = list(months.items())[1]
        return {**months, month: with_ids(block, [*ids, *block.ids[len(ids):]])}

    @pytest.mark.parametrize("budget", [0, 5])
    def test_month_repeating_unlabeled_ids(self, budget):
        model, labeled, unlabeled, months = make_world()
        months = self._repeat(months, unlabeled.ids[:4])
        with pytest.raises(PoolInvariantError):
            run_stream(model, labeled, unlabeled, months, *small_cfg(budget=budget), 0)

    @pytest.mark.parametrize("budget", [0, 5])
    def test_month_repeating_labeled_ids(self, budget):
        model, labeled, unlabeled, months = make_world()
        months = self._repeat(months, labeled.ids[:4])
        with pytest.raises(PoolInvariantError, match="both pools"):
            run_stream(model, labeled, unlabeled, months, *small_cfg(budget=budget), 0)


class TestAggregation:
    def test_aggregate_runs(self):
        model, labeled, unlabeled, months = make_world()
        runs = [run_stream(model, labeled, unlabeled, months, *small_cfg(), s)
                for s in (0, 1)]
        agg = aggregate_runs(runs)
        assert np.isclose(agg["f1"][0],
                          np.mean([r.f1_mean for r in runs]))

    def test_result_round_trips_through_dict(self):
        model, labeled, unlabeled, months = make_world()
        result = run_stream(model, labeled, unlabeled, months, *small_cfg(), 0)
        d = result.to_dict()
        assert len(d["monthly"]) == len(months)
        assert d["aggregate"]["f1"][0] == result.f1_mean
        import json

        json.dumps(d)  # must be JSON-serializable

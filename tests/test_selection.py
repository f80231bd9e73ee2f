import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftal.selection as selection
from driftal.net import Classifier, NumericError
from driftal.selection import (
    SelectorConfig,
    confidence_scores,
    hybrid_scores,
    lp_distances,
    margin_scores,
    minmax_normalize,
    score_pool,
    select,
)


def brute_force_nn(U, L, p):
    out = []
    for u in U:
        out.append(min(np.sum(np.abs(u - l) ** p) ** (1 / p) for l in L))
    return np.array(out)


def nn_oracle(U, L, p):
    """Brute-force nearest Lp distance from each row of ``U`` to the rows of
    ``L``, by one broadcast over every pair; unlike ``brute_force_nn`` it is
    right at p=inf."""
    diff = np.abs(np.asarray(U, np.float64)[:, None, :] - np.asarray(L, np.float64)[None])
    if p == np.inf:
        return diff.max(axis=2).min(axis=1)
    return ((diff ** p).sum(axis=2) ** (1 / p)).min(axis=1)


def tiny_model(d=6, seed=0):
    return Classifier((d, 4, 2), seed=seed)


PROBABILITY = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1)


class TestMargin:
    @pytest.mark.parametrize("probs,expected", [
        ([0.5, 0.5], 0.0),
        ([0.9, 0.1], 0.8),
        ([1.0, 0.0], 1.0),
        ([0.1, 0.9], 0.8),
    ])
    def test_values(self, probs, expected):
        assert np.isclose(margin_scores(np.array([probs]))[0], expected)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(PROBABILITY, PROBABILITY)
                    | PROBABILITY.map(lambda p: (p, p))
                    | PROBABILITY.map(lambda p: (p, 1 - p)), max_size=20))
    def test_equals_top_two_difference(self, rows):
        probs = np.array(rows, dtype=np.float64).reshape(-1, 2)
        top = np.sort(probs, axis=1)[:, ::-1]
        assert margin_scores(probs).tobytes() == (top[:, 0] - top[:, 1]).tobytes()


class TestEmptyPool:
    @pytest.mark.parametrize("criterion", [margin_scores, confidence_scores])
    def test_probability_criteria(self, criterion):
        scores = criterion(np.zeros((0, 2)))
        assert scores.dtype == np.float64 and scores.shape == (0,)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
    def test_lp_distance(self, p):
        d = lp_distances(np.zeros((0, 4)), np.ones((3, 4)), p)
        assert d.dtype == np.float64 and d.shape == (0,)


class TestLpDistance:
    def test_zero_for_coincident_point(self):
        L = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert lp_distances(L[:1], L)[0] == 0.0

    def test_one_dimensional_nearest(self):
        d = lp_distances(np.array([[5.0]]), np.array([[1.0], [4.0]]))
        assert np.isclose(d[0], 1.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
    def test_matches_brute_force(self, p):
        rng = np.random.default_rng(0)
        U = rng.normal(size=(100, 8))
        L = rng.normal(size=(30, 8))
        assert np.allclose(lp_distances(U, L, p), nn_oracle(U, L, p), atol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
    def test_relu_like_with_duplicates(self, p):
        # ReLU embeddings: about half the coordinates exactly zero, and
        # repeated rows on both sides
        rng = np.random.default_rng(2)
        L = np.maximum(rng.normal(size=(40, 16)), 0)
        L = np.concatenate([L, L[:10], np.zeros((3, 16))])
        U = np.maximum(rng.normal(size=(200, 16)), 0)
        U = np.concatenate([U, U[:20], np.zeros((2, 16))])
        assert np.allclose(lp_distances(U, L, p), nn_oracle(U, L, p), atol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
    def test_single_labeled_row(self, p):
        rng = np.random.default_rng(3)
        U = rng.normal(size=(50, 5))
        L = rng.normal(size=(1, 5))
        assert np.allclose(lp_distances(U, L, p), nn_oracle(U, L, p), atol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
    def test_pool_rows_in_labeled_set_are_exactly_zero(self, p):
        rng = np.random.default_rng(4)
        L = np.maximum(rng.normal(size=(60, 16)), 0)
        U = np.concatenate([L[::3], rng.normal(size=(10, 16))])
        d = lp_distances(U, L, p)
        assert np.all(d[:20] == 0.0)
        assert np.all(d[20:] > 0.0)

    def test_empty_labeled_rejected(self):
        with pytest.raises(ValueError):
            lp_distances(np.ones((2, 3)), np.zeros((0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["pool", "labeled"])
    def test_non_finite_embedding_rejected(self, bad, side):
        U, L = np.ones((4, 3)), np.zeros((5, 3))
        (U if side == "pool" else L)[2, 1] = bad
        with pytest.raises(NumericError, match=side):
            lp_distances(U, L)


class TestConfidence:
    def test_values(self):
        c = confidence_scores(np.array([[0.5, 0.5], [0.96, 0.04], [0.2, 0.8]]))
        assert np.allclose(c, [0.5, 0.96, 0.8])

    def test_order_preserved(self):
        rng = np.random.default_rng(1)
        p1 = rng.random(20)
        probs = np.stack([p1, 1 - p1], axis=1)
        assert np.allclose(confidence_scores(probs),
                           [max(a, b) for a, b in probs])


class TestMinMax:
    def test_simple(self):
        assert np.allclose(minmax_normalize([1, 2, 3]), [0, 0.5, 1])

    def test_degenerate_all_equal(self):
        assert np.allclose(minmax_normalize([7, 7, 7]), [0.5, 0.5, 0.5])

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = rng.normal(size=15)
            a, b = rng.uniform(0.1, 5), rng.normal()
            assert np.allclose(minmax_normalize(a * v + b), minmax_normalize(v))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            minmax_normalize([])


class TestHybrid:
    @pytest.mark.parametrize("mdc,expected", [
        ((1.0, 0.0, 1.0), 0.0),
        ((0.0, 1.0, 0.0), 3.0),
        ((0.5, 0.5, 0.5), 1.5),
    ])
    def test_extremes(self, mdc, expected):
        m, d, c = mdc
        h = hybrid_scores(np.array([m]), np.array([d]), np.array([c]), 1, 1, 1)
        assert np.isclose(h[0], expected)


def selection_oracle(scores, cfg, k):
    """Full sort with the documented tie rule, per selector kind."""
    n = len(scores.hybrid)
    if cfg.kind == "multi_criteria":
        keyed = [(-scores.hybrid[i], i) for i in range(n)]
    elif cfg.kind == "margin_only":
        keyed = [(scores.margin[i], i) for i in range(n)]
    elif cfg.kind == "lp_only":
        keyed = [(-scores.lp_distance[i], i) for i in range(n)]
    elif cfg.kind == "low_confidence_only":
        keyed = [(scores.confidence[i], i) for i in range(n)
                 if scores.confidence[i] < cfg.low_confidence_cutoff]
    else:
        raise ValueError(cfg.kind)
    keyed.sort()
    return [i for _, i in keyed[:k]]


class TestSelect:
    def setup_method(self):
        self.model = tiny_model()
        rng = np.random.default_rng(3)
        self.pool = (rng.random((50, 6)) < 0.5).astype(np.uint8)
        self.labeled_X = (rng.random((20, 6)) < 0.5).astype(np.uint8)

    def test_zero_budget(self):
        chosen, _ = select(self.pool, self.model, self.labeled_X,
                           SelectorConfig(), 0)
        assert chosen == []

    def test_budget_covers_pool(self):
        cfg = SelectorConfig()
        chosen, scores = select(self.pool, self.model, self.labeled_X, cfg, 999)
        assert sorted(chosen) == list(range(50))
        # returned in descending score order
        assert all(scores.hybrid[a] >= scores.hybrid[b]
                   for a, b in zip(chosen, chosen[1:]))

    @pytest.mark.parametrize("kind", [
        "multi_criteria", "margin_only", "lp_only", "low_confidence_only",
    ])
    def test_matches_sort_oracle(self, kind):
        cfg = SelectorConfig(kind=kind)
        chosen, scores = select(self.pool, self.model, self.labeled_X, cfg, 10)
        assert chosen == selection_oracle(scores, cfg, 10)

    def test_single_weight_equivalences(self):
        mc_margin = SelectorConfig(alpha=1, beta=0, gamma=0)
        mc_lp = SelectorConfig(alpha=0, beta=1, gamma=0)
        mc_conf = SelectorConfig(alpha=0, beta=0, gamma=1)
        args = (self.pool, self.model, self.labeled_X)
        assert (set(select(*args, mc_margin, 10)[0])
                == set(select(*args, SelectorConfig(kind="margin_only"), 10)[0]))
        assert (set(select(*args, mc_lp, 10)[0])
                == set(select(*args, SelectorConfig(kind="lp_only"), 10)[0]))
        loose = SelectorConfig(kind="low_confidence_only", low_confidence_cutoff=1.0)
        assert (set(select(*args, mc_conf, 10)[0])
                == set(select(*args, loose, 10)[0]))

    def test_random_selection(self):
        cfg = SelectorConfig(kind="random")
        a, _ = select(self.pool, self.model, self.labeled_X, cfg, 10,
                      rng=np.random.default_rng(0))
        b, _ = select(self.pool, self.model, self.labeled_X, cfg, 10,
                      rng=np.random.default_rng(0))
        assert a == b
        assert len(set(a)) == 10
        with pytest.raises(ValueError):
            select(self.pool, self.model, self.labeled_X, cfg, 10)

    def test_indices_unique_and_bounded(self):
        for kind in ("multi_criteria", "margin_only", "lp_only",
                     "low_confidence_only"):
            chosen, _ = select(self.pool, self.model, self.labeled_X,
                               SelectorConfig(kind=kind), 25)
            assert len(chosen) == len(set(chosen))
            assert all(0 <= i < 50 for i in chosen)

    def test_monotone_transform_invariance_single_criterion(self):
        # ranking selectors depend only on the order of their criterion
        scores = score_pool(self.pool, self.model, self.labeled_X,
                            SelectorConfig())
        base = selection_oracle(scores, SelectorConfig(kind="lp_only"), 10)
        import copy

        warped = copy.deepcopy(scores)
        warped.lp_distance = np.exp(scores.lp_distance)
        assert selection_oracle(warped, SelectorConfig(kind="lp_only"), 10) == base

    def test_score_pool_runs_one_forward(self, monkeypatch):
        outputs = []
        infer = Classifier.infer

        def counting_infer(model, X):
            out = infer(model, X)
            if np.array_equal(X, self.pool):  # the labeled pass is not counted
                outputs.append(out)
            return out

        monkeypatch.setattr(Classifier, "infer", counting_infer)
        scores = score_pool(self.pool, self.model, self.labeled_X,
                            SelectorConfig())
        monkeypatch.undo()
        assert len(outputs) == 1
        probs, embs = outputs[0]
        # bit-identical to the two separate passes it replaces
        assert np.array_equal(probs, self.model.predict_batch(self.pool))
        assert np.array_equal(embs, self.model.embed_batch(self.pool))
        _, fwd_probs, fwd_embs, _ = self.model.forward_batch(self.pool)
        assert np.array_equal(probs, fwd_probs) and np.array_equal(embs, fwd_embs)
        assert np.array_equal(scores.margin, margin_scores(probs))
        assert np.array_equal(scores.confidence, confidence_scores(probs))
        assert np.array_equal(scores.lp_distance,
                              lp_distances(embs, self.model.embed_batch(self.labeled_X),
                                           2.0))

    @pytest.mark.parametrize("kind", ["margin_only", "low_confidence_only"])
    def test_unread_distance_skipped(self, monkeypatch, kind):
        full = score_pool(self.pool, self.model, self.labeled_X,
                          SelectorConfig())
        calls = []
        monkeypatch.setattr(selection, "lp_distances",
                            lambda *a: calls.append(a) or lp_distances(*a))
        cfg = SelectorConfig(kind=kind, low_confidence_cutoff=0.9)
        for k in (1, 10, 50):
            # the labeled set is never read: None stands in for it
            chosen, scores = select(self.pool, self.model, None, cfg, k)
            assert chosen == selection_oracle(full, cfg, k)
            assert len(chosen) > 0
        assert calls == []
        assert np.array_equal(scores.margin, full.margin)
        assert np.array_equal(scores.confidence, full.confidence)
        for name in ("lp_distance", "hybrid"):
            column = getattr(scores, name)
            assert column.shape == (50,) and np.isnan(column).all()

    @pytest.mark.parametrize("kind,reads", [
        ("multi_criteria", True), ("lp_only", True), ("margin_only", False),
        ("low_confidence_only", False), ("random", False),
    ])
    def test_labeled_rows_read_only_by_distance_kinds(self, monkeypatch, kind, reads):
        embedded, queries = [], []
        embed = Classifier.embed_batch

        def spy_embed(model, X):
            embedded.append(X)
            return embed(model, X)

        monkeypatch.setattr(Classifier, "embed_batch", spy_embed)
        monkeypatch.setattr(selection, "lp_distances",
                            lambda *a: queries.append(a) or lp_distances(*a))
        # the other kinds never read the labeled rows: None stands in for them
        labeled_X = self.labeled_X if reads else None
        chosen, _ = select(self.pool, self.model, labeled_X, SelectorConfig(kind=kind), 10,
                           rng=np.random.default_rng(0))
        assert len(chosen) == 10
        if reads:
            assert len(embedded) == 1 and embedded[0] is self.labeled_X
            assert len(queries) == 1
        else:
            assert embedded == [] and queries == []

    def test_lp_only_scores_distance(self, monkeypatch):
        full = score_pool(self.pool, self.model, self.labeled_X,
                          SelectorConfig())
        calls = []
        monkeypatch.setattr(selection, "lp_distances",
                            lambda *a: calls.append(a) or lp_distances(*a))
        cfg = SelectorConfig(kind="lp_only")
        chosen, scores = select(self.pool, self.model, self.labeled_X, cfg, 10)
        assert len(calls) == 1
        assert np.array_equal(scores.lp_distance, full.lp_distance)
        assert chosen == selection_oracle(full, cfg, 10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SelectorConfig(kind="entropy")
        with pytest.raises(ValueError):
            SelectorConfig(p_norm=0.5)
        with pytest.raises(ValueError):
            SelectorConfig(alpha=0, beta=0, gamma=0)

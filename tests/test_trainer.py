import numpy as np
import pytest

from driftal.augment import MODES, AugmentConfig
from driftal.cli import setup_from_config
from driftal.losses import LossConfig, supervised_ce
from driftal.net import NumericError, Optimizer
from driftal.trainer import (
    TrainConfig,
    build_model,
    sample_minibatches,
    step_loss_and_grads,
    train,
)


def toy_separable(n=200, d=8, seed=0):
    """Linearly separable: class = majority vote of the first 3 bits."""
    rng = np.random.default_rng(seed)
    X = (rng.random((n, d)) < 0.5).astype(np.uint8)
    y = (X[:, :3].sum(axis=1) >= 2).astype(np.int64)
    return X, y


class TestMinibatches:
    def cfg(self, lb=3, ub=3):
        return TrainConfig(labeled_batch=lb, unlabeled_batch=ub, hidden=(4,))

    def test_partition_sizes(self):
        rng = np.random.default_rng(0)
        sizes = [len(l) for l, _ in sample_minibatches(10, 0, self.cfg(), rng)]
        assert sizes == [3, 3, 3, 1]

    def test_same_seed_same_batches(self):
        a = [(l.tolist(), u.tolist()) for l, u in
             sample_minibatches(10, 7, self.cfg(), np.random.default_rng(5))]
        b = [(l.tolist(), u.tolist()) for l, u in
             sample_minibatches(10, 7, self.cfg(), np.random.default_rng(5))]
        assert a == b

    def test_labeled_multiset_union(self):
        rng = np.random.default_rng(1)
        seen = []
        for l, _ in sample_minibatches(10, 4, self.cfg(), rng):
            seen.extend(l.tolist())
        assert sorted(seen) == list(range(10))

    def test_unlabeled_batches_full_size(self):
        rng = np.random.default_rng(2)
        for _, u in sample_minibatches(10, 4, self.cfg(ub=6), rng):
            assert len(u) == 6

    def test_unlabeled_order_reshuffled_on_wrap(self):
        # 4 batches of 6 draws from 4 unlabeled rows: 6 full passes, wrapping
        # mid-batch, each a fresh permutation
        rng = np.random.default_rng(3)
        drawn = np.concatenate([u for _, u in
                                sample_minibatches(12, 4, self.cfg(ub=6), rng)])
        passes = drawn.reshape(6, 4).tolist()
        assert all(sorted(p) == [0, 1, 2, 3] for p in passes)
        assert any(p != q for p, q in zip(passes, passes[1:]))


class TestTrain:
    def small_cfg(self, **kw):
        defaults = dict(epochs=5, labeled_batch=16, unlabeled_batch=16,
                        hidden=(16, 8))
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_supervised_degenerate_matches_reference_loop(self):
        """No unlabeled data + lambda_con=0 is plain supervised CE training."""
        X, y = toy_separable()
        cfg = self.small_cfg(loss=LossConfig(lambda_con=0.0), epochs=3)
        model, _ = train(build_model(8, cfg, 0), (X, y), np.zeros((0, 8)), cfg, 0)

        ref = build_model(8, cfg, 0)
        rng = np.random.default_rng(0)
        opt = Optimizer(learning_rate=cfg.learning_rate)
        for _ in range(cfg.epochs):
            for lab, _u in sample_minibatches(len(X), 0, cfg, rng):
                _, probs, _, cache = ref.forward_batch(X[lab])
                _, d_logits = supervised_ce(probs, y[lab])
                opt.step(ref, ref.backward_batch(cache, d_logits))
        assert np.allclose(model.theta, ref.theta, atol=1e-12)

    def test_separable_set_fits(self):
        X, y = toy_separable()
        cfg = self.small_cfg(epochs=50)
        model, report = train(build_model(8, cfg, 0), (X, y), np.zeros((0, 8)), cfg, 0)
        acc = (model.predict_batch(X).argmax(axis=1) == y).mean()
        assert acc >= 0.99
        assert len(report.epoch_losses) == 50

    def test_reproducibility(self):
        X, y = toy_separable()
        Xu = toy_separable(seed=9)[0]
        cfg = self.small_cfg()
        m1, _ = train(build_model(8, cfg, 0), (X, y), Xu, cfg, 0)
        m2, _ = train(build_model(8, cfg, 0), (X, y), Xu, cfg, 0)
        assert (m1.theta == m2.theta).all()

    def test_unreachable_threshold_equals_no_unsup_term(self):
        X, y = toy_separable()
        Xu = toy_separable(seed=9)[0]
        strict = self.small_cfg(loss=LossConfig(confidence_threshold=1.0))
        off = self.small_cfg(loss=LossConfig(lambda_u=0.0))
        m1, r1 = train(build_model(8, strict, 0), (X, y), Xu, strict, 0)
        m2, _ = train(build_model(8, off, 0), (X, y), Xu, off, 0)
        # probabilities never hit 1.0 exactly on this short run
        assert all(b.confident_count == 0 for b in r1.epoch_losses)
        assert (m1.theta == m2.theta).all()

    def test_confident_fraction_grows_on_separable_set(self):
        X, y = toy_separable(400)
        Xu, _ = toy_separable(400, seed=7)
        cfg = self.small_cfg(epochs=30)
        _, report = train(build_model(8, cfg, 0), (X, y), Xu, cfg, 0)
        assert report.confident_fraction[-1] > report.confident_fraction[0]

    def test_dimension_mismatch(self):
        cfg = self.small_cfg()
        X, y = toy_separable(d=8)
        with pytest.raises(ValueError):
            train(build_model(12, cfg, 0), (X, y), np.zeros((0, 8)), cfg, 0)

    def test_empty_labeled_rejected(self):
        cfg = self.small_cfg()
        with pytest.raises(ValueError):
            train(build_model(8, cfg, 0), (np.zeros((0, 8)), []), np.zeros((0, 8)),
                  cfg, 0)

    def test_report_serializes(self):
        X, y = toy_separable(50)
        cfg = self.small_cfg(epochs=2)
        _, report = train(build_model(8, cfg, 0), (X, y), np.zeros((0, 8)), cfg, 0)
        d = report.to_dict()
        assert len(d["epoch_losses"]) == 2
        assert d["seed"] == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(labeled_batch=0)

    def test_ssl_uses_unlabeled_data(self):
        # with unlabeled data and augmentation the trajectory must differ
        # from the purely supervised one
        X, y = toy_separable()
        Xu, _ = toy_separable(seed=9)
        cfg = self.small_cfg(augment=AugmentConfig(weak_prob=0.01, strong_prob=0.1),
                             loss=LossConfig(confidence_threshold=0.6))
        m1, r1 = train(build_model(8, cfg, 0), (X, y), Xu, cfg, 0)
        m2, _ = train(build_model(8, cfg, 0), (X, y), np.zeros((0, 8)), cfg, 0)
        assert sum(b.confident_count for b in r1.epoch_losses) > 0
        assert not np.allclose(m1.theta, m2.theta)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("empty", [np.zeros((0, 8)), []], ids=["zeros", "list"])
    def test_empty_pool_is_the_loop_without_views(self, mode, empty):
        # views of an empty pool draw no random numbers, so training on one is,
        # bit for bit, the loop that skips the views
        X, y = toy_separable()
        cfg = self.small_cfg(epochs=3, augment=AugmentConfig(mode=mode))
        model, report = train(build_model(8, cfg, 0), (X, y), empty, cfg, 0)

        ref = build_model(8, cfg, 0)
        rng = np.random.default_rng(0)
        opt = Optimizer(learning_rate=cfg.learning_rate)
        no_rows = np.zeros((0, 8), dtype=np.uint8)
        for _ in range(cfg.epochs):
            for lab, _u in sample_minibatches(len(X), 0, cfg, rng):
                _, grad = step_loss_and_grads(ref, X[lab].astype(np.float64), y[lab],
                                              no_rows, no_rows, cfg.loss)
                opt.step(ref, grad)
        assert model.theta.tobytes() == ref.theta.tobytes()
        assert report.confident_fraction == [0.0] * cfg.epochs

    # the forward pass over the weights of about 1e308 that epoch 0 leaves
    # overflows: train's errstate raises it, named, before the loss goes NaN
    def test_non_finite_loss_names_epoch_and_step(self):
        config = {"generator": {"dim": 20, "months": 4, "samples_per_month_per_class": 25},
                  "split": {"train_months": 2},
                  "train": {"epochs": 2, "hidden": [8], "learning_rate": 1e308}}
        exp = setup_from_config(config, streams=False)  # 1 step per epoch
        problem = "^epoch 1: step 0: overflow encountered in matmul$"
        with pytest.raises(NumericError, match=problem):
            exp.initial_fit(0)

    def test_overflowing_unsup_weight_raises_numeric_error(self):
        # the first confident step's gradient is too large for Adam to square
        X, y = toy_separable()
        Xu, _ = toy_separable(seed=9)
        cfg = self.small_cfg(loss=LossConfig(lambda_u=1e308, confidence_threshold=0.5))
        problem = "^epoch 0: step 0: gradient entry not finite or too large for Adam"
        with pytest.raises(NumericError, match=problem):
            train(build_model(8, cfg, 0), (X, y), Xu, cfg, 0)

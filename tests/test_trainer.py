import numpy as np
import pytest

from driftal.augment import AugmentConfig
from driftal.losses import LossConfig, supervised_ce
from driftal.net import Optimizer
from driftal.trainer import (
    TrainConfig,
    build_model,
    sample_minibatches,
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


class TestTrain:
    def small_cfg(self, **kw):
        defaults = dict(epochs=5, labeled_batch=16, unlabeled_batch=16,
                        hidden=(16, 8), seed=0)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_supervised_degenerate_matches_reference_loop(self):
        """No unlabeled data + lambda_con=0 is plain supervised CE training."""
        X, y = toy_separable()
        cfg = self.small_cfg(loss=LossConfig(lambda_con=0.0), epochs=3)
        model, _ = train(build_model(8, cfg), (X, y), np.zeros((0, 8)), cfg)

        ref = build_model(8, cfg)
        rng = np.random.default_rng(cfg.seed)
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
        model, report = train(build_model(8, cfg), (X, y), np.zeros((0, 8)), cfg)
        acc = (model.predict_batch(X).argmax(axis=1) == y).mean()
        assert acc >= 0.99
        assert len(report.epoch_losses) == 50

    def test_reproducibility(self):
        X, y = toy_separable()
        Xu = toy_separable(seed=9)[0]
        cfg = self.small_cfg()
        m1, _ = train(build_model(8, cfg), (X, y), Xu, cfg)
        m2, _ = train(build_model(8, cfg), (X, y), Xu, cfg)
        assert (m1.theta == m2.theta).all()

    def test_unreachable_threshold_equals_no_unsup_term(self):
        X, y = toy_separable()
        Xu = toy_separable(seed=9)[0]
        strict = self.small_cfg(loss=LossConfig(confidence_threshold=1.0))
        off = self.small_cfg(loss=LossConfig(lambda_u=0.0))
        m1, r1 = train(build_model(8, strict), (X, y), Xu, strict)
        m2, _ = train(build_model(8, off), (X, y), Xu, off)
        # probabilities never hit 1.0 exactly on this short run
        assert all(b.confident_count == 0 for b in r1.epoch_losses)
        assert (m1.theta == m2.theta).all()

    def test_confident_fraction_grows_on_separable_set(self):
        X, y = toy_separable(400)
        Xu, _ = toy_separable(400, seed=7)
        cfg = self.small_cfg(epochs=30)
        _, report = train(build_model(8, cfg), (X, y), Xu, cfg)
        assert report.confident_fraction[-1] > report.confident_fraction[0]

    def test_dimension_mismatch(self):
        cfg = self.small_cfg()
        X, y = toy_separable(d=8)
        with pytest.raises(ValueError):
            train(build_model(12, cfg), (X, y), np.zeros((0, 8)), cfg)

    def test_empty_labeled_rejected(self):
        cfg = self.small_cfg()
        with pytest.raises(ValueError):
            train(build_model(8, cfg), (np.zeros((0, 8)), []), np.zeros((0, 8)), cfg)

    def test_report_serializes(self):
        X, y = toy_separable(50)
        cfg = self.small_cfg(epochs=2)
        _, report = train(build_model(8, cfg), (X, y), np.zeros((0, 8)), cfg)
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
        m1, r1 = train(build_model(8, cfg), (X, y), Xu, cfg)
        m2, _ = train(build_model(8, cfg), (X, y), np.zeros((0, 8)), cfg)
        assert sum(b.confident_count for b in r1.epoch_losses) > 0
        assert not np.allclose(m1.theta, m2.theta)

import warnings

import numpy as np
import pytest

from driftal.losses import (
    LossConfig,
    consistency_loss,
    supervised_ce,
    supervised_contrastive,
    total_loss,
)
from driftal.net import NumericError, softmax


def contrastive_oracle(embeddings, labels, temperature):
    """Direct double-loop evaluation of the contrastive definition."""
    Z = np.asarray(embeddings, float)
    Z = Z / np.linalg.norm(Z, axis=1, keepdims=True)
    n = len(Z)
    total = 0.0
    for i in range(n):
        pos = [p for p in range(n) if p != i and labels[p] == labels[i]]
        if not pos:
            continue
        inner = 0.0
        for p in pos:
            denom = sum(
                np.exp(Z[i] @ Z[a] / temperature) for a in range(n) if a != i
            )
            inner += np.log(np.exp(Z[i] @ Z[p] / temperature) / denom)
        total += -inner / len(pos)
    return total / n


class TestSupervisedCE:
    def test_perfect_prediction(self):
        loss, _ = supervised_ce(np.array([[1.0, 0.0]]), [0])
        assert loss < 1e-9

    def test_uniform_prediction(self):
        loss, _ = supervised_ce(np.array([[0.5, 0.5]]), [1])
        assert np.isclose(loss, np.log(2))

    def test_batch_mean_oracle(self):
        probs = np.array([[0.9, 0.1], [0.3, 0.7], [0.6, 0.4]])
        labels = [0, 1, 1]
        expected = -(np.log(0.9) + np.log(0.7) + np.log(0.4)) / 3
        loss, _ = supervised_ce(probs, labels)
        assert np.isclose(loss, expected)

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="^supervised_ce on empty batch$"):
            supervised_ce(np.zeros((0, 2)), [])

    @pytest.mark.parametrize("labels", [[1], 1, [[0], [1], [1]]],
                             ids=["one-label", "scalar", "column"])
    def test_labels_not_one_per_row(self, labels):
        # numpy would broadcast these labels over the rows and return a loss
        with pytest.raises(ValueError, match="for 3 rows of probs"):
            supervised_ce(np.array([[0.9, 0.1], [0.3, 0.7], [0.6, 0.4]]), labels)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 2))
        labels = rng.integers(0, 2, 5)
        _, grad = supervised_ce(softmax(logits), labels)
        eps = 1e-6
        for i in range(5):
            for j in range(2):
                up, dn = logits.copy(), logits.copy()
                up[i, j] += eps
                dn[i, j] -= eps
                lp, _ = supervised_ce(softmax(up), labels)
                lm, _ = supervised_ce(softmax(dn), labels)
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - grad[i, j]) < 1e-7


class TestConsistency:
    def test_all_below_threshold(self):
        weak = np.full((3, 2), 0.5)
        weak[:, 0] = 0.9
        weak[:, 1] = 0.1
        loss, count, grad = consistency_loss(weak, np.full((3, 2), 0.5), 0.95)
        assert loss == 0 and count == 0
        assert not grad.any()

    def test_empty_batch(self):
        # the sum over no rows is divided by no rows: it must not become 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, count, grad = consistency_loss(np.zeros((0, 2)), np.zeros((0, 2)), 0.95)
        assert type(loss) is float and loss == 0.0
        assert type(count) is int and count == 0
        assert grad.shape == (0, 2) and grad.dtype == np.float64

    def test_one_weak_row_for_many_strong_rows(self):
        # numpy would broadcast the one pseudo-label over every strong row
        with pytest.raises(ValueError, match="length mismatch"):
            consistency_loss(np.array([[0.99, 0.01]]), np.full((3, 2), 0.5), 0.95)

    def test_single_confident_sample(self):
        weak = np.array([[0.96, 0.04]])
        loss, count, _ = consistency_loss(weak, np.array([[0.96, 0.04]]), 0.95)
        assert count == 1
        assert np.isclose(loss, -np.log(0.96))

    def test_divides_by_total_batch(self):
        weak = np.array([[0.99, 0.01], [0.99, 0.01], [0.6, 0.4], [0.6, 0.4]])
        strong = np.array([[0.8, 0.2]] * 4)
        loss, count, _ = consistency_loss(weak, strong, 0.95)
        assert count == 2
        assert np.isclose(loss, 2 * -np.log(0.8) / 4)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        weak = softmax(rng.normal(scale=2, size=(20, 2)))
        strong = softmax(rng.normal(size=(20, 2)))
        losses = [consistency_loss(weak, strong, t)[0]
                  for t in (0.5, 0.7, 0.9, 0.95, 0.99)]
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(2)
        weak = softmax(rng.normal(scale=2, size=(6, 2)))
        logits = rng.normal(size=(6, 2))
        _, _, grad = consistency_loss(weak, softmax(logits), 0.7)
        eps = 1e-6
        for i in range(6):
            for j in range(2):
                up, dn = logits.copy(), logits.copy()
                up[i, j] += eps
                dn[i, j] -= eps
                fd = (consistency_loss(weak, softmax(up), 0.7)[0]
                      - consistency_loss(weak, softmax(dn), 0.7)[0]) / (2 * eps)
                assert abs(fd - grad[i, j]) < 1e-7


class TestContrastive:
    def test_identical_same_label_pair(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        loss, _ = supervised_contrastive(z, [0, 0], 0.07)
        assert abs(loss) < 1e-12

    def test_no_positives(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, grad = supervised_contrastive(z, [0, 1], 0.07)
        assert loss == 0
        assert not grad.any()

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(4, 5))
        labels = [0, 0, 1, 1]
        loss, _ = supervised_contrastive(z, labels, 0.07)
        assert abs(loss - contrastive_oracle(z, labels, 0.07)) < 1e-10

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 1, 0], [1], [[0], [1], [1]]])
    def test_labels_not_one_per_row_raise(self, labels):
        # no check of its own: numpy cannot broadcast the label grid over the rows
        with pytest.raises((IndexError, ValueError)):
            supervised_contrastive(np.ones((3, 4)), labels, 0.1)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="^contrastive loss needs at least 2 samples$"):
            supervised_contrastive(np.ones((1, 3)), [0], 0.07)

    def test_permutation_and_relabel_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(6, 4))
        labels = np.array([0, 1, 0, 1, 1, 0])
        base, _ = supervised_contrastive(z, labels, 0.1)
        perm = rng.permutation(6)
        permuted, _ = supervised_contrastive(z[perm], labels[perm], 0.1)
        swapped, _ = supervised_contrastive(z, 1 - labels, 0.1)
        assert np.isclose(base, permuted)
        assert np.isclose(base, swapped)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(5, 3))
        labels = [0, 0, 1, 1, 0]
        _, grad = supervised_contrastive(z, labels, 0.2)
        eps = 1e-6
        for i in range(5):
            for j in range(3):
                up, dn = z.copy(), z.copy()
                up[i, j] += eps
                dn[i, j] -= eps
                lp, _ = supervised_contrastive(up, labels, 0.2)
                lm, _ = supervised_contrastive(dn, labels, 0.2)
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - grad[i, j]) / max(abs(fd), abs(grad[i, j]), 1e-8) < 1e-5


class TestTotalLoss:
    def test_arithmetic(self):
        cfg = LossConfig(lambda_u=1.0, lambda_con=0.5)
        bd = total_loss(1.0, 2.0, 4.0, cfg)
        assert bd.total == 5.0

    def test_lambda_con_zero_recovers_two_term_objective(self):
        cfg = LossConfig(lambda_con=0.0)
        bd = total_loss(1.0, 2.0, 99.0, cfg)
        assert bd.total == 1.0 + cfg.lambda_u * 2.0

    def test_default_weights(self):
        cfg = LossConfig()
        assert cfg.confidence_threshold == 0.95
        assert cfg.lambda_u == 1.0
        assert cfg.lambda_con == 0.5

    def test_breakdown_identity(self):
        cfg = LossConfig(lambda_u=0.7, lambda_con=0.3)
        bd = total_loss(0.5, 1.5, 2.5, cfg, confident_count=3)
        assert abs(bd.total - (bd.sup + 0.7 * bd.unsup + 0.3 * bd.con)) < 1e-9
        assert bd.confident_count == 3

    def test_doubling_lambda_con_doubles_contribution(self):
        lo = total_loss(1.0, 1.0, 2.0, LossConfig(lambda_con=0.25))
        hi = total_loss(1.0, 1.0, 2.0, LossConfig(lambda_con=0.5))
        assert np.isclose(hi.total - hi.sup - hi.unsup,
                          2 * (lo.total - lo.sup - lo.unsup))

    def test_nonfinite_rejected(self):
        with pytest.raises(FloatingPointError):
            total_loss(np.nan, 0.0, 0.0, LossConfig())

    @pytest.mark.parametrize("terms,cfg", [
        ((1.0, np.inf, 0.0), LossConfig(lambda_u=0.0)),  # inf * 0 is nan
        ((0.5, 0.0, 10.0), LossConfig(lambda_con=1e308)),  # finite terms, inf total
    ])
    def test_non_finite_total_names_terms(self, terms, cfg):
        problem = "^non-finite total loss: sup {}, unsup {}, con {}$".format(*terms)
        with pytest.raises(NumericError, match=problem):
            total_loss(*terms, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(confidence_threshold=0.0)
        with pytest.raises(ValueError):
            LossConfig(lambda_u=-1)
        with pytest.raises(ValueError):
            LossConfig(contrastive_temperature=0.0)

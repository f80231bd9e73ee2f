"""The in-place training step against plain reference formulas.

The references below are the straightforward, allocate-as-you-go forms of
the softmax, the three loss terms, the forward and backward passes, the
bit-flip and mask draws and Adam. The library computes the same
floating-point operations in the same order with fewer temporaries, so
every output must match bit for bit (compared as bytes, which also tells
``-0.0`` from ``0.0``), and no array argument may change.
"""

import numpy as np
import pytest

from driftal import augment as aug
from driftal.losses import (
    LossConfig,
    consistency_loss,
    supervised_ce,
    supervised_contrastive,
)
from driftal.net import Classifier, Optimizer, softmax
from driftal.trainer import step_loss_and_grads

BATCHES = 240


def ref_softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def ref_supervised_ce(probs, labels):
    n = len(probs)
    picked = np.clip(probs[np.arange(n), labels], 1e-12, 1.0)
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels] = 1.0
    return float(-np.log(picked).mean()), (probs - onehot) / n


def ref_consistency_loss(weak_probs, strong_probs, threshold):
    n = len(weak_probs)
    conf_mask = weak_probs.max(axis=1) >= threshold
    pseudo = weak_probs.argmax(axis=1)
    picked = np.clip(strong_probs[np.arange(n), pseudo], 1e-12, 1.0)
    loss = float((-np.log(picked) * conf_mask).sum() / n)
    onehot = np.zeros_like(strong_probs)
    onehot[np.arange(n), pseudo] = 1.0
    return loss, int(conf_mask.sum()), conf_mask[:, None] * (strong_probs - onehot) / n


def ref_supervised_contrastive(E, labels, t):
    n = len(E)
    norms = np.maximum(np.linalg.norm(E, axis=1, keepdims=True), 1e-12)
    Z = E / norms
    S = (Z @ Z.T) / t
    np.fill_diagonal(S, -np.inf)
    pos = (labels[:, None] == labels[None, :]) & ~np.eye(n, dtype=bool)
    pos_counts = pos.sum(axis=1)
    valid = pos_counts > 0
    row_max = S.max(axis=1, keepdims=True)
    expS = np.exp(S - row_max)
    denom = expS.sum(axis=1, keepdims=True)
    log_prob = (S - row_max) - np.log(denom)
    pos_log_prob = np.where(pos, log_prob, 0.0)
    per_anchor = np.zeros(n)
    per_anchor[valid] = -pos_log_prob[valid].sum(axis=1) / pos_counts[valid]
    soft = expS / denom
    G = np.zeros_like(S)
    G[valid] = (soft[valid] - pos[valid] / pos_counts[valid, None]) / n
    np.fill_diagonal(G, 0.0)
    dZ = ((G + G.T) @ Z) / t
    return float(per_anchor.sum() / n), (dZ - (dZ * Z).sum(axis=1, keepdims=True) * Z) / norms


def ref_forward(model, X):
    X = np.asarray(X, dtype=np.float64)
    last = len(model.weights) - 1
    inputs, pres, a = [], [], X
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(a)
        pre = a @ w.T + b
        pres.append(pre)
        a = np.maximum(pre, 0.0) if i < last else pre
    return a, ref_softmax(a), inputs[-1], {"inputs": inputs, "pres": pres}


def ref_backward(model, cache, d_logits, d_embedding=None):
    grad = np.empty_like(model.theta)
    d_weights, d_biases = model.layer_views(grad)
    last = len(model.weights) - 1
    delta = d_logits
    for i in range(last, -1, -1):
        if i < last:
            delta = delta * (cache["pres"][i] > 0)
        np.matmul(delta.T, cache["inputs"][i], out=d_weights[i])
        delta.sum(axis=0, out=d_biases[i])
        if i > 0:
            delta = delta @ model.weights[i]
            if d_embedding is not None and i == last:
                delta = delta + d_embedding
    return grad


def ref_step_grad(model, Xl, yl, Xw, Xs, cfg):
    _, probs, emb, cache = ref_forward(model, Xl)
    sup, d_logits = ref_supervised_ce(probs, yl)
    con, d_emb = ref_supervised_contrastive(emb, yl, cfg.contrastive_temperature)
    grad = ref_backward(model, cache, d_logits, cfg.lambda_con * d_emb)
    _, weak_probs, _, _ = ref_forward(model, Xw)
    _, s_probs, _, s_cache = ref_forward(model, Xs)
    unsup, count, d_s = ref_consistency_loss(weak_probs, s_probs, cfg.confidence_threshold)
    if count > 0:
        grad = grad + ref_backward(model, s_cache, cfg.lambda_u * d_s)
    return (sup, unsup, con, count), grad


def ref_adam(theta, m, v, grad, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    m = b1 * m + (1 - b1) * grad
    v = b2 * v + (1 - b2) * grad * grad
    return theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps), m, v


def ref_bit_flip(x, p, rng):
    return x ^ (rng.random(x.shape) < p).astype(np.uint8)


def ref_mask(x, q, rng):
    return x & (rng.random(x.shape) >= q).astype(np.uint8)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_batch(seed):
    """A labeled batch of n in [2, 79] embeddings: some anchors without a
    positive, some all-zero rows, scales from 1e-3 to 30."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    d = int(rng.integers(1, 17))
    E = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 30.0])
    if seed % 3 == 0:
        E = np.maximum(E, 0.0)  # ReLU outputs, as the net's embeddings are
    if seed % 4 == 0:
        E[rng.random(n) < 0.25] = 0.0
    labels = rng.integers(0, 1 + int(rng.integers(1, n)), n)
    if seed % 7 == 0:
        labels = np.arange(n)  # no anchor has a positive
    logits = rng.normal(size=(n, 2)) * rng.choice([1.0, 10.0, 100.0])
    weak = ref_softmax(rng.normal(size=(n, 2)) * 5.0)
    threshold = float(rng.choice([0.5, 0.8, 0.95]))
    return E, labels, logits, weak, threshold


@pytest.mark.parametrize("seed", range(BATCHES))
def test_losses_bit_equal_to_reference(seed):
    E, labels, logits, weak, threshold = random_batch(seed)
    probs = softmax(logits)
    assert same_bits(probs, ref_softmax(logits))
    y = labels % 2
    loss, d = supervised_ce(probs, y)
    ref_loss, ref_d = ref_supervised_ce(probs, y)
    assert same_bits(loss, ref_loss) and same_bits(d, ref_d)
    got = consistency_loss(weak, probs, threshold)
    ref = ref_consistency_loss(weak, probs, threshold)
    assert same_bits(got[0], ref[0]) and got[1] == ref[1] and same_bits(got[2], ref[2])
    for t in (0.07, 0.5):
        loss, d = supervised_contrastive(E, labels, t)
        ref_loss, ref_d = ref_supervised_contrastive(E, labels, t)
        assert same_bits(loss, ref_loss) and same_bits(d, ref_d)


@pytest.mark.parametrize("seed", range(0, BATCHES, 4))
def test_step_and_adam_bit_equal_to_reference(seed):
    rng = np.random.default_rng(10_000 + seed)
    n, d = int(rng.integers(2, 40)), int(rng.integers(1, 20))
    hidden = [int(w) for w in rng.integers(1, 12, int(rng.integers(0, 3)))]
    model = Classifier((d, *hidden, 2), seed=seed)
    cfg = LossConfig(confidence_threshold=0.5, lambda_u=0.7, lambda_con=0.3)
    Xl = (rng.random((n, d)) < 0.3).astype(np.float64)
    yl = rng.integers(0, 2, n)
    Xw, Xs = ((rng.random((2, n, d)) < 0.3)).astype(np.uint8)
    breakdown, grad = step_loss_and_grads(model, Xl, yl, Xw, Xs, cfg)
    (sup, unsup, con, count), ref_grad = ref_step_grad(model, Xl, yl, Xw, Xs, cfg)
    assert same_bits((breakdown.sup, breakdown.unsup, breakdown.con), (sup, unsup, con))
    assert breakdown.confident_count == count
    assert same_bits(grad, ref_grad)

    opt = Optimizer(learning_rate=1e-2)
    theta, m, v = model.theta.copy(), np.zeros_like(model.theta), np.zeros_like(model.theta)
    for t in range(1, 4):
        g = grad * rng.choice([1e-6, 1.0, 1e3])
        opt.step(model, g)
        theta, m, v = ref_adam(theta, m, v, g, t, 1e-2)
        assert same_bits(model.theta, theta)
        assert same_bits(opt.m, m) and same_bits(opt.v, v)


@pytest.mark.parametrize("seed", range(20))
def test_bit_flip_and_mask_bit_equal_to_reference(seed):
    rng = np.random.default_rng(seed)
    x = (rng.random((int(rng.integers(1, 30)), 17)) < 0.4).astype(np.uint8)
    p = float(rng.random())
    assert same_bits(aug.bernoulli_bit_flip(x, p, np.random.default_rng(seed)),
                     ref_bit_flip(x, p, np.random.default_rng(seed)))
    assert same_bits(aug.bernoulli_mask(x, p, np.random.default_rng(seed)),
                     ref_mask(x, p, np.random.default_rng(seed)))


# ---------------------------------------------------------------------------
# no argument is written through
# ---------------------------------------------------------------------------


def unchanged(fn, *args):
    """Call ``fn(*args)``; assert every array argument kept its bytes."""
    before = [a.copy() if isinstance(a, np.ndarray) else None for a in args]
    out = fn(*args)
    for a, b in zip(args, before):
        if b is not None:
            assert same_bits(a, b)
    return out


@pytest.mark.parametrize("seed", range(0, 40, 3))
def test_losses_leave_arguments_unchanged(seed):
    E, labels, logits, weak, threshold = random_batch(seed)
    probs = unchanged(softmax, logits)
    unchanged(supervised_ce, probs, labels % 2)
    unchanged(consistency_loss, weak, probs, threshold)
    unchanged(consistency_loss, probs, probs, threshold)  # one array for both views
    unchanged(supervised_contrastive, E, labels, 0.1)


@pytest.mark.parametrize("widths", [(5, 2), (5, 4, 2), (5, 6, 3, 2)])
def test_forward_backward_leave_arguments_unchanged(widths):
    rng = np.random.default_rng(1)
    model = Classifier(widths, seed=2)
    X = rng.random((6, 5))
    logits, probs, emb, cache = unchanged(model.forward_batch, X)
    saved = {k: [a.copy() for a in cache[k]] for k in ("inputs", "pres")}
    d_logits = rng.normal(size=(6, 2))
    d_emb = rng.normal(size=emb.shape)
    unchanged(model.backward_batch, cache, d_logits, d_emb)
    unchanged(model.backward_batch, cache, d_logits)
    for k, arrays in saved.items():
        assert all(same_bits(a, b) for a, b in zip(cache[k], arrays))


def test_adam_leaves_gradient_unchanged():
    model = Classifier((3, 4, 2), seed=0)
    opt = Optimizer()
    grad = np.random.default_rng(0).normal(size=model.theta.shape)
    for _ in range(3):
        unchanged(opt.step, model, grad)

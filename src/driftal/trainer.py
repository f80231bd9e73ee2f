"""Semi-supervised training loop.

Each step draws a labeled minibatch and an unlabeled minibatch, builds
weak and strong views of the unlabeled samples, and applies one combined
optimizer update for the supervised, consistency, and contrastive terms.
Pseudo-labels are recomputed from the current model at every step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import augment as aug
from .config import check_fields, checked
from .losses import (
    LossBreakdown,
    LossConfig,
    consistency_loss,
    supervised_ce,
    supervised_contrastive,
    total_loss,
)
from .net import Classifier, NumericError, Optimizer


@dataclass
class TrainConfig:
    epochs: int = checked(50, int, minimum=1)
    labeled_batch: int = checked(64, int, minimum=1)
    unlabeled_batch: int = checked(64, int, minimum=1)
    loss: LossConfig = field(default_factory=LossConfig)
    augment: aug.AugmentConfig = field(default_factory=aug.AugmentConfig)
    learning_rate: float = checked(1e-3, float, above=0)
    hidden: tuple = checked((512, 128), int, minimum=1)
    seed: int = checked(0, int, minimum=0)

    def __post_init__(self):
        check_fields(self)


@dataclass
class TrainReport:
    epoch_losses: list  # LossBreakdown per epoch (step averages)
    confident_fraction: list  # fraction of pseudo-labels passing the threshold
    seconds: float
    seed: int

    def to_dict(self):
        return {
            "epoch_losses": [vars(b) for b in self.epoch_losses],
            "confident_fraction": self.confident_fraction,
            "seconds": self.seconds,
            "seed": self.seed,
        }


def build_model(input_dim, cfg):
    """Fresh classifier with the configured hidden sizes and seed."""
    return Classifier((input_dim, *cfg.hidden, 2), seed=cfg.seed)


def sample_minibatches(n_labeled, n_unlabeled, cfg, rng):
    """One epoch of (labeled_idx, unlabeled_idx) batches.

    The labeled set is shuffled and partitioned so every sample appears
    exactly once; unlabeled indices are drawn cyclically with reshuffles.
    """
    if n_labeled == 0:
        raise ValueError("labeled set must be nonempty")
    order = rng.permutation(n_labeled)
    u_order = rng.permutation(n_unlabeled) if n_unlabeled else np.array([], dtype=int)
    u_pos = 0
    for start in range(0, n_labeled, cfg.labeled_batch):
        lab = order[start : start + cfg.labeled_batch]
        if n_unlabeled == 0:
            yield lab, np.array([], dtype=int)
            continue
        take = []
        need = cfg.unlabeled_batch
        while need > 0:
            if u_pos == n_unlabeled:
                u_order = rng.permutation(n_unlabeled)
                u_pos = 0
            chunk = u_order[u_pos : u_pos + need]
            take.append(chunk)
            u_pos += len(chunk)
            need -= len(chunk)
        yield lab, np.concatenate(take)


def step_loss_and_grads(model, Xl, yl, Xw, Xs, loss_cfg):
    """Combined loss and its gradient with respect to ``model.theta``.

    ``Xw`` and ``Xs`` are the already-augmented weak and strong views of
    the unlabeled batch (possibly empty). Exposed separately from the
    training loop so gradients can be checked against finite differences.
    """
    logits, probs, emb, cache = model.forward_batch(Xl)
    sup, d_logits = supervised_ce(probs, yl)

    con = 0.0
    d_emb = None
    if loss_cfg.lambda_con > 0 and len(Xl) >= 2:
        con, d_emb = supervised_contrastive(
            emb, yl, loss_cfg.contrastive_temperature
        )
        d_emb *= loss_cfg.lambda_con
    grad = model.backward_batch(cache, d_logits, d_embedding=d_emb)

    unsup = 0.0
    count = 0
    if len(Xw) > 0 and loss_cfg.lambda_u > 0:
        weak_probs = model.predict_batch(Xw)
        _, s_probs, _, s_cache = model.forward_batch(Xs)
        unsup, count, d_s = consistency_loss(
            weak_probs, s_probs, loss_cfg.confidence_threshold
        )
        if count > 0:
            d_s *= loss_cfg.lambda_u
            grad += model.backward_batch(s_cache, d_s)
    breakdown = total_loss(sup, unsup, con, loss_cfg, confident_count=count)
    return breakdown, grad


def train(model, labeled, unlabeled, cfg):
    """Run the full semi-supervised loop for ``cfg.epochs`` epochs.

    ``labeled`` is an (X, y) pair of arrays; ``unlabeled`` is an array of
    feature rows (may be empty, which degrades to supervised training).
    Returns the trained model and a TrainReport.
    """
    Xl, yl = labeled
    Xl = np.asarray(Xl, dtype=np.float64)
    yl = np.asarray(yl, dtype=np.int64)
    Xu = np.asarray(unlabeled, dtype=np.uint8) if len(unlabeled) else np.zeros((0, 0))
    if len(Xl) == 0:
        raise ValueError("labeled set must be nonempty")
    if Xl.shape[1] != model.input_dim:
        raise ValueError(
            f"feature dim {Xl.shape[1]} does not match model input {model.input_dim}"
        )
    rng = np.random.default_rng(cfg.seed)
    opt = Optimizer(learning_rate=cfg.learning_rate)
    t0 = time.perf_counter()
    epoch_losses = []
    conf_fracs = []
    for epoch in range(cfg.epochs):
        sums = np.zeros(4)
        n_conf = 0
        n_unlab = 0
        n_steps = 0
        for lab_idx, u_idx in sample_minibatches(len(Xl), len(Xu), cfg, rng):
            Bu = Xu[u_idx] if len(u_idx) else np.zeros((0, Xl.shape[1]), dtype=np.uint8)
            Xw = aug.weak_view(Bu, cfg.augment, rng) if len(Bu) else Bu
            Xs = aug.strong_view(Bu, cfg.augment, rng) if len(Bu) else Bu
            breakdown, grad = step_loss_and_grads(
                model, Xl[lab_idx], yl[lab_idx], Xw, Xs, cfg.loss
            )
            if not np.isfinite(breakdown.total):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, step {n_steps}"
                )
            opt.step(model, grad)
            sums += (breakdown.sup, breakdown.unsup, breakdown.con, breakdown.total)
            n_conf += breakdown.confident_count
            n_unlab += len(Bu)
            n_steps += 1
        avg = sums / n_steps
        epoch_losses.append(
            LossBreakdown(
                sup=avg[0], unsup=avg[1], con=avg[2], total=avg[3],
                confident_count=n_conf,
            )
        )
        conf_fracs.append(n_conf / n_unlab if n_unlab else 0.0)
    report = TrainReport(
        epoch_losses=epoch_losses,
        confident_fraction=conf_fracs,
        seconds=time.perf_counter() - t0,
        seed=cfg.seed,
    )
    return model, report

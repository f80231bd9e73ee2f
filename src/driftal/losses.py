"""The three training loss terms and their weighted combination.

Supervised cross-entropy on labeled batches, confidence-thresholded
consistency between weak and strong views of unlabeled batches, and a
temperature-scaled supervised contrastive loss on labeled embeddings.
Every loss returns both its value and an analytic gradient so the trainer
never needs numeric differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import check_fields, checked
from .net import NumericError

_CLAMP = 1e-12


@dataclass(frozen=True)
class LossConfig:
    confidence_threshold: float = checked(0.95, float, above=0, maximum=1)
    lambda_u: float = checked(1.0, float, minimum=0)
    lambda_con: float = checked(0.5, float, minimum=0)
    contrastive_temperature: float = checked(0.07, float, above=0)

    def __post_init__(self):
        check_fields(self)


@dataclass
class LossBreakdown:
    sup: float
    unsup: float
    con: float
    total: float
    confident_count: int


def supervised_ce(probs, labels):
    """Mean cross-entropy over the batch.

    Returns (loss, d_logits) where d_logits is the gradient w.r.t. the
    logits that produced ``probs`` via softmax.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(probs) == 0:
        raise ValueError("supervised_ce on empty batch")
    if labels.shape != (len(probs),):
        raise ValueError(f"labels of shape {labels.shape} for {len(probs)} rows of probs")
    n = len(probs)
    rows = np.arange(n)
    picked = np.clip(probs[rows, labels], _CLAMP, 1.0)
    loss = float(-np.log(picked).mean())
    d_logits = probs.copy()  # probs minus the one-hot targets, over n
    d_logits[rows, labels] -= 1.0
    d_logits /= n
    return loss, d_logits


def consistency_loss(weak_probs, strong_probs, threshold):
    """FixMatch-style pseudo-label consistency term.

    Samples whose weak-view max probability reaches the threshold
    contribute CE between the strong-view prediction and the weak-view
    argmax; the sum is divided by the TOTAL unlabeled batch size, not by
    the confident count. The pseudo-label carries no gradient.

    Returns (loss, confident_count, d_strong_logits), the gradient taken
    w.r.t. the logits that produced ``strong_probs`` via softmax.
    """
    weak_probs = np.asarray(weak_probs, dtype=np.float64)
    strong_probs = np.asarray(strong_probs, dtype=np.float64)
    if len(weak_probs) != len(strong_probs):
        raise ValueError("weak/strong batch length mismatch")
    n = len(weak_probs)
    if n == 0:
        return 0.0, 0, np.zeros_like(strong_probs)
    conf_mask = weak_probs.max(axis=1) >= threshold
    count = int(conf_mask.sum())
    pseudo = weak_probs.argmax(axis=1)
    rows = np.arange(n)
    picked = np.clip(strong_probs[rows, pseudo], _CLAMP, 1.0)
    loss = float((-np.log(picked) * conf_mask).sum() / n)
    d_logits = strong_probs.copy()  # mask * (probs minus one-hot pseudo-labels), over n
    d_logits[rows, pseudo] -= 1.0
    d_logits *= conf_mask[:, None]
    d_logits /= n
    return loss, count, d_logits


def supervised_contrastive(embeddings, labels, temperature):
    """Temperature-scaled contrastive loss over labeled embeddings.

    Positives for an anchor are the other same-label samples; anchors
    with no positive contribute zero. Embeddings are L2-normalized
    before the dot products.

    Returns (loss, d_embeddings) with the gradient taken w.r.t. the raw
    (pre-normalization) embeddings.
    """
    E = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(E)
    if n < 2:
        raise ValueError("contrastive loss needs at least 2 samples")
    norms = np.sqrt((E * E).sum(axis=1, keepdims=True))  # bit-equal to np.linalg.norm
    np.maximum(norms, _CLAMP, out=norms)
    Z = E / norms
    t = float(temperature)
    S = Z @ Z.T
    S /= t
    np.fill_diagonal(S, -np.inf)  # exclude the anchor from its denominator
    pos = labels[:, None] == labels[None, :]
    np.fill_diagonal(pos, False)
    pos_counts = pos.sum(axis=1)
    valid = pos_counts > 0

    # log softmax over each row's off-diagonal entries
    S -= S.max(axis=1, keepdims=True)
    expS = np.exp(S)
    denom = expS.sum(axis=1, keepdims=True)
    log_prob = S - np.log(denom)

    pos_log_prob = np.where(pos, log_prob, 0.0)  # diagonal log_prob is -inf
    counts = np.maximum(pos_counts, 1)  # an anchor without a positive adds 0
    per_anchor = np.where(valid, -pos_log_prob.sum(axis=1) / counts, 0.0)
    loss = float(per_anchor.sum() / n)

    # gradient of the similarity matrix
    soft = np.divide(expS, denom, out=expS)
    G = pos / counts[:, None]
    np.subtract(soft, G, out=G)
    G *= valid[:, None]  # zero rows for anchors without a positive
    G /= n
    np.fill_diagonal(G, 0.0)
    G += G.T
    dZ = G @ Z
    dZ /= t
    dZ -= (dZ * Z).sum(axis=1, keepdims=True) * Z
    dZ /= norms
    return loss, dZ


def total_loss(sup, unsup, con, cfg, confident_count=0):
    """Combine the three terms with the configured weights. A total that is
    not finite (a non-finite term, even one weighted by 0, makes it so)
    raises NumericError naming the three terms."""
    total = sup + cfg.lambda_u * unsup + cfg.lambda_con * con
    if not math.isfinite(total):
        raise NumericError(f"non-finite total loss: sup {sup}, unsup {unsup}, con {con}")
    return LossBreakdown(
        sup=float(sup),
        unsup=float(unsup),
        con=float(con),
        total=float(total),
        confident_count=int(confident_count),
    )

"""Informativeness scoring and budgeted sample selection.

Three per-sample criteria over the unlabeled pool: softmax margin
(boundary proximity), minimum Lp embedding distance to any labeled sample
(novelty), and raw confidence (uncertainty). Criteria are min-max
normalized across the pool and combined into a weighted hybrid score;
single-criterion and random selectors exist for ablations. Only the
selectors that rank by the distance (``multi_criteria`` and ``lp_only``)
embed the labeled rows and compute it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, check_fields, checked, typed
from .net import NumericError

SELECTOR_KINDS = (
    "multi_criteria",
    "margin_only",
    "lp_only",
    "low_confidence_only",
    "random",
)


@dataclass(frozen=True)
class SelectorConfig:
    kind: str = checked("multi_criteria", str, choices=SELECTOR_KINDS)
    alpha: float = checked(1.0, float, minimum=0)
    beta: float = checked(1.0, float, minimum=0)
    gamma: float = checked(1.0, float, minimum=0)
    p_norm: float = checked(2.0, float, minimum=1, maximum=math.inf)  # inf: max-norm
    low_confidence_cutoff: float = checked(0.75, float, minimum=0, maximum=1)

    def __post_init__(self):
        check_fields(self)
        # each criterion is normalized to [0, 1]: a finite sum bounds every hybrid
        total = self.alpha + self.beta + self.gamma
        if not math.isfinite(total):
            raise ConfigError(f"alpha: expected a finite alpha + beta + gamma, got {total!r}")
        if self.kind == "multi_criteria" and total == 0:
            raise ConfigError("alpha: expected alpha + beta + gamma > 0 for multi_criteria")


@dataclass
class SelectionScore:
    margin: np.ndarray
    lp_distance: np.ndarray
    confidence: np.ndarray
    hybrid: np.ndarray


def margin_scores(probs):
    """Gap between the two class probabilities of each row."""
    probs = np.asarray(probs, dtype=np.float64)
    return np.abs(probs[:, 0] - probs[:, 1])


def lp_distances(pool_embs, labeled_set, p_norm=2.0):
    """Exact minimum Lp distance from each pool embedding to the labeled set.

    One KD-tree nearest-neighbour query over the labeled embeddings; it is
    exact for any ``p_norm >= 1`` (including inf) and builds no pairwise
    matrix. Non-finite embeddings raise ``NumericError``. ``scipy.spatial``
    is imported here, at the first query, so that runs whose selector
    never ranks by the distance do not load it.
    """
    from scipy.spatial import cKDTree

    U = np.asarray(pool_embs, dtype=np.float64)
    L = np.asarray(labeled_set, dtype=np.float64)
    if len(L) == 0:
        raise ValueError("labeled embedding set must be nonempty")
    for name, E in (("pool", U), ("labeled", L)):
        if not np.isfinite(E).all():
            raise NumericError(f"non-finite {name} embedding")
    return cKDTree(L).query(U, k=1, p=p_norm)[0]


def confidence_scores(probs):
    """Maximum class probability per row."""
    return np.asarray(probs, dtype=np.float64).max(axis=1)


def minmax_normalize(values):
    """Scale to [0, 1]; an all-equal vector maps to all 0.5."""
    v = np.asarray(values, dtype=np.float64)
    if len(v) == 0:
        raise ValueError("cannot normalize an empty vector")
    lo, hi = v.min(), v.max()
    if hi == lo:
        return np.full_like(v, 0.5)
    return (v - lo) / (hi - lo)


def hybrid_scores(margin, lp, confidence, alpha, beta, gamma):
    """Weighted sum of normalized criteria: low margin, high distance, low confidence."""
    return (
        alpha * (1.0 - np.asarray(margin))
        + beta * np.asarray(lp)
        + gamma * (1.0 - np.asarray(confidence))
    )


def score_pool(pool_X, model, labeled_X, cfg):
    """Compute the SelectionScore bundle for an unlabeled pool.

    Only ``multi_criteria`` and ``lp_only`` embed ``labeled_X`` and compute
    the Lp distance; for the other kinds ``labeled_X`` is not read and
    ``lp_distance`` and ``hybrid`` are NaN.
    """
    probs, embs = model.infer(pool_X)
    m = margin_scores(probs)
    c = confidence_scores(probs)
    if cfg.kind in ("multi_criteria", "lp_only"):
        d = lp_distances(embs, model.embed_batch(labeled_X), cfg.p_norm)
        h = hybrid_scores(minmax_normalize(m), minmax_normalize(d),
                          minmax_normalize(c), cfg.alpha, cfg.beta, cfg.gamma)
    else:
        d = h = np.full(len(m), np.nan)
    return SelectionScore(m, d, c, h)


def _top_k(keys, k, eligible=None):
    """Indices of the k largest keys; ties broken by lower index."""
    idx = np.arange(len(keys)) if eligible is None else np.flatnonzero(eligible)
    order = idx[np.lexsort((idx, -np.asarray(keys)[idx]))]
    return list(order[:k])


def select(pool_X, model, labeled_X, cfg, budget, rng=None):
    """Pick up to ``budget`` pool indices with the configured strategy.

    ``budget`` is an int >= 0; any other value raises ConfigError. Returns
    (indices, SelectionScore or None). Scores are None only for the random
    selector, which never evaluates the model.
    """
    n = len(pool_X)
    k = typed(budget, "budget", int, minimum=0)
    if k == 0 or n == 0:
        return [], None
    if cfg.kind == "random":
        if rng is None:
            raise ValueError("random selection requires an rng")
        chosen = rng.choice(n, size=min(k, n), replace=False)
        return list(np.asarray(chosen, dtype=int)), None
    scores = score_pool(pool_X, model, labeled_X, cfg)
    if cfg.kind == "margin_only":
        return _top_k(-scores.margin, k), scores
    if cfg.kind == "lp_only":
        return _top_k(scores.lp_distance, k), scores
    if cfg.kind == "low_confidence_only":
        eligible = scores.confidence < cfg.low_confidence_cutoff
        return _top_k(-scores.confidence, k, eligible=eligible), scores
    return _top_k(scores.hybrid, k), scores  # multi_criteria


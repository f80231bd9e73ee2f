"""Monthly stream replay with budgeted labeling.

Test-then-train protocol: each month is evaluated with the current model
before any of its samples can be labeled or trained on. Selected samples
move from the unlabeled pool to the labeled set with the true labels they
carry, and the model is warm-start retrained on the updated pools.

The stream's rows (the initial labeled and unlabeled blocks, then each
month) are stacked once into one matrix, every id checked unique before
any training, and the two pools are arrays of row indices into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import selection as sel
from .config import check_fields, checked
from .data import check_unique_ids, record_arrays
from .metrics import aggregate, compute_metrics
from .trainer import TrainConfig, train


class PoolInvariantError(RuntimeError):
    """Labeled/unlabeled pool bookkeeping went inconsistent."""


@dataclass
class StreamConfig:
    budget: int = checked(50, int, minimum=0)
    selector: sel.SelectorConfig = field(default_factory=sel.SelectorConfig)
    # warm-start retrain per month; run_stream sets its seed per month
    retrain: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=10))
    seed: int = checked(0, int, minimum=0)

    def __post_init__(self):
        check_fields(self)


@dataclass
class MonthData:
    month: str
    ids: list
    X: np.ndarray
    y: np.ndarray


def months_from_dataset(dataset, months=None):
    """Split a Dataset into chronologically ordered MonthData batches."""
    out = []
    for month, records in dataset.by_month().items():
        if months is not None and month not in months:
            continue
        X, y, ids = record_arrays(records, dataset.feature_dim)
        out.append(MonthData(month, ids, X, y))
    return out


@dataclass
class StreamResult:
    monthly: list  # MonthlyMetrics, chronological
    selected_ids: list  # list of id lists, one per month
    f1_mean: float | None
    f1_std: float | None
    fnr_mean: float | None
    fnr_std: float | None
    fpr_mean: float | None
    fpr_std: float | None
    seed: int = 0

    def to_dict(self):
        return {
            "monthly": [m.to_dict() for m in self.monthly],
            "selected_ids": self.selected_ids,
            "aggregate": {
                "f1": [self.f1_mean, self.f1_std],
                "fnr": [self.fnr_mean, self.fnr_std],
                "fpr": [self.fpr_mean, self.fpr_std],
            },
            "seed": self.seed,
        }


def check_pools(lab, unl, revealed):
    """Each of the ``revealed`` stream rows sits in exactly one pool, once."""
    counts = np.bincount(np.concatenate([lab, unl]), minlength=revealed)
    if len(counts) > revealed:
        raise PoolInvariantError(f"pool row {len(counts) - 1} of {revealed} revealed")
    bad = np.flatnonzero(counts != 1)[:5]
    if len(bad):
        raise PoolInvariantError(f"rows {bad.tolist()} sit in the pools "
                                 f"{counts[bad].tolist()} times, not once")


def run_stream(model, labeled, unlabeled, months, cfg):
    """Replay the monthly stream with budget-k active labeling.

    ``labeled`` and ``unlabeled`` are (X, y, ids) blocks and ``months`` a
    chronological list of MonthData. Each month is (1) evaluated by the
    current model, (2) appended to the unlabeled pool, (3) scored, and up
    to ``budget`` pool rows picked; (4) the picked rows, in picked order and
    with their true labels, move to the end of the labeled pool, and (5) if
    any were picked the model is warm-start retrained on both pools with
    seed ``cfg.seed`` + months evaluated. Budget 0 never retrains: it is
    the static no-adaptation baseline.
    """
    blocks = [labeled, unlabeled] + [(m.X, m.y, m.ids) for m in months]
    X = np.concatenate([np.asarray(b[0], dtype=np.uint8) for b in blocks])
    y = np.concatenate([np.asarray(b[1], dtype=np.int64) for b in blocks])
    ids = [i for b in blocks for i in b[2]]
    if not len(X) == len(y) == len(ids):
        raise PoolInvariantError(f"{len(X)} rows, {len(y)} labels, {len(ids)} ids")
    check_unique_ids(ids, PoolInvariantError, "rows of both pools and the months")
    revealed = len(labeled[2]) + len(unlabeled[2])
    lab, unl = np.arange(len(labeled[2])), np.arange(len(labeled[2]), revealed)
    model, rng = model.copy(), np.random.default_rng(cfg.seed)
    monthly, selected_per_month = [], []
    for mdata in months:
        # (1) evaluate before the month's data can influence anything
        preds = model.predict_batch(mdata.X).argmax(axis=1)
        monthly.append(compute_metrics(preds, mdata.y, month=mdata.month))

        # (2) the month joins the unlabeled pool
        unl = np.concatenate([unl, np.arange(revealed, revealed + len(mdata.ids))])
        revealed += len(mdata.ids)

        # (3) score and select under the budget; only the selectors that
        # rank by the Lp distance read the labeled embeddings
        lp = sel.ranks_by_lp(cfg.selector)
        labeled_embs = model.embed_batch(X[lab]) if lp else None
        chosen, _ = sel.select(X[unl], model, labeled_embs, cfg.selector,
                               cfg.budget, rng=rng)

        # (4) the selection is labeled: its rows move with their labels
        picked = unl[chosen]
        selected_per_month.append([ids[j] for j in picked])
        lab, unl = np.concatenate([lab, picked]), np.delete(unl, chosen)
        check_pools(lab, unl, revealed)

        # (5) retrain on the updated pools
        if chosen:
            rcfg = replace(cfg.retrain, seed=cfg.seed + len(monthly))
            model, _ = train(model, (X[lab], y[lab]), X[unl], rcfg)
    stats = [s for k in ("f1", "fnr", "fpr")
             for s in aggregate([getattr(m, k) for m in monthly])]
    return StreamResult(monthly, selected_per_month, *stats, cfg.seed)


def aggregate_runs(results):
    """Mean and std of each metric across a list of StreamResults."""
    f1 = aggregate([r.f1_mean for r in results])
    fnr = aggregate([r.fnr_mean for r in results])
    fpr = aggregate([r.fpr_mean for r in results])
    return {"f1": f1, "fnr": fnr, "fpr": fpr}

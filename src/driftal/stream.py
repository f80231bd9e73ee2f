"""Monthly stream replay with budgeted labeling.

Test-then-train protocol: each month is evaluated with the current model
before any of its samples can be labeled or trained on. Selected samples
move from the unlabeled pool to the labeled set with the true labels they
carry, and the model is warm-start retrained on the updated pools.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import selection as sel
from .config import check_fields, checked
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
        X = np.stack([r.features for r in records])
        y = np.array([r.label for r in records], dtype=np.int64)
        out.append(MonthData(month, [r.id for r in records], X, y))
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


def _result(monthly, selected, seed):
    f1m, f1s = aggregate([m.f1 for m in monthly])
    fnm, fns = aggregate([m.fnr for m in monthly])
    fpm, fps = aggregate([m.fpr for m in monthly])
    return StreamResult(monthly, selected, f1m, f1s, fnm, fns, fpm, fps, seed)


class _Pool:
    """Growing labeled/unlabeled (X, y, ids) pools with id-level bookkeeping.

    Training never reads ``yu``: it is the truth that labeling reveals.
    """

    def __init__(self, labeled, unlabeled):
        Xl, yl, ids_l = labeled
        Xu, yu, ids_u = unlabeled
        self.Xl = np.asarray(Xl, dtype=np.uint8)
        self.yl = np.asarray(yl, dtype=np.int64)
        self.ids_l = list(ids_l)
        self.Xu = np.asarray(Xu, dtype=np.uint8)
        self.yu = np.asarray(yu, dtype=np.int64)
        self.ids_u = list(ids_u)

    def add_unlabeled(self, X, y, ids):
        if len(X):
            self.Xu = np.concatenate([self.Xu, X]) if len(self.Xu) else np.array(X)
            self.yu = np.concatenate([self.yu, np.asarray(y, dtype=np.int64)])
            self.ids_u.extend(ids)

    def promote(self, indices):
        """Move pool rows at ``indices``, with their labels, into the labeled set."""
        if not len(indices):
            return
        idx = np.asarray(indices, dtype=int)
        self.Xl = np.concatenate([self.Xl, self.Xu[idx]])
        self.yl = np.concatenate([self.yl, self.yu[idx]])
        self.ids_l.extend(self.ids_u[i] for i in idx)
        keep = np.ones(len(self.Xu), dtype=bool)
        keep[idx] = False
        self.Xu = self.Xu[keep]
        self.yu = self.yu[keep]
        self.ids_u = [i for i, k in zip(self.ids_u, keep) if k]

    def check(self, expected_total):
        """Rows are conserved and every id sits in the pools exactly once."""
        total = len(self.ids_l) + len(self.ids_u)
        if total != expected_total:
            raise PoolInvariantError(
                f"pool total {total} != expected {expected_total}"
            )
        set_l, set_u = set(self.ids_l), set(self.ids_u)
        overlap = set_l & set_u
        if overlap:
            raise PoolInvariantError(f"ids in both pools: {sorted(overlap)[:5]}")
        if len(set_l) + len(set_u) != total:
            raise PoolInvariantError(
                f"{total - len(set_l) - len(set_u)} repeated ids within a pool"
            )


def run_stream(model, labeled, unlabeled, months, cfg):
    """Replay the monthly stream with budget-k active labeling.

    ``labeled`` and ``unlabeled`` are (X, y, ids) blocks and ``months`` is
    a chronological list of MonthData; a selected row is labeled by moving
    its true label with it. With budget 0 (or an empty selection) the
    month is recorded and pooled but no retraining happens, which makes
    the k=0 run the static no-adaptation baseline.
    """
    pool = _Pool(labeled, unlabeled)
    model = model.copy()
    rng = np.random.default_rng(cfg.seed)
    monthly = []
    selected_per_month = []
    expected_total = len(pool.ids_l) + len(pool.ids_u)
    for mdata in months:
        # (1) evaluate before the month's data can influence anything
        preds = model.predict_batch(mdata.X).argmax(axis=1) if len(mdata.X) else []
        monthly.append(compute_metrics(preds, mdata.y, month=mdata.month))

        # (2) the month joins the unlabeled pool
        pool.add_unlabeled(mdata.X, mdata.y, mdata.ids)
        expected_total += len(mdata.ids)

        # (3) score and select under the budget; only the selectors that
        # rank by the Lp distance read the labeled embeddings
        labeled_embs = (
            model.embed_batch(pool.Xl) if sel.ranks_by_lp(cfg.selector) else None
        )
        chosen, _ = sel.select(
            pool.Xu, model, labeled_embs, cfg.selector, cfg.budget, rng=rng,
        )

        # (4) the selection is labeled: its rows move with their labels
        selected_per_month.append([pool.ids_u[i] for i in chosen])
        pool.promote(chosen)
        pool.check(expected_total)

        # (5) retrain on the updated pools
        if chosen:
            rcfg = replace(cfg.retrain, seed=cfg.seed + len(monthly))
            model, _ = train(model, (pool.Xl, pool.yl), pool.Xu, rcfg)
    return _result(monthly, selected_per_month, cfg.seed)


def aggregate_runs(results):
    """Mean and std of each metric across a list of StreamResults."""
    f1 = aggregate([r.f1_mean for r in results])
    fnr = aggregate([r.fnr_mean for r in results])
    fpr = aggregate([r.fpr_mean for r in results])
    return {"f1": f1, "fnr": fnr, "fpr": fpr}

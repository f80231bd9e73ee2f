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

from dataclasses import dataclass

import numpy as np

from . import selection as sel
from .data import check_unique_ids
from .metrics import aggregate, compute_metrics
from .net import NumericError
from .trainer import train


class PoolInvariantError(RuntimeError):
    """Labeled/unlabeled pool bookkeeping went inconsistent."""


def months_from_dataset(dataset, months):
    """{month: Dataset of its rows} for each of ``months`` the dataset holds,
    in month order."""
    return {month: dataset.take(rows) for month, rows in dataset.month_rows().items()
            if month in months}


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


def run_stream(model, labeled, unlabeled, months, selector, budget, retrain, seed):
    """Replay the monthly stream with budget-k active labeling.

    ``labeled`` and ``unlabeled`` are Datasets and ``months`` an ordered
    ``{month: Dataset}`` map. Each month is (1) evaluated by the current
    model, (2) appended to the unlabeled pool, (3) scored by ``selector``,
    and up to ``budget`` pool rows picked; (4) the picked rows, in picked
    order and with their true labels, move to the end of the labeled pool,
    and (5) if any were picked the model is warm-start retrained on both
    pools with the TrainConfig ``retrain`` and seed ``seed`` + months
    evaluated. Budget 0 never retrains: it is the static no-adaptation
    baseline. Steps (1)-(3) raise on overflow, invalid and divide, and a
    non-finite model output or a floating-point error there raises
    NumericError naming the month.
    """
    blocks = [labeled, unlabeled, *months.values()]
    X = np.concatenate([b.X for b in blocks])
    y = np.concatenate([b.y for b in blocks])
    ids = [i for b in blocks for i in b.ids]
    check_unique_ids(ids, PoolInvariantError, "rows of both pools and the months")
    revealed = len(labeled) + len(unlabeled)
    lab, unl = np.arange(len(labeled)), np.arange(len(labeled), revealed)
    model, rng = model.copy(), np.random.default_rng(seed)
    monthly, selected_per_month = [], []
    for month, block in months.items():
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                # (1) evaluate before the month's data can influence anything
                probs = model.predict_batch(block.X)
                if not np.isfinite(probs).all():
                    raise NumericError("non-finite model output")
                monthly.append(compute_metrics(probs.argmax(axis=1), block.y, month=month))

                # (2) the month joins the unlabeled pool
                unl = np.concatenate([unl, np.arange(revealed, revealed + len(block))])
                revealed += len(block)

                # (3) score and select under the budget
                chosen, _ = sel.select(X[unl], model, X[lab], selector, budget, rng=rng)
        except FloatingPointError as e:  # NumericError among them
            raise NumericError(f"month {month}: {e}") from None

        # (4) the selection is labeled: its rows move with their labels
        picked = unl[chosen]
        selected_per_month.append([ids[j] for j in picked])
        lab, unl = np.concatenate([lab, picked]), np.delete(unl, chosen)
        check_pools(lab, unl, revealed)

        # (5) retrain on the updated pools
        if chosen:
            model, _ = train(model, (X[lab], y[lab]), X[unl], retrain, seed + len(monthly))
    stats = [s for k in ("f1", "fnr", "fpr")
             for s in aggregate([getattr(m, k) for m in monthly])]
    return StreamResult(monthly, selected_per_month, *stats, seed)


def aggregate_runs(results):
    """Mean and std of each metric across a list of StreamResults."""
    f1 = aggregate([r.f1_mean for r in results])
    fnr = aggregate([r.fnr_mean for r in results])
    fpr = aggregate([r.fpr_mean for r in results])
    return {"f1": f1, "fnr": fnr, "fpr": fpr}

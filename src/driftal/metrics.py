"""Confusion-matrix metrics, multi-run aggregation, and report payloads.

Undefined ratios (no positives or no negatives in a month) are explicit
``None`` markers, excluded from aggregates rather than propagated as NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MonthlyMetrics:
    month: str
    tp: int
    fp: int
    tn: int
    fn: int
    f1: float | None
    fnr: float | None
    fpr: float | None

    def to_dict(self):
        return vars(self).copy()


def compute_metrics(predictions, truths, month=""):
    """Exact confusion counts and F1/FNR/FPR for one evaluation batch."""
    predictions = np.asarray(predictions, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    if len(predictions) != len(truths):
        raise ValueError("predictions and truths length mismatch")
    tp = int(((predictions == 1) & (truths == 1)).sum())
    fp = int(((predictions == 1) & (truths == 0)).sum())
    tn = int(((predictions == 0) & (truths == 0)).sum())
    fn = int(((predictions == 0) & (truths == 1)).sum())
    return from_counts(month, tp, fp, tn, fn)


def from_counts(month, tp, fp, tn, fn):
    """The MonthlyMetrics of confusion counts: F1, FNR and FPR, each None where
    its denominator is 0."""
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else None
    fnr = fn / (fn + tp) if (fn + tp) > 0 else None
    fpr = fp / (fp + tn) if (fp + tn) > 0 else None
    return MonthlyMetrics(month, tp, fp, tn, fn, f1, fnr, fpr)


def aggregate(values):
    """Mean and sample standard deviation, skipping None entries.

    Returns (mean, std); a single defined value has std 0, and no defined
    values at all yields (None, None).
    """
    defined = [v for v in values if v is not None]
    if not defined:
        return None, None
    mean = float(np.mean(defined))
    std = float(np.std(defined, ddof=1)) if len(defined) > 1 else 0.0
    return mean, std


REPORT_COLUMNS = ["month", "tp", "fp", "tn", "fn", "f1", "fnr", "fpr", "n_selected"]


def emit_report(result, config_hash="", seeds=()):
    """A StreamResult's outputs as ``write_outputs`` takes them: its JSON
    payload and its per-month CSV rows."""
    payload = result.to_dict()
    payload["config_hash"] = config_hash
    payload["seeds"] = list(seeds)
    return {"result.json": payload, "result.csv": report_rows(payload)}


def report_rows(payload):
    """Per-month CSV rows, header first, of a ``StreamResult.to_dict()`` payload."""
    return [REPORT_COLUMNS] + [
        [mm[c] for c in REPORT_COLUMNS[:5]]
        + ["" if mm[c] is None else f"{100.0 * mm[c]:.1f}" for c in ("f1", "fnr", "fpr")]
        + [len(sel)]
        for mm, sel in zip(payload["monthly"], payload["selected_ids"])]


# ---------------------------------------------------------------------------
# operation counting and the scaling benchmark
# ---------------------------------------------------------------------------


def forward_ops(widths, batch):
    """Multiply-accumulate count for one batched forward pass of a net with
    layer ``widths`` (``Classifier.architecture``)."""
    return sum(batch * (2 * n_in * n_out + n_out)
               for n_in, n_out in zip(widths, widths[1:]))


def backward_ops(widths, batch):
    """Analytic count for backprop: dW and d_input matmuls per layer."""
    total = 0
    for i, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        total += batch * 2 * n_in * n_out  # dW = delta^T @ input
        if i > 0:
            total += batch * 2 * n_in * n_out  # d_input = delta @ W
    return total


def distance_ops(n_pool, n_labeled, dim):
    """Brute-force pair bound on the ops of nearest-labeled Lp distances.

    Counts every pool x labeled pair; the KD-tree query that
    ``selection.lp_distances`` runs evaluates fewer pairs than this.
    """
    return n_pool * n_labeled * (3 * dim)


def train_step_ops(architecture, labeled_batch, unlabeled_batch):
    """Analytic bound on one combined step: labeled fwd+bwd, weak fwd, strong
    fwd+bwd. ``step_loss_and_grads`` runs the strong backward pass only when
    some pseudo-label is confident, so a step may do less than this."""
    ops = forward_ops(architecture, labeled_batch)
    ops += backward_ops(architecture, labeled_batch)
    ops += forward_ops(architecture, unlabeled_batch)  # weak views
    ops += forward_ops(architecture, unlabeled_batch)  # strong views
    ops += backward_ops(architecture, unlabeled_batch)
    return ops


@dataclass
class BenchRecord:
    sample_count: int
    seconds: float
    operations: int

    def to_dict(self):
        return vars(self).copy()


def _pool_batches(n_lab, n_pool, batch):
    """One in-order pass over an ``n_pool``-row pool, labeled rows cycled."""
    for start in range(0, n_pool, batch):
        yield (np.arange(start, start + batch) % n_lab,
               np.arange(start, min(start + batch, n_pool)))


def bench(n_list, budget=400, dim=100, hidden=(32, 16), batch=10, seed=0):
    """Time one training epoch plus one selection+retrain epoch per pool size.

    The labeled set is fixed at ``budget`` samples and an epoch is one
    pass over the n-sample pool, so both runtime and the analytic
    operation count grow linearly with n. Pools are random binary data;
    operation counts are derived from layer shapes, reproducible
    independently of wall clock. They are bounds, not counts of what ran:
    see ``train_step_ops`` (in ``bench([1000, 10000], budget=400)`` 1,251
    of 2,150 steps run the strong backward pass) and ``distance_ops``.
    """
    import time

    from . import selection as sel
    from .net import Optimizer
    from .trainer import TrainConfig, build_model, run_epoch

    records = []
    sel_cfg = sel.SelectorConfig()
    n_lab = max(2, budget)
    for n in n_list:
        n = int(n)
        rng = np.random.default_rng(seed)
        X = (rng.random((n + n_lab, dim)) < 0.3).astype(np.uint8)
        y = rng.integers(0, 2, size=n + n_lab)
        # pool size is exactly n; the labeled set is constant across sizes,
        # and tiny pools cap the effective budget so the retrain epoch
        # still covers nearly the whole pool
        budget_eff = min(budget, n // 10)
        Xl, yl, Xu = X[:n_lab], y[:n_lab], X[n_lab:]
        cfg = TrainConfig(hidden=hidden, labeled_batch=batch, unlabeled_batch=batch)
        model = build_model(dim, cfg, seed)
        opt = Optimizer(learning_rate=cfg.learning_rate)
        # untimed one-sample select: whatever the select path imports at its
        # first call is loaded before the timing starts
        sel.select(Xu[:1], model, Xl, sel_cfg, 1)
        t0 = time.perf_counter()
        run_epoch(model, opt, _pool_batches(n_lab, len(Xu), batch), Xl, yl, Xu, cfg, rng)
        chosen, _ = sel.select(Xu, model, Xl, sel_cfg, budget_eff)
        keep = np.ones(len(Xu), dtype=bool)
        keep[chosen] = False
        Xl2 = np.concatenate([Xl, Xu[~keep]])
        yl2 = np.concatenate([yl, y[n_lab:][~keep]])
        Xu2 = Xu[keep]
        run_epoch(model, opt, _pool_batches(len(Xl2), len(Xu2), batch), Xl2, yl2, Xu2,
                  cfg, rng)
        elapsed = time.perf_counter() - t0

        arch = model.architecture
        steps = -(-len(Xu) // batch) + -(-len(Xu2) // batch)  # ceil(n / batch) each
        ops = steps * train_step_ops(arch, batch, batch)
        ops += forward_ops(arch, len(Xu))  # scoring: one forward, probs + embeddings
        ops += distance_ops(len(Xu), n_lab, model.embedding_dim)
        records.append(BenchRecord(n, elapsed, int(ops)))
    return records


def bench_rows(records):
    """CSV rows, header first, of ``bench`` records."""
    return [["sample_count", "seconds", "operations"]] + [
        [r.sample_count, f"{r.seconds:.6f}", r.operations] for r in records]

"""Semi-supervised training beats supervised-only when labels are scarce.

Splits the training months into a small labeled set and a large unlabeled
pool, then compares three runs on a held-out month:

  * supervised-only on the labeled subset,
  * the full three-term objective (cross-entropy + confidence-gated
    consistency on bit-flip views + supervised contrastive), and
  * the same at an even smaller label ratio.

Run: python3 demos/02_ssl_training.py
"""

import numpy as np

from driftal import (
    DriftGeneratorConfig,
    LossConfig,
    TrainConfig,
    build_model,
    compute_metrics,
    label_ratio_split,
    synth_drift_generate,
    train,
)

gen = DriftGeneratorConfig(
    dim=200, months=3, samples_per_month_per_class=500, drift_rate=0.15, seed=1
)
dataset = synth_drift_generate(gen)
months = dataset.months()
train_set = dataset.take(np.isin(dataset.row_months, months[:2]))
held = dataset.take(np.isin(dataset.row_months, months[2]))


def run(ratio, use_unlabeled, seeds=(0, 1, 2)):
    scores = []
    for seed in seeds:
        labeled, unlabeled = label_ratio_split(train_set, ratio, seed)
        Xu = unlabeled.X if use_unlabeled else np.zeros((0, gen.dim))
        loss = LossConfig() if use_unlabeled else LossConfig(lambda_u=0, lambda_con=0)
        cfg = TrainConfig(epochs=10, hidden=(32, 16), loss=loss)
        model, _ = train(build_model(gen.dim, cfg, seed), (labeled.X, labeled.y), Xu, cfg,
                         seed)
        scores.append(compute_metrics(model.predict_batch(held.X).argmax(1), held.y).f1)
    return float(np.mean(scores))


print("held-out F1, mean of 3 seeds:")
print(f"  supervised-only, 40% labels:  {run(0.4, False):.4f}")
print(f"  semi-supervised, 40% labels:  {run(0.4, True):.4f}")
print(f"  semi-supervised, 10% labels:  {run(0.1, True):.4f}")
print("\nThe unlabeled pool closes part of the gap left by missing labels: "
      "confident weak-view pseudo-labels supervise the strong views, and the "
      "contrastive term keeps the embedding classes separated.")

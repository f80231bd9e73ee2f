"""Generate a drifting binary-feature stream and watch a static model decay.

Trains a classifier on the first two months of a synthetic stream whose
per-feature Bernoulli rates are resampled over time, then scores every
later month without any adaptation. Mean F1 slides downward as the
feature distribution walks away from the training months.

Run: python3 demos/01_synthetic_drift.py
"""

import numpy as np

from driftal import (
    DriftGeneratorConfig,
    TrainConfig,
    build_model,
    compute_metrics,
    months_from_dataset,
    synth_drift_generate,
    train,
)

gen = DriftGeneratorConfig(
    dim=200,
    months=12,
    samples_per_month_per_class=500,
    drift_rate=0.15,
    seed=0,
)
dataset = synth_drift_generate(gen)
months = months_from_dataset(dataset, dataset.months())  # {month: Dataset}
print(f"generated {len(dataset)} samples over {len(months)} months")

# train on the first two months with full labels, no adaptation afterwards
first, second, *_ = months.values()
Xl = np.concatenate([first.X, second.X])
yl = np.concatenate([first.y, second.y])
cfg = TrainConfig(epochs=15, hidden=(64, 32))
model, report = train(build_model(gen.dim, cfg, 0), (Xl, yl), np.zeros((0, gen.dim)),
                      cfg, 0)
print(f"initial fit: final loss {report.epoch_losses[-1].total:.4f}\n")

print(f"{'month':<10} {'F1':>6} {'FNR':>6} {'FPR':>6}")
for month, block in list(months.items())[2:]:
    preds = model.predict_batch(block.X).argmax(axis=1)
    mm = compute_metrics(preds, block.y, month=month)
    print(f"{mm.month:<10} {mm.f1:6.3f} {mm.fnr:6.3f} {mm.fpr:6.3f}")

print("\nWithout adaptation the same weights score each successive month; "
      "F1 falls as the drifted features stop matching the training months.")

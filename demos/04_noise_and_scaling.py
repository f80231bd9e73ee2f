"""Label-noise robustness and linear cost scaling.

Part 1 flips a growing fraction of the initial training labels and
replays the same active-learning stream; clean oracle labels arriving
through the monthly budget gradually repair the damage. Part 2 times one
training epoch plus one selection-and-retrain epoch at increasing pool
sizes and reports the analytic operation counts, which grow linearly.

Run: python3 demos/04_noise_and_scaling.py
"""

from dataclasses import replace

from driftal import SelectorConfig, bench
from driftal.cli import setup_from_config

print("label-noise sweep (mean stream F1, 1 seed):")
exp = setup_from_config({
    "generator": {"months": 10},
    "label_ratio": 0.4,
    "train": {"epochs": 10, "hidden": [32, 16]},
    "stream": {"retrain_epochs": 4},
})
for rate in (0.0, 0.2, 0.4):
    result = replace(exp, noise_rate=rate).run(SelectorConfig(), 50, seed=0)
    print(f"  {rate:4.0%} labels flipped -> F1 {result.f1_mean:.3f}")

print("\nscaling benchmark (one train epoch + one select/retrain epoch):")
print(f"  {'pool size':>9} {'seconds':>9} {'operations':>14} {'ops/sample':>11}")
for rec in bench([1_000, 5_000, 25_000], budget=400):
    print(f"  {rec.sample_count:>9d} {rec.seconds:>9.3f} "
          f"{rec.operations:>14d} {rec.operations // rec.sample_count:>11d}")
print("\nOperations per sample are flat: minibatch training, score "
      "computation, and brute-force nearest-labeled distances all touch "
      "each pool sample a constant number of times per epoch.")

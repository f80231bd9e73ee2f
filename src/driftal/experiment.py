"""End-to-end experiment orchestration.

Glues data generation/loading, the initial semi-supervised fit, and the
monthly stream harness into seeded, repeatable runs. Initial models are
cached per seed so ablation sweeps share their starting point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import data as dio
from .stream import months_from_dataset, run_stream
from .trainer import TrainConfig, build_model, train


@dataclass(eq=False)
class Experiment:
    """A concrete dataset split plus the knobs shared by all of its runs, as
    ``driftal.cli.setup_from_config`` builds it from a run's config. Runs
    stream experiments against it, caching initial fits per seed."""

    dataset: dio.Dataset
    train_months: list
    stream_months: list
    label_ratio: float
    noise_rate: float
    train_cfg: TrainConfig
    retrain_epochs: int

    def __post_init__(self):
        self._initial = {}  # seed -> (model, labeled, unlabeled Datasets, report)
        ds = self.dataset
        self.train_set = ds.take(np.isin(ds.row_months, self.train_months))
        self.stream = months_from_dataset(ds, set(self.stream_months))

    def initial_fit(self, seed):
        """Train (and cache) the warm-start model for one seed."""
        if seed in self._initial:
            return self._initial[seed]
        labeled, unlabeled = dio.label_ratio_split(self.train_set, self.label_ratio, seed)
        labeled = dio.inject_label_noise(labeled, self.noise_rate, seed)
        model = build_model(self.train_set.feature_dim, self.train_cfg, seed)
        model, report = train(model, (labeled.X, labeled.y), unlabeled.X, self.train_cfg,
                              seed)
        self._initial[seed] = (model, labeled, unlabeled, report)
        return self._initial[seed]

    def run(self, selector, budget, seed):
        """One full stream run; returns a StreamResult."""
        model, labeled, unlabeled, _ = self.initial_fit(seed)
        retrain = replace(self.train_cfg, epochs=self.retrain_epochs)
        return run_stream(model, labeled, unlabeled, self.stream, selector, budget,
                          retrain, seed)

    def sweep(self, selectors, budgets, seeds):
        """Selector x budget x seed grid with shared seeds per cell.

        Returns one ``(selector, budget, runs)`` entry per requested cell,
        selector-major, so a selector listed twice gives two entries.
        """
        return [
            (selector, budget, [self.run(selector, budget, seed) for seed in seeds])
            for selector in selectors
            for budget in budgets
        ]

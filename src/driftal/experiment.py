"""End-to-end experiment orchestration.

Glues data generation/loading, the initial semi-supervised fit, and the
monthly stream harness into seeded, repeatable runs. Initial models are
cached per seed so ablation sweeps share their starting point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import data as dio
from .stream import StreamConfig, months_from_dataset, run_stream
from .trainer import TrainConfig, build_model, train


@dataclass
class ExperimentSetup:
    """A concrete dataset split plus the knobs shared by all runs, as
    ``driftal.cli.setup_from_config`` builds it from a run's config."""

    dataset: dio.Dataset
    train_months: list
    stream_months: list
    label_ratio: float
    noise_rate: float
    train_cfg: TrainConfig
    retrain_epochs: int


class Experiment:
    """Runs stream experiments against one dataset, caching initial fits."""

    def __init__(self, setup):
        self.setup = setup
        self._initial = {}  # seed -> (model, labeled, unlabeled Datasets, report)
        ds = setup.dataset
        self.train_set = ds.take(np.isin(ds.row_months, setup.train_months))
        self.stream = months_from_dataset(ds, set(setup.stream_months))

    def initial_fit(self, seed):
        """Train (and cache) the warm-start model for one seed."""
        if seed in self._initial:
            return self._initial[seed]
        s = self.setup
        labeled, unlabeled = dio.label_ratio_split(self.train_set, s.label_ratio, seed)
        if s.noise_rate > 0:
            labeled = dio.inject_label_noise(labeled, s.noise_rate, seed)
        cfg = replace(s.train_cfg, seed=seed)
        model = build_model(self.train_set.feature_dim, cfg)
        model, report = train(model, (labeled.X, labeled.y), unlabeled.X, cfg)
        self._initial[seed] = (model, labeled, unlabeled, report)
        return self._initial[seed]

    def run(self, selector, budget, seed):
        """One full stream run; returns a StreamResult."""
        model, labeled, unlabeled, _ = self.initial_fit(seed)
        cfg = StreamConfig(
            budget=budget,
            selector=selector,
            retrain=replace(self.setup.train_cfg, epochs=self.setup.retrain_epochs),
            seed=seed,
        )
        return run_stream(model, labeled, unlabeled, self.stream, cfg)

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

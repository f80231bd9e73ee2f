"""End-to-end experiment orchestration.

Glues data generation/loading, the initial semi-supervised fit, and the
monthly stream harness into seeded, repeatable runs. Initial models are
cached per seed so ablation sweeps share their starting point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import data as dio
from .losses import LossConfig
from .stream import StreamConfig, months_from_dataset, run_stream
from .trainer import TrainConfig, build_model, train


@dataclass
class ExperimentSetup:
    """A concrete dataset split plus the knobs shared by all runs."""

    dataset: dio.Dataset
    train_months: list
    stream_months: list
    label_ratio: float = 0.4
    noise_rate: float = 0.0
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    retrain_epochs: int = 10


class Experiment:
    """Runs stream experiments against one dataset, caching initial fits."""

    def __init__(self, setup):
        self.setup = setup
        self._initial = {}  # seed -> (model, (Xl, yl, ids_l), (Xu, yu, ids_u), report)
        ds = setup.dataset
        train_months = set(setup.train_months)
        self.train_set = dio.Dataset(
            ds.name, ds.feature_dim, [r for r in ds.records if r.month in train_months],
        )
        self.stream = months_from_dataset(ds, months=set(setup.stream_months))

    def initial_fit(self, seed):
        """Train (and cache) the warm-start model for one seed."""
        if seed in self._initial:
            return self._initial[seed]
        s = self.setup
        labeled, unlabeled = dio.label_ratio_split(self.train_set, s.label_ratio, seed)
        if s.noise_rate > 0:
            labeled = dio.inject_label_noise(labeled, s.noise_rate, seed)
        labeled, unlabeled = labeled.to_arrays(), unlabeled.to_arrays()
        cfg = replace(s.train_cfg, seed=seed)
        model = build_model(self.train_set.feature_dim, cfg)
        model, report = train(model, labeled[:2], unlabeled[0], cfg)
        self._initial[seed] = (model, labeled, unlabeled, report)
        return self._initial[seed]

    def run(self, selector, budget, seed):
        """One full stream run; returns a StreamResult."""
        model, labeled, unlabeled, _ = self.initial_fit(seed)
        cfg = StreamConfig(
            budget=budget,
            selector=selector,
            retrain=replace(
                self.setup.train_cfg, seed=seed, epochs=self.setup.retrain_epochs
            ),
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


def default_synthetic_setup(
    seed=0,
    dim=200,
    stream_months=12,
    samples=500,
    drift_rate=0.15,
    train_months=2,
    label_ratio=0.4,
    noise_rate=0.0,
    epochs=20,
    retrain_epochs=8,
    hidden=(64, 32),
):
    """Desk-scale synthetic drift experiment used by the demos and tests."""
    gen = dio.DriftGeneratorConfig(
        dim=dim,
        months=train_months + stream_months,
        samples_per_month_per_class=samples,
        drift_rate=drift_rate,
        seed=seed,
    )
    dataset = dio.synth_drift_generate(gen)
    months = dataset.months()
    cfg = TrainConfig(epochs=epochs, hidden=hidden, loss=LossConfig())
    return ExperimentSetup(
        dataset=dataset,
        train_months=months[:train_months],
        stream_months=months[train_months:],
        label_ratio=label_ratio,
        noise_rate=noise_rate,
        train_cfg=cfg,
        retrain_epochs=retrain_epochs,
    )

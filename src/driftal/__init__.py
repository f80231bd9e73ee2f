"""Drift-adaptive semi-supervised active learning over binary feature vectors."""

from .augment import (
    AugmentConfig,
    bernoulli_bit_flip,
    bernoulli_mask,
    strong_view,
    uniform_bit_flip,
    weak_view,
)
from .data import (
    Dataset,
    DriftGeneratorConfig,
    FeatureRecord,
    inject_label_noise,
    label_ratio_split,
    load_dataset,
    save_dataset,
    synth_drift_generate,
)
from .losses import (
    LossBreakdown,
    LossConfig,
    consistency_loss,
    supervised_ce,
    supervised_contrastive,
    total_loss,
)
from .experiment import Experiment, ExperimentSetup, default_synthetic_setup
from .metrics import (
    BenchRecord,
    MonthlyMetrics,
    aggregate,
    bench,
    compute_metrics,
    emit_report,
)
from .net import Classifier, LayerSpec, Optimizer, default_architecture
from .selection import (
    SelectionScore,
    SelectorConfig,
    confidence_scores,
    hybrid_scores,
    lp_distances,
    margin_scores,
    minmax_normalize,
    select,
)
from .stream import StreamConfig, StreamResult, months_from_dataset, run_stream
from .trainer import TrainConfig, TrainReport, build_model, train

__version__ = "0.1.0"

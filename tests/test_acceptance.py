"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and records a single
pass/fail line (printed in the terminal summary). The drift-stream
criteria share one module-scoped set of seeded runs so the whole suite
stays within a few minutes.
"""

import time

import numpy as np
import pytest

from driftal.augment import AugmentConfig, bernoulli_bit_flip, bernoulli_mask, weak_view
from driftal.data import DriftGeneratorConfig, synth_drift_generate
from driftal.experiment import Experiment, ExperimentSetup
from driftal.losses import (
    LossConfig,
    consistency_loss,
    supervised_ce,
    supervised_contrastive,
)
from driftal.metrics import bench, compute_metrics, write_bench_csv
from driftal.net import Classifier, softmax
from driftal.selection import SelectorConfig, lp_distances, select
from driftal.trainer import TrainConfig, build_model, step_loss_and_grads, train

from test_selection import brute_force_nn, selection_oracle

SEEDS = (0, 1, 2, 3, 4)


def drift_experiment(seed, months=14, label_ratio=0.1, retrain_epochs=1,
                     loss=None, noise_rate=0.0):
    gen = DriftGeneratorConfig(
        dim=200, months=months, samples_per_month_per_class=500,
        drift_rate=0.15, overlap=0.3, seed=seed,
    )
    dataset = synth_drift_generate(gen)
    month_names = dataset.months()
    setup = ExperimentSetup(
        dataset=dataset,
        train_months=month_names[:2],
        stream_months=month_names[2:],
        label_ratio=label_ratio,
        noise_rate=noise_rate,
        train_cfg=TrainConfig(epochs=10, hidden=(32, 16),
                              loss=loss or LossConfig()),
        retrain_epochs=retrain_epochs,
    )
    return Experiment(setup)


def mean_f1(runs):
    return float(np.mean([r.f1_mean for r in runs]))


@pytest.fixture(scope="module")
def drift_runs():
    """Shared 12-month stream runs: selector x budget grid over 5 seeds."""
    names = ["static", "mc_50", "mc_200", "mc_400", "margin_only", "lp_only",
             "low_confidence_only", "random", "mc_nocon"]
    runs = {name: [] for name in names}
    for seed in SEEDS:
        exp = drift_experiment(seed)
        runs["static"].append(exp.run(SelectorConfig(), 0, seed))
        for budget in (50, 200, 400):
            runs[f"mc_{budget}"].append(exp.run(SelectorConfig(), budget, seed))
        for kind in ("margin_only", "lp_only", "low_confidence_only", "random"):
            runs[kind].append(exp.run(SelectorConfig(kind=kind), 50, seed))
        nocon = drift_experiment(seed, loss=LossConfig(lambda_con=0.0))
        runs["mc_nocon"].append(nocon.run(SelectorConfig(), 50, seed))
    return runs


def max_rel_err(analytic, fd):
    analytic = np.asarray(analytic, float)
    fd = np.asarray(fd, float)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    return float(np.max(np.abs(analytic - fd) / denom))


def fd_grid(f, x, eps=1e-6):
    """Central finite differences of scalar f over every entry of x."""
    out = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        up, dn = x.copy(), x.copy()
        up[idx] += eps
        dn[idx] -= eps
        out[idx] = (f(up) - f(dn)) / (2 * eps)
    return out


class TestCriterion1:
    def test_gradient_suite(self, criterion):
        t0 = time.perf_counter()
        errs = {"supervised": 0.0, "consistency": 0.0, "contrastive": 0.0,
                "combined": 0.0}
        for trial in range(20):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(2, 8))

            logits = rng.normal(size=(n, 2))
            labels = rng.integers(0, 2, n)
            _, g = supervised_ce(softmax(logits), labels)
            fd = fd_grid(lambda L: supervised_ce(softmax(L), labels)[0], logits)
            errs["supervised"] = max(errs["supervised"], max_rel_err(g, fd))

            # keep weak confidences off the threshold so the indicator is
            # locally constant and the loss is differentiable at the point
            tau = 0.8
            while True:
                weak = softmax(rng.normal(scale=2, size=(n, 2)))
                if np.all(np.abs(weak.max(axis=1) - tau) > 1e-3):
                    break
            s_logits = rng.normal(size=(n, 2))
            _, _, g = consistency_loss(weak, softmax(s_logits), tau)
            fd = fd_grid(lambda L: consistency_loss(weak, softmax(L), tau)[0],
                         s_logits)
            errs["consistency"] = max(errs["consistency"], max_rel_err(g, fd))

            m = int(rng.integers(3, 8))
            emb = rng.normal(size=(m, int(rng.integers(3, 6))))
            lab = rng.integers(0, 2, m)
            _, g = supervised_contrastive(emb, lab, 0.2)
            fd = fd_grid(lambda E: supervised_contrastive(E, lab, 0.2)[0], emb)
            errs["contrastive"] = max(errs["contrastive"], max_rel_err(g, fd))

            errs["combined"] = max(errs["combined"],
                                   self._combined_err(trial))
        worst = max(errs.values())
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-4 and elapsed < 30
        criterion(1, ok, f"gradient suite: max relative error {worst:.2e} "
                         f"(limit 1e-4), {elapsed:.1f}s (limit 30s)")
        assert ok, errs

    @staticmethod
    def _combined_err(trial):
        loss_cfg = LossConfig(confidence_threshold=0.8)
        seed = trial
        while True:
            rng = np.random.default_rng(1000 + seed)
            model = Classifier((6, 5, 2), seed=seed)
            Xl = (rng.random((4, 6)) < 0.5).astype(np.uint8)
            yl = rng.integers(0, 2, 4)
            Bu = (rng.random((4, 6)) < 0.5).astype(np.uint8)
            aug_cfg = AugmentConfig()
            Xw = weak_view(Bu, aug_cfg, rng)
            Xs = bernoulli_bit_flip(Bu, aug_cfg.strong_prob, rng)
            # zero-initialized biases put all-zero rows exactly on the relu
            # kink, where finite differences are undefined; jitter them
            for b in model.biases:
                b += rng.normal(scale=0.1, size=b.shape)
            weak_conf = model.predict_batch(Xw).max(axis=1)
            preacts = np.concatenate([
                (X @ model.weights[0].T + model.biases[0]).ravel()
                for X in (Xl, Xw, Xs)
            ])
            if (np.all(np.abs(weak_conf - loss_cfg.confidence_threshold) > 1e-3)
                    and np.min(np.abs(preacts)) > 1e-4):
                break
            seed += 100  # resample: threshold or relu-kink boundary hit

        breakdown, grad = step_loss_and_grads(model, Xl, yl, Xw, Xs, loss_cfg)
        worst = 0.0
        eps = 1e-6
        for layer, (dw, db) in enumerate(zip(*model.layer_views(grad))):
            for param, analytic in ((model.weights[layer], dw),
                                    (model.biases[layer], db)):
                it = np.nditer(param, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = param[idx]
                    param[idx] = orig + eps
                    up = step_loss_and_grads(model, Xl, yl, Xw, Xs,
                                             loss_cfg)[0].total
                    param[idx] = orig - eps
                    dn = step_loss_and_grads(model, Xl, yl, Xw, Xs,
                                             loss_cfg)[0].total
                    param[idx] = orig
                    worst = max(worst, max_rel_err(analytic[idx],
                                                   (up - dn) / (2 * eps)))
        return worst


class TestCriterion2:
    def test_augmentation_calibration(self, criterion):
        t0 = time.perf_counter()
        n = 100_000
        worst_sigmas = 0.0
        for p in (0.01, 0.05, 0.5):
            sigma = np.sqrt(p * (1 - p) / n)
            flip = bernoulli_bit_flip(np.zeros(n, np.uint8), p, np.random.default_rng(11))
            mask = bernoulli_mask(np.ones(n, np.uint8), p, np.random.default_rng(12))
            worst_sigmas = max(worst_sigmas,
                               abs(flip.mean() - p) / sigma,
                               abs((1 - mask.mean()) - p) / sigma)
        x = (np.random.default_rng(13).random(1000) < 0.5).astype(np.uint8)
        exact = (
            (bernoulli_bit_flip(x, 0.0, np.random.default_rng(0)) == x).all()
            and (bernoulli_bit_flip(x, 1.0, np.random.default_rng(0)) == 1 - x).all()
            and (bernoulli_mask(x, 0.0, np.random.default_rng(0)) == x).all()
        )
        elapsed = time.perf_counter() - t0
        ok = worst_sigmas < 3 and exact and elapsed < 5
        criterion(2, ok, f"augmentation calibration: worst deviation "
                         f"{worst_sigmas:.2f} binomial sigmas (limit 3), "
                         f"exact edge cases {'ok' if exact else 'BROKEN'}, "
                         f"{elapsed:.1f}s (limit 5s)")
        assert ok


class TestCriterion3:
    def test_selection_oracle_equivalence(self, criterion):
        t0 = time.perf_counter()
        model = Classifier((6, 4, 2), seed=0)
        kinds = ("multi_criteria", "margin_only", "lp_only",
                 "low_confidence_only")
        mismatches = 0
        pools = 200
        worst_lp = 0.0
        for trial in range(pools):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(5, 501))
            # low dimension forces duplicate rows, exercising the tie rule
            pool = (rng.random((n, 6)) < 0.5).astype(np.uint8)
            labeled = (rng.random((int(rng.integers(2, 40)), 6)) < 0.5)
            labeled_embs = model.embed_batch(labeled.astype(np.uint8))
            k = int(rng.integers(1, n + 1))
            for kind in kinds:
                cfg = SelectorConfig(kind=kind)
                chosen, scores = select(pool, model, labeled_embs, cfg, k)
                if chosen != selection_oracle(scores, cfg, k):
                    mismatches += 1
            # random selector: deterministic given the rng, valid indices
            ra, _ = select(pool, model, labeled_embs,
                           SelectorConfig(kind="random"), k,
                           rng=np.random.default_rng(trial))
            rb, _ = select(pool, model, labeled_embs,
                           SelectorConfig(kind="random"), k,
                           rng=np.random.default_rng(trial))
            if ra != rb or len(set(ra)) != min(k, n):
                mismatches += 1
            if trial % 10 == 0:
                U = rng.normal(size=(50, 8))
                L = rng.normal(size=(20, 8))
                for p in (1.0, 2.0):
                    worst_lp = max(worst_lp, float(np.max(np.abs(
                        lp_distances(U, L, p) - brute_force_nn(U, L, p)
                    ))))
        elapsed = time.perf_counter() - t0
        ok = mismatches == 0 and worst_lp < 1e-12 and elapsed < 60
        criterion(3, ok, f"selection oracle equivalence: {mismatches} "
                         f"mismatches over {pools} pools, Lp max abs error "
                         f"{worst_lp:.1e}, {elapsed:.1f}s (limit 60s)")
        assert ok


class TestCriterion4:
    def test_drift_reproduction(self, criterion, drift_runs):
        static = drift_runs["static"]
        degradation = float(np.mean(
            [r.monthly[0].f1 - r.monthly[-1].f1 for r in static]
        ))
        f1_static = mean_f1(static)
        f1_50 = mean_f1(drift_runs["mc_50"])
        f1_200 = mean_f1(drift_runs["mc_200"])
        f1_400 = mean_f1(drift_runs["mc_400"])
        recovery = f1_50 - f1_static
        ordering = (f1_400 >= f1_200 - 0.01) and (f1_200 >= f1_50 - 0.01)
        ok = degradation >= 0.15 and recovery >= 0.10 and ordering
        criterion(4, ok, f"drift reproduction: static degrades "
                         f"{100 * degradation:.1f} pts (need >=15), budget-50 "
                         f"recovery {100 * recovery:.1f} pts (need >=10), "
                         f"budget F1 50/200/400 = {f1_50:.3f}/{f1_200:.3f}/"
                         f"{f1_400:.3f} monotone within 1 pt: {ordering}")
        assert ok


class TestCriterion5:
    def test_ablation_ordering(self, criterion, drift_runs):
        f1 = {name: mean_f1(drift_runs[name])
              for name in ("mc_50", "margin_only", "lp_only",
                           "low_confidence_only", "random", "mc_nocon")}
        singles = [f1["margin_only"], f1["lp_only"], f1["low_confidence_only"]]
        ordering = (all(f1["mc_50"] >= s for s in singles)
                    and all(s >= f1["random"] for s in singles))
        gap = f1["mc_50"] - f1["random"]
        con = f1["mc_50"] >= f1["mc_nocon"] - 0.01
        ok = ordering and gap >= 0.03 and con
        criterion(5, ok, f"ablation ordering: multi {f1['mc_50']:.4f} >= "
                         f"margin {f1['margin_only']:.4f} / lp "
                         f"{f1['lp_only']:.4f} / low-conf "
                         f"{f1['low_confidence_only']:.4f} >= random "
                         f"{f1['random']:.4f}, gap {100 * gap:.1f} pts "
                         f"(need >=3); contrastive on {f1['mc_50']:.4f} vs "
                         f"off {f1['mc_nocon']:.4f}")
        assert ok


class TestCriterion6:
    def test_ssl_benefit(self, criterion):
        def heldout_f1(seed, ratio, ssl):
            gen = DriftGeneratorConfig(
                dim=200, months=4, samples_per_month_per_class=500,
                drift_rate=0.15, overlap=0.3, seed=seed,
            )
            dataset = synth_drift_generate(gen)
            months = dataset.months()
            from driftal.data import Dataset, label_ratio_split

            train_set = Dataset(
                dataset.name, dataset.feature_dim,
                [r for r in dataset.records if r.month in months[:2]],
            )

            labeled, unlabeled = label_ratio_split(train_set, ratio, seed)
            Xl, yl, _ = labeled.to_arrays()
            Xu = (unlabeled.to_arrays()[0] if ssl
                  else np.zeros((0, 200), np.uint8))
            loss = LossConfig() if ssl else LossConfig(lambda_u=0, lambda_con=0)
            cfg = TrainConfig(epochs=10, hidden=(32, 16), loss=loss, seed=seed)
            model, _ = train(build_model(200, cfg), (Xl, yl), Xu, cfg)
            held = Dataset(
                dataset.name, dataset.feature_dim,
                [r for r in dataset.records if r.month == months[2]],
            )
            Xh, yh, _ = held.to_arrays()
            return compute_metrics(model.predict_batch(Xh).argmax(1), yh).f1

        ssl_40 = float(np.mean([heldout_f1(s, 0.4, True) for s in SEEDS]))
        sup_40 = float(np.mean([heldout_f1(s, 0.4, False) for s in SEEDS]))
        ssl_10 = float(np.mean([heldout_f1(s, 0.1, True) for s in SEEDS]))
        ok = ssl_40 >= sup_40 and ssl_40 >= ssl_10
        criterion(6, ok, f"semi-supervised benefit: 40% labels SSL "
                         f"{ssl_40:.4f} >= supervised {sup_40:.4f}; "
                         f">= 10% labels SSL {ssl_10:.4f}")
        assert ok


class TestCriterion7:
    def test_label_noise_robustness(self, criterion):
        rates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        means = []
        for rate in rates:
            runs = []
            for seed in (0, 1, 2):
                exp = drift_experiment(seed, months=10, label_ratio=0.4,
                                       retrain_epochs=4, noise_rate=rate)
                runs.append(exp.run(SelectorConfig(), 50, seed))
            means.append(mean_f1(runs))
        steps_ok = all(b >= a - 0.02 for a, b in zip(means[1:], means))
        retention = means[-1] / means[0]
        ok = steps_ok and retention >= 0.60
        curve = "/".join(f"{m:.3f}" for m in means)
        criterion(7, ok, f"label-noise robustness: F1 at 0..50% noise = "
                         f"{curve}, monotone within 2 pts: {steps_ok}, "
                         f"retention {100 * retention:.1f}% (need >=60%)")
        assert ok


class TestCriterion8:
    def test_stream_invariants(self, criterion, drift_runs):
        # pool-conservation and leakage checks run inside every stream
        # month and raise immediately; completing the whole grid means
        # zero violations
        months_checked = sum(
            len(r.monthly) for runs in drift_runs.values() for r in runs
        )
        ok = months_checked > 0
        criterion(8, ok, f"stream invariants: {months_checked} month "
                         f"transitions checked in-process, zero violations")
        assert ok


class TestCriterion9:
    def test_bench_scaling(self, criterion, tmp_path):
        sizes = [1_000, 10_000, 100_000]
        records = bench(sizes, budget=400)
        per_n = [r.operations / r.sample_count for r in records]
        deviation = max(per_n) / min(per_n) - 1
        path = write_bench_csv(records, tmp_path / "bench.csv")
        header = path.read_text().splitlines()[0]
        ok = deviation <= 0.20 and header == "sample_count,seconds,operations"
        criterion(9, ok, f"bench scaling: ops/sample spread "
                         f"{100 * deviation:.1f}% across n=1e3..1e5 "
                         f"(limit 20%), CSV columns [{header}]")
        assert ok

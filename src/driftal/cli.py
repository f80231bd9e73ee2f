"""Command-line entry point.

Subcommands: synth | train | stream | ablate | bench | noise | report.
Configuration comes from a JSON file (--config); each flag overrides
the config key that COMMANDS names. Every command writes a run.json with
that config (the file with flag overrides applied), the run seeds, and
output hashes.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import data as dio
from . import metrics as met
from .augment import AugmentConfig
from .experiment import Experiment, ExperimentSetup
from .losses import LossConfig
from .net import NumericError
from .selection import SELECTOR_KINDS, SelectorConfig
from .stream import aggregate_runs
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DEFAULT_OUT_ENV = "DRIFTAL_OUT"


class ConfigError(ValueError):
    pass


def _load_config(path):
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path}: expected an object, got {config!r}")
    return config


def _typed(value, key, kind, minimum=None, maximum=None):
    """Config value ``key`` as ``kind`` (int, float or str) in [minimum, maximum].

    A float key also takes an integer; booleans are never numbers here.
    """
    accepted = (int, float) if kind is float else kind
    if (isinstance(value, bool) or not isinstance(value, accepted)
            or (minimum is not None and not value >= minimum)
            or (maximum is not None and not value <= maximum)):
        bound = ("" if minimum is None else f" >= {minimum}" if maximum is None
                 else f" in [{minimum}, {maximum}]")
        raise ConfigError(f"{key}: expected {kind.__name__}{bound}, got {value!r}")
    return kind(value)


def _typed_list(values, key, kind, minimum=None, maximum=None):
    """A nonempty list of ``_typed`` values."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{key}: expected a nonempty list, got {values!r}")
    return [_typed(v, key, kind, minimum, maximum) for v in values]


def _section(config, key):
    """The object at dotted ``key`` ({} when absent); any other value is an error."""
    parent, _, name = key.rpartition(".")
    entry = (_section(config, parent) if parent else config).get(name, {})
    if not isinstance(entry, dict):
        raise ConfigError(f"{key}: expected an object, got {entry!r}")
    return entry


def _override(config, key, value):
    """A copy of ``config`` with dotted ``key`` set to ``value``."""
    section, _, name = key.rpartition(".")
    if not section:
        return {**config, key: value}
    return _override(config, section, {**_section(config, section), name: value})


def _build(cls, cfg, key):
    try:
        return cls(**cfg)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{key}: {e}") from None


def _train_config(config):
    train = dict(_section(config, "train"))
    if "seed" in train:
        raise ConfigError("train: 'seed' is not a config key; the run seed "
                          "comes from --seed or 'seeds'")
    train["loss"] = _build(LossConfig, _section(config, "train.loss"), "train.loss")
    train["augment"] = _build(AugmentConfig, _section(config, "train.augment"),
                              "train.augment")
    if "hidden" in train:
        train["hidden"] = tuple(_typed_list(train["hidden"], "train.hidden", int,
                                            minimum=1))
    return _build(TrainConfig, train, "train")


def _stream_cell(config):
    """The (selector, budget) of the ``stream`` section."""
    selector = _build(SelectorConfig, _section(config, "stream.selector"),
                      "stream.selector")
    budget = _section(config, "stream").get("budget", 50)
    return selector, _typed(budget, "stream.budget", int, minimum=0)


def _seeds(args, config):
    if args.seed is not None:
        return [_typed(args.seed, "--seed", int, minimum=0)]
    if "seeds" not in config:
        return [_typed(config.get("seed", 0), "seed", int, minimum=0)]
    return _typed_list(config["seeds"], "seeds", int, minimum=0)


def _fmt_f1(f1):
    return "n/a" if f1 is None else f"{f1:.3f}"


def _period(split, key, months):
    """The months of period ``split[key]``, which must hold a dataset month."""
    period = dio.parse_period(_typed(split[key], f"split.{key}", str))
    if not set(period) & set(months):
        raise ConfigError(f"split.{key}: no month of the dataset is in {split[key]!r}")
    return period


def _setup_from_config(config):
    """Build an ExperimentSetup from the dataset/generator + split sections."""
    if ("dataset" in config) == ("generator" in config):
        raise ConfigError("exactly one of 'dataset' or 'generator' is required")
    if "dataset" in config:
        _, dataset = dio.load_dataset(_typed(config["dataset"], "dataset", str))
    else:
        gen = _build(dio.DriftGeneratorConfig, _section(config, "generator"),
                     "generator")
        dataset = dio.synth_drift_generate(gen)
    split = _section(config, "split")
    months = dataset.months()
    if "train" in split:
        train_months = _period(split, "train", months)
    else:
        k = _typed(split.get("train_months", 2), "split.train_months", int, minimum=1)
        train_months = months[:k]
    if "stream" in split:
        stream_months = _period(split, "stream", months)
    else:
        stream_months = [m for m in months if m not in set(train_months)]
    shared = sorted(set(train_months) & set(stream_months))
    if shared:
        raise ConfigError(f"split.train and split.stream share months {shared}")
    stream = _section(config, "stream")
    unknown = sorted(set(stream) - {"budget", "selector", "retrain_epochs"})
    if unknown:
        raise ConfigError(f"stream: unknown keys {unknown}")
    return ExperimentSetup(
        dataset=dataset,
        train_months=train_months,
        stream_months=stream_months,
        label_ratio=_typed(config.get("label_ratio", 0.4), "label_ratio", float,
                           minimum=0, maximum=1),
        noise_rate=_typed(config.get("noise_rate", 0.0), "noise_rate", float,
                          minimum=0, maximum=1),
        train_cfg=_train_config(config),
        retrain_epochs=_typed(stream.get("retrain_epochs", 10),
                              "stream.retrain_epochs", int, minimum=1),
    )


# ---------------------------------------------------------------------------
# subcommands: each returns the (seeds, artifacts) that run.json records
# ---------------------------------------------------------------------------


def cmd_synth(args, config, out_dir):
    gen = _build(dio.DriftGeneratorConfig, _section(config, "generator"), "generator")
    fmt = _typed(config.get("format", "binary"), "format", str)
    if fmt not in dio.SHARD_FORMATS:
        raise ConfigError(f"format: {fmt!r} is not one of {sorted(dio.SHARD_FORMATS)}")
    dataset = dio.synth_drift_generate(gen)
    dio.save_dataset(dataset, out_dir / "dataset", fmt=fmt)
    print(f"wrote {len(dataset.records)} records over {len(dataset.months())} "
          f"months to {out_dir / 'dataset'}")
    return [gen.seed], sorted((out_dir / "dataset").glob("*"))


def cmd_train(args, config, out_dir):
    seeds = _seeds(args, config)
    artifacts = []
    exp = Experiment(_setup_from_config(config))
    for seed in seeds:
        model, _, _, report = exp.initial_fit(seed)
        ckpt = out_dir / f"checkpoint_seed{seed}.npz"
        model.save(ckpt)
        rpath = out_dir / f"train_report_seed{seed}.json"
        rpath.write_text(json.dumps(report.to_dict(), indent=2))
        artifacts += [ckpt, rpath]
        print(f"seed {seed}: final total loss "
              f"{report.epoch_losses[-1].total:.6f} -> {ckpt}")
    return seeds, artifacts


def cmd_stream(args, config, out_dir):
    seeds = _seeds(args, config)
    selector, budget = _stream_cell(config)
    artifacts = []
    exp = Experiment(_setup_from_config(config))
    [(_, _, results)] = exp.sweep([selector], [budget], seeds)
    config_hash = hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()
    ).hexdigest()
    for seed, result in zip(seeds, results):
        artifacts += met.emit_report(
            result, out_dir / f"seed{seed}", config_hash=config_hash, seeds=[seed],
        )
        print(f"seed {seed}: mean F1 {_fmt_f1(result.f1_mean)}")
    agg = aggregate_runs(results)
    apath = out_dir / "aggregate.json"
    apath.write_text(json.dumps(agg, indent=2))
    artifacts.append(apath)
    return seeds, artifacts


def cmd_ablate(args, config, out_dir):
    seeds = _seeds(args, config)
    ablate = _section(config, "ablate")
    kinds = _typed_list(ablate.get("selectors", list(SELECTOR_KINDS)),
                        "ablate.selectors", str)
    budgets = _typed_list(ablate.get("budgets", [50]), "ablate.budgets", int, minimum=0)
    selectors = [_build(SelectorConfig, {"kind": kind}, "ablate.selectors")
                 for kind in kinds]
    rows = []
    exp = Experiment(_setup_from_config(config))
    for selector, budget, runs in exp.sweep(selectors, budgets, seeds):
        f1 = aggregate_runs(runs)["f1"]
        rows.append({
            "selector": selector.kind, "budget": budget,
            "f1_mean": f1[0], "f1_std": f1[1],
            "runs": [r.to_dict() for r in runs],
        })
        print(f"{selector.kind:>20s} budget {budget:4d}: mean F1 {_fmt_f1(f1[0])}")
    mpath = out_dir / "ablation.json"
    mpath.write_text(json.dumps(rows, indent=2))
    return seeds, [mpath]


def cmd_bench(args, config, out_dir):
    seeds = _seeds(args, config)
    if len(seeds) != 1:
        raise ConfigError(f"seeds: expected one seed for bench, got {seeds}")
    bench = _section(config, "bench")
    records = met.bench(
        _typed_list(bench.get("sizes", [100, 1000, 5000, 10000, 50000, 100000, 500000]),
                    "bench.sizes", int, minimum=1),
        budget=_typed(bench.get("budget", 400), "bench.budget", int, minimum=0),
        dim=_typed(bench.get("dim", 100), "bench.dim", int, minimum=1),
        hidden=tuple(_typed_list(bench.get("hidden", [32, 16]), "bench.hidden", int,
                                 minimum=1)),
        batch=_typed(bench.get("batch", 10), "bench.batch", int, minimum=1),
        seed=seeds[0],
    )
    path = met.write_bench_csv(records, out_dir / "bench.csv")
    for r in records:
        print(f"n={r.sample_count:>7d}  {r.seconds:8.3f}s  {r.operations:>15d} ops")
    return seeds, [path]


def cmd_noise(args, config, out_dir):
    seeds = _seeds(args, config)
    rates = _typed_list(config.get(
        "noise_rates", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    ), "noise_rates", float, minimum=0, maximum=1)
    selector, budget = _stream_cell(config)
    rows = []
    setup = _setup_from_config(config)
    for rate in rates:
        exp = Experiment(replace(setup, noise_rate=rate))
        [(_, _, runs)] = exp.sweep([selector], [budget], seeds)
        f1 = aggregate_runs(runs)["f1"]
        rows.append({"noise_rate": rate, "f1_mean": f1[0], "f1_std": f1[1]})
        print(f"noise {rate:4.0%}: mean F1 {_fmt_f1(f1[0])}")
    path = out_dir / "noise_sweep.json"
    path.write_text(json.dumps(rows, indent=2))
    return seeds, [path]


# a MonthlyMetrics.to_dict() entry; undefined ratios are null
_MONTH_TYPES = {"month": str, "tp": int, "fp": int, "tn": int, "fn": int,
                **dict.fromkeys(("f1", "fnr", "fpr"), (int, float, type(None)))}


def _check_result(payload, where):
    """A ``StreamResult.to_dict()`` payload: one id list per monthly entry."""
    dio.require_keys(payload, {"monthly": list, "selected_ids": list}, where)
    monthly, selected = payload["monthly"], payload["selected_ids"]
    if len(monthly) != len(selected):
        raise dio.DataError(f"{where}: {len(monthly)} 'monthly' entries but "
                            f"{len(selected)} 'selected_ids' lists")
    for i, (entry, ids) in enumerate(zip(monthly, selected)):
        dio.require_keys(entry, _MONTH_TYPES, f"{where}: monthly[{i}]")
        if not isinstance(ids, list):
            raise dio.DataError(f"{where}: selected_ids[{i}] must be of type list")


def cmd_report(args, config, out_dir):
    src = Path(_typed(config.get("result"), "result", str))
    if not src.exists():
        raise dio.DataError(f"result file not found: {src}")
    try:
        payload = json.loads(src.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise dio.DataError(f"result file {src} is not valid JSON: {e}") from None
    _check_result(payload, f"result file {src}")
    dest = met.write_report_csv(payload, out_dir / "result.csv")
    print(f"wrote {dest}")
    return [], [dest]


# ---------------------------------------------------------------------------


# every flag a command may take
FLAGS = {
    "--seed": {"type": int, "help": "single seed override"},
    "--budget": {"type": int, "help": "labeling budget per month"},
    "--selector": {"choices": SELECTOR_KINDS},
    "--label-ratio": {"type": float},
    "--budgets": {"type": int, "nargs": "*", "help": "ablation budgets"},
    "--sizes": {"type": int, "nargs": "*", "help": "bench pool sizes"},
    "--result": {"help": "result.json to convert"},
}

# command -> (function, {flag: the config key it overrides}); each command
# accepts only its own flags. A None key is the run seed, which stays out
# of the config: run.json records it under "seeds".
COMMANDS = {
    "synth": (cmd_synth, {"--seed": "generator.seed"}),
    "train": (cmd_train, {"--seed": None, "--label-ratio": "label_ratio"}),
    "stream": (cmd_stream, {"--seed": None, "--budget": "stream.budget",
                            "--selector": "stream.selector.kind",
                            "--label-ratio": "label_ratio"}),
    "ablate": (cmd_ablate, {"--seed": None, "--budgets": "ablate.budgets"}),
    "bench": (cmd_bench, {"--seed": None, "--budget": "bench.budget",
                          "--sizes": "bench.sizes"}),
    "noise": (cmd_noise, {"--seed": None, "--budget": "stream.budget",
                          "--selector": "stream.selector.kind"}),
    "report": (cmd_report, {"--result": "result"}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="driftal",
        description="Drift-adaptive semi-supervised active learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    fn, flags = COMMANDS[args.command]
    try:
        config = _load_config(args.config)
        for flag, key in flags.items():
            value = getattr(args, flag[2:].replace("-", "_"))
            if key is not None and value is not None:
                config = _override(config, key, value)
        out = args.out or config.get("out") or os.environ.get(DEFAULT_OUT_ENV)
        if not out:
            raise ConfigError("no output directory: use --out, config 'out', "
                              f"or ${DEFAULT_OUT_ENV}")
        out_dir = Path(_typed(out, "out", str))
        out_dir.mkdir(parents=True, exist_ok=True)
        seeds, artifacts = fn(args, config, out_dir)
        hashes = {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in artifacts}
        run = {"command": args.command, "config": config, "seeds": seeds,
               "artifacts": hashes}
        (out_dir / "run.json").write_text(json.dumps(run, indent=2, default=str))
        return EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except dio.DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

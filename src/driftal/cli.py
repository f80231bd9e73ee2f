"""Command-line entry point.

Subcommands: synth | train | stream | ablate | bench | noise | report.
Configuration comes from a JSON file (--config) with flag overrides;
flags win. Every command writes a run.json with the fully resolved
configuration, seeds, and output hashes.

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
from .augment import AugmentConfig, AugmentConfigError
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
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None


def _typed(value, key, kind, minimum=None):
    """Config value ``key`` as ``kind`` (int, float or str), at least ``minimum``.

    A float key also takes an integer; booleans are never numbers here.
    """
    accepted = (int, float) if kind is float else kind
    if (isinstance(value, bool) or not isinstance(value, accepted)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{key}: expected {kind.__name__}{bound}, got {value!r}")
    return kind(value)


def _typed_list(values, key, kind, minimum=None):
    """A nonempty list of ``_typed`` values."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{key}: expected a nonempty list, got {values!r}")
    return [_typed(v, key, kind, minimum) for v in values]


def _build(cls, cfg, path):
    try:
        return cls(**cfg)
    except TypeError as e:
        raise ConfigError(f"{path}: {e}") from None
    except (ValueError, AugmentConfigError) as e:
        raise ConfigError(f"{path}: {e}") from None


def _train_config(cfg):
    cfg = dict(cfg)
    if "seed" in cfg:
        raise ConfigError("train: 'seed' is not a config key; the run seed "
                          "comes from --seed or 'seeds'")
    loss = _build(LossConfig, cfg.pop("loss", {}), "train.loss")
    augment = _build(AugmentConfig, cfg.pop("augment", {}), "train.augment")
    if "hidden" in cfg:
        cfg["hidden"] = tuple(cfg["hidden"])
    tc = _build(TrainConfig, cfg, "train")
    return replace(tc, loss=loss, augment=augment)


def _selector_config(cfg):
    return _build(SelectorConfig, dict(cfg), "stream.selector")


def _out_dir(args, config):
    out = args.out or config.get("out") or os.environ.get(DEFAULT_OUT_ENV)
    if not out:
        raise ConfigError("no output directory: use --out, config 'out', "
                          f"or ${DEFAULT_OUT_ENV}")
    return Path(out)


def _seeds(args, config):
    if args.seed is not None:
        return [_typed(args.seed, "--seed", int, minimum=0)]
    if "seeds" not in config:
        return [_typed(config.get("seed", 0), "seed", int, minimum=0)]
    return _typed_list(config["seeds"], "seeds", int, minimum=0)


def _hash_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_run_json(out_dir, command, resolved, seeds, artifacts):
    payload = {
        "command": command,
        "config": resolved,
        "seeds": seeds,
        "artifacts": {
            str(p.relative_to(out_dir)): _hash_file(p) for p in artifacts
        },
    }
    (out_dir / "run.json").write_text(json.dumps(payload, indent=2, default=str))


def _fmt_f1(f1):
    return "n/a" if f1 is None else f"{f1:.3f}"


def _setup_from_config(config):
    """Build an ExperimentSetup from the dataset/generator + split sections."""
    has_path = "dataset" in config
    has_gen = "generator" in config
    if has_path == has_gen:
        raise ConfigError("exactly one of 'dataset' or 'generator' is required")
    if has_path:
        _, dataset = dio.load_dataset(config["dataset"])
    else:
        gen = _build(dio.DriftGeneratorConfig, dict(config["generator"]), "generator")
        dataset = dio.synth_drift_generate(gen)
    split = config.get("split", {})
    months = dataset.months()
    if "train" in split:
        train_months = dio.parse_period(_typed(split["train"], "split.train", str))
        stream_period = split.get("stream")
        stream_months = (
            dio.parse_period(_typed(stream_period, "split.stream", str))
            if stream_period
            else [m for m in months if m not in set(train_months)]
        )
    else:
        k = _typed(split.get("train_months", 2), "split.train_months", int, minimum=1)
        train_months, stream_months = months[:k], months[k:]
    shared = sorted(set(train_months) & set(stream_months))
    if shared:
        raise ConfigError(f"split.train and split.stream share months {shared}")
    stream_cfg = config.get("stream", {})
    unknown = sorted(set(stream_cfg) - {"budget", "selector", "retrain_epochs"})
    if unknown:
        raise ConfigError(f"stream: unknown keys {unknown}")
    return ExperimentSetup(
        dataset=dataset,
        train_months=train_months,
        stream_months=stream_months,
        label_ratio=_typed(config.get("label_ratio", 0.4), "label_ratio", float),
        noise_rate=_typed(config.get("noise_rate", 0.0), "noise_rate", float),
        train_cfg=_train_config(config.get("train", {})),
        retrain_epochs=_typed(stream_cfg.get("retrain_epochs", 10),
                              "stream.retrain_epochs", int, minimum=1),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args, config):
    out_dir = _out_dir(args, config)
    gen_cfg = dict(config.get("generator", {}))
    if args.seed is not None:
        gen_cfg["seed"] = args.seed
    gen = _build(dio.DriftGeneratorConfig, gen_cfg, "generator")
    fmt = config.get("format", "binary")
    if fmt not in dio.SHARD_FORMATS:
        raise ConfigError(f"format: {fmt!r} is not one of {sorted(dio.SHARD_FORMATS)}")
    dataset = dio.synth_drift_generate(gen)
    out_dir.mkdir(parents=True, exist_ok=True)
    dio.save_dataset(dataset, out_dir / "dataset", fmt=fmt)
    artifacts = sorted((out_dir / "dataset").glob("*"))
    _write_run_json(out_dir, "synth", {"generator": vars(gen)}, [gen.seed], artifacts)
    print(f"wrote {len(dataset.records)} records over {len(dataset.months())} "
          f"months to {out_dir / 'dataset'}")
    return EXIT_OK


def cmd_train(args, config):
    out_dir = _out_dir(args, config)
    seeds = _seeds(args, config)
    if args.label_ratio is not None:
        config = {**config, "label_ratio": args.label_ratio}
    out_dir.mkdir(parents=True, exist_ok=True)
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
    _write_run_json(out_dir, "train", config, seeds, artifacts)
    return EXIT_OK


def _apply_stream_flags(args, config):
    stream = dict(config.get("stream", {}))
    if args.budget is not None:
        stream["budget"] = args.budget
    if args.selector is not None:
        stream.setdefault("selector", {})
        stream["selector"] = {**stream["selector"], "kind": args.selector}
    return {**config, "stream": stream}


def cmd_stream(args, config):
    config = _apply_stream_flags(args, config)
    out_dir = _out_dir(args, config)
    seeds = _seeds(args, config)
    if args.label_ratio is not None:
        config = {**config, "label_ratio": args.label_ratio}
    stream_cfg = config.get("stream", {})
    budget = _typed(stream_cfg.get("budget", 50), "stream.budget", int, minimum=0)
    selector = _selector_config(stream_cfg.get("selector", {}))
    out_dir.mkdir(parents=True, exist_ok=True)
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
    _write_run_json(out_dir, "stream", config, seeds, artifacts)
    return EXIT_OK


def cmd_ablate(args, config):
    out_dir = _out_dir(args, config)
    seeds = _seeds(args, config)
    ablate = config.get("ablate", {})
    kinds = ablate.get(
        "selectors",
        ["multi_criteria", "margin_only", "lp_only", "low_confidence_only", "random"],
    )
    budgets = _typed_list(args.budgets or ablate.get("budgets", [50]),
                          "ablate.budgets", int, minimum=0)
    selectors = [_selector_config({"kind": kind}) for kind in kinds]
    out_dir.mkdir(parents=True, exist_ok=True)
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
    _write_run_json(out_dir, "ablate", config, seeds, [mpath])
    return EXIT_OK


def cmd_bench(args, config):
    out_dir = _out_dir(args, config)
    bench_cfg = dict(config.get("bench", {}))
    n_list = _typed_list(args.sizes or bench_cfg.get(
        "sizes", [100, 1000, 5000, 10000, 50000, 100000, 500000]
    ), "bench.sizes", int, minimum=1)
    budget = args.budget if args.budget is not None else bench_cfg.get("budget", 400)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = met.bench(
        n_list,
        budget=_typed(budget, "bench.budget", int, minimum=0),
        dim=_typed(bench_cfg.get("dim", 100), "bench.dim", int, minimum=1),
        hidden=tuple(bench_cfg.get("hidden", (32, 16))),
        batch=_typed(bench_cfg.get("batch", 10), "bench.batch", int, minimum=1),
        seed=_seeds(args, config)[0],
    )
    path = met.write_bench_csv(records, out_dir / "bench.csv")
    for r in records:
        print(f"n={r.sample_count:>7d}  {r.seconds:8.3f}s  {r.operations:>15d} ops")
    _write_run_json(out_dir, "bench", config, _seeds(args, config), [path])
    return EXIT_OK


def cmd_noise(args, config):
    config = _apply_stream_flags(args, config)
    out_dir = _out_dir(args, config)
    seeds = _seeds(args, config)
    rates = _typed_list(config.get(
        "noise_rates", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    ), "noise_rates", float)
    stream_cfg = config.get("stream", {})
    budget = _typed(stream_cfg.get("budget", 50), "stream.budget", int, minimum=0)
    selector = _selector_config(stream_cfg.get("selector", {}))
    out_dir.mkdir(parents=True, exist_ok=True)
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
    _write_run_json(out_dir, "noise", config, seeds, [path])
    return EXIT_OK


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


def cmd_report(args, config):
    src = Path(args.result or config.get("result", ""))
    if not src.exists():
        raise dio.DataError(f"result file not found: {src}")
    try:
        payload = json.loads(src.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise dio.DataError(f"result file {src} is not valid JSON: {e}") from None
    _check_result(payload, f"result file {src}")
    out_dir = _out_dir(args, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    dest = met.write_report_csv(payload, out_dir / "result.csv")
    print(f"wrote {dest}")
    _write_run_json(out_dir, "report", config, [], [dest])
    return EXIT_OK


# ---------------------------------------------------------------------------


# every flag a command may take; each command accepts only those it reads
FLAGS = {
    "--seed": {"type": int, "help": "single seed override"},
    "--budget": {"type": int, "help": "labeling budget per month"},
    "--selector": {"choices": SELECTOR_KINDS},
    "--label-ratio": {"type": float},
    "--budgets": {"type": int, "nargs": "*", "help": "ablation budgets"},
    "--sizes": {"type": int, "nargs": "*", "help": "bench pool sizes"},
    "--result": {"help": "result.json to convert"},
}

COMMANDS = {
    "synth": (cmd_synth, ["--seed"]),
    "train": (cmd_train, ["--seed", "--label-ratio"]),
    "stream": (cmd_stream, ["--seed", "--budget", "--selector", "--label-ratio"]),
    "ablate": (cmd_ablate, ["--seed", "--budgets"]),
    "bench": (cmd_bench, ["--seed", "--budget", "--sizes"]),
    "noise": (cmd_noise, ["--seed", "--budget", "--selector"]),
    "report": (cmd_report, ["--result"]),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="driftal",
        description="Drift-adaptive semi-supervised active learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.fn(args, config)
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

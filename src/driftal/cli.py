"""Command-line entry point.

Subcommands: synth | train | stream | ablate | bench | noise | report.
Configuration comes from a JSON file (--config); each flag overrides
the config key that COMMANDS names. main writes each command's outputs,
then a run.json with that config (the file with flag overrides applied),
the run seeds, and the outputs' hashes, and only then prints the command's
lines that say what it wrote, if it has them.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import data as dio
from . import metrics as met
from .augment import AugmentConfig
from .config import ConfigError, entry, read_json, typed, typed_list
from .experiment import Experiment
from .losses import LossConfig
from .outputs import write_outputs
from .selection import SELECTOR_KINDS, SelectorConfig
from .stream import aggregate_runs
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DEFAULT_OUT_ENV = "DRIFTAL_OUT"


def _load_config(path):
    if path is None:
        return {}
    config = read_json(path, "config file", ConfigError)
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path}: expected an object, got {config!r}")
    return config


# the keys a config section may hold ("" is the top level); a section that
# builds a config object holds that object's fields
SECTION_KEYS = {
    "": {"dataset", "generator", "split", "label_ratio", "noise_rate", "noise_rates",
         "train", "stream", "ablate", "bench", "seed", "seeds", "out", "format",
         "result"},
    "split": {"train", "stream", "train_months"},
    "stream": {"budget", "selector", "retrain_epochs"},
    "ablate": {"selectors", "budgets"},
    "bench": {"sizes", "budget"},
    **{key: {f.name for f in fields(cls)} for key, cls in (
        ("generator", dio.DriftGeneratorConfig), ("train", TrainConfig),
        ("train.loss", LossConfig), ("train.augment", AugmentConfig),
        ("stream.selector", SelectorConfig))},
}


def _section(config, key):
    """The object at dotted ``key`` ({} when absent; the config itself for
    ""). Any other value, or a key ``SECTION_KEYS`` does not allow, is an error."""
    parent, _, name = key.rpartition(".")
    section = _section(config, parent).get(name, {}) if key else config
    if not isinstance(section, dict):
        raise ConfigError(f"{key}: expected an object, got {section!r}")
    unknown = sorted(set(section) - SECTION_KEYS[key])
    if unknown:
        raise ConfigError(f"{key or 'config'}: unknown keys {unknown}")
    return section


def _override(config, key, value):
    """A copy of ``config`` with dotted ``key`` set to ``value``."""
    section, _, name = key.rpartition(".")
    if not section:
        return {**config, key: value}
    return _override(config, section, {**_section(config, section), name: value})


def _build(cls, cfg, key):
    try:
        return cls(**cfg)
    except ConfigError as e:
        raise ConfigError(f"{key}.{e}") from None


def _train_config(config):
    train = dict(_section(config, "train"))
    for name, cls in (("loss", LossConfig), ("augment", AugmentConfig)):
        train[name] = _build(cls, _section(config, f"train.{name}"), f"train.{name}")
    return _build(TrainConfig, train, "train")


def _stream_cell(config):
    """The (selector, budget) of the ``stream`` section."""
    selector = _build(SelectorConfig, _section(config, "stream.selector"),
                      "stream.selector")
    budget = _section(config, "stream").get("budget", 50)
    return selector, typed(budget, "stream.budget", int, minimum=0)


def _seeds(args, config):
    if args.seed is not None:
        return [typed(args.seed, "--seed", int, minimum=0)]
    if "seeds" not in config:
        return [typed(config.get("seed", 0), "seed", int, minimum=0)]
    seeds = typed_list(config["seeds"], "seeds", int, minimum=0)
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds: expected distinct seeds, got {config['seeds']!r}")
    return seeds


def _fmt_f1(f1):
    return "n/a" if f1 is None else f"{f1:.3f}"


def _period(split, key, months):
    """The months of period ``split[key]``, which must hold a dataset month."""
    try:
        period = dio.parse_period(typed(split[key], f"split.{key}", str))
    except dio.DataError:
        raise ConfigError(f"split.{key}: expected YYYY-MM or an ordered "
                          f"YYYY-MM..YYYY-MM, got {split[key]!r}") from None
    if not set(period) & set(months):
        raise ConfigError(f"split.{key}: no month of the dataset is in {split[key]!r}")
    return period


def setup_from_config(config, streams=True):
    """Build an Experiment from a config as a ``--config`` file holds it
    (the dataset/generator, split, label ratio, noise, train and stream keys).
    The split of a command that ``streams`` must leave a month to stream."""
    if ("dataset" in config) == ("generator" in config):
        raise ConfigError("exactly one of 'dataset' or 'generator' is required")
    if "dataset" in config:
        path = typed(config["dataset"], "dataset", str)
        _, dataset = dio.load_dataset(path)
        if not len(dataset):
            raise dio.DataError(f"dataset {path} has no rows")
    else:
        gen = _build(dio.DriftGeneratorConfig, _section(config, "generator"),
                     "generator")
        dataset = dio.synth_drift_generate(gen)
    split = _section(config, "split")
    months = dataset.months()
    if "train" in split:
        train_months = _period(split, "train", months)
    else:
        k = typed(split.get("train_months", 2), "split.train_months", int, minimum=1)
        train_months = months[:k]
    # test-then-train: every stream month comes after the last training month
    last = train_months[-1]
    if "stream" in split:
        stream_months = _period(split, "stream", months)
        if stream_months[0] <= last:
            raise ConfigError(f"split.stream: month {stream_months[0]} is not after "
                              f"the last training month {last}")
    else:
        stream_months = [m for m in months if m > last]
        if streams and not stream_months:
            key = "train" if "train" in split else "train_months"
            raise ConfigError(f"split.{key}: no month of the dataset is left to stream")
    stream = _section(config, "stream")
    return Experiment(
        dataset=dataset,
        train_months=train_months,
        stream_months=stream_months,
        label_ratio=config.get("label_ratio", 0.4),
        noise_rate=config.get("noise_rate", 0.0),
        train_cfg=_train_config(config),
        retrain_epochs=typed(stream.get("retrain_epochs", 10),
                             "stream.retrain_epochs", int, minimum=1),
    )


# ---------------------------------------------------------------------------
# subcommands: each returns its seeds; its outputs, an ordered
# {path relative to out_dir: payload} map that main writes and hashes; and
# the text main prints once they are written, or None
# ---------------------------------------------------------------------------


def cmd_synth(args, config, out_dir):
    gen = _build(dio.DriftGeneratorConfig, _section(config, "generator"), "generator")
    fmt = typed(config.get("format", "binary"), "format", str, choices=dio.SHARD_FORMATS)
    dataset = dio.synth_drift_generate(gen)
    wrote = (f"wrote {len(dataset)} records over {len(dataset.months())} "
             f"months to {out_dir / 'dataset'}")
    return [gen.seed], {"dataset": lambda p: dio.save_dataset(dataset, p, fmt=fmt)}, wrote


def cmd_train(args, config, out_dir):
    seeds = _seeds(args, config)
    outputs, lines = {}, []
    exp = setup_from_config(config, streams=False)
    for seed in seeds:
        model, _, _, report = exp.initial_fit(seed)
        ckpt = f"checkpoint_seed{seed}.npz"
        outputs[ckpt] = model.save
        outputs[f"train_report_seed{seed}.json"] = report.to_dict()
        lines.append(f"seed {seed}: final total loss "
                     f"{report.epoch_losses[-1].total:.6f} -> {out_dir / ckpt}")
    return seeds, outputs, "\n".join(lines)


def cmd_stream(args, config, out_dir):
    seeds = _seeds(args, config)
    selector, budget = _stream_cell(config)
    outputs = {}
    exp = setup_from_config(config)
    [(_, _, results)] = exp.sweep([selector], [budget], seeds)
    for seed, result in zip(seeds, results):
        for name, payload in met.emit_report(result).items():
            outputs[f"seed{seed}/{name}"] = payload
        print(f"seed {seed}: mean F1 {_fmt_f1(result.f1_mean)}")
    outputs["aggregate.json"] = aggregate_runs(results)
    return seeds, outputs, None


def cmd_ablate(args, config, out_dir):
    seeds = _seeds(args, config)
    ablate = _section(config, "ablate")
    kinds = typed_list(ablate.get("selectors", list(SELECTOR_KINDS)),
                       "ablate.selectors", str, choices=SELECTOR_KINDS)
    budgets = typed_list(ablate.get("budgets", [50]), "ablate.budgets", int, minimum=0)
    selectors = [SelectorConfig(kind=kind) for kind in kinds]
    rows = []
    exp = setup_from_config(config)
    for selector, budget, runs in exp.sweep(selectors, budgets, seeds):
        f1 = aggregate_runs(runs)["f1"]
        rows.append({
            "selector": selector.kind, "budget": budget,
            "f1_mean": f1[0], "f1_std": f1[1],
            "runs": [r.to_dict() for r in runs],
        })
        print(f"{selector.kind:>20s} budget {budget:4d}: mean F1 {_fmt_f1(f1[0])}")
    return seeds, {"ablation.json": rows}, None


def cmd_bench(args, config, out_dir):
    seeds = _seeds(args, config)
    if len(seeds) != 1:
        raise ConfigError(f"seeds: expected one seed for bench, got {seeds}")
    bench = _section(config, "bench")
    records = met.bench(
        typed_list(bench.get("sizes", [100, 1000, 5000, 10000, 50000, 100000, 500000]),
                    "bench.sizes", int, minimum=1),
        budget=typed(bench.get("budget", 400), "bench.budget", int, minimum=0),
        seed=seeds[0],
    )
    for r in records:
        print(f"n={r.sample_count:>7d}  {r.seconds:8.3f}s  {r.operations:>15d} ops")
    return seeds, {"bench.csv": met.bench_rows(records)}, None


def cmd_noise(args, config, out_dir):
    seeds = _seeds(args, config)
    rates = typed_list(config.get(
        "noise_rates", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    ), "noise_rates", float, minimum=0, maximum=1)
    selector, budget = _stream_cell(config)
    rows = []
    exp = setup_from_config(config)
    for rate in rates:
        [(_, _, runs)] = replace(exp, noise_rate=rate).sweep([selector], [budget], seeds)
        f1 = aggregate_runs(runs)["f1"]
        rows.append({"noise_rate": rate, "f1_mean": f1[0], "f1_std": f1[1]})
        print(f"noise {rate:4.0%}: mean F1 {_fmt_f1(f1[0])}")
    return seeds, {"noise_sweep.json": rows}, None


def _check_result(payload, where):
    """A ``StreamResult.to_dict()`` payload: one id list per monthly entry, whose
    counts are ints >= 0 and whose ratios are those of its counts (null where
    undefined). Returns its monthly metrics and id lists as checked."""
    monthly = entry(payload, "monthly", where, list, dio.DataError)
    selected = entry(payload, "selected_ids", where, list, dio.DataError)
    if len(monthly) != len(selected):
        raise dio.DataError(f"{where}: {len(monthly)} 'monthly' entries but "
                            f"{len(selected)} 'selected_ids' lists")
    checked = []
    for i, (row, ids) in enumerate(zip(monthly, selected)):
        at = f"{where}: monthly[{i}]"
        month = entry(row, "month", at, str, dio.DataError)
        dio.check_month(month, f"{at}: 'month'")
        counts = [entry(row, key, at, int, dio.DataError, minimum=0)
                  for key in ("tp", "fp", "tn", "fn")]
        ratios = met.from_counts(month, *counts)
        for key in ("f1", "fnr", "fpr"):
            entry(row, key, at, float, dio.DataError, choices=(getattr(ratios, key),))
        typed(ids, f"{where}: selected_ids[{i}]", list, dio.DataError)
        checked.append(ratios.to_dict())
    return {"monthly": checked, "selected_ids": selected}


def cmd_report(args, config, out_dir):
    src = Path(typed(config.get("result"), "result", str))
    payload = read_json(src, "result file", dio.DataError)
    checked = _check_result(payload, f"result file {src}")
    return [], {"result.csv": met.report_rows(checked)}, f"wrote {out_dir / 'result.csv'}"


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
        for key in SECTION_KEYS:  # whichever command runs, and reads them or not
            _section(config, key)
        out = args.out or config.get("out") or os.environ.get(DEFAULT_OUT_ENV)
        if not out:
            raise ConfigError("no output directory: use --out, config 'out', "
                              f"or ${DEFAULT_OUT_ENV}")
        out_dir = Path(typed(out, "out", str))
        seeds, outputs, wrote = fn(args, config, out_dir)
        hashes = {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in write_outputs(out_dir, outputs)}
        write_outputs(out_dir, {"run.json": {"command": args.command, "config": config,
                                            "seeds": seeds, "artifacts": hashes}})
        if wrote:
            print(wrote)
        return EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except dio.DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as e:  # driftal.net.NumericError among them
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs from a seed, one timed operation, output checks.

Each workload has three parts:

* ``setup(seed, workdir)`` makes the inputs the program sees (a config file
  for the CLI workloads, a generated dataset for ``shards``). It is timed
  into ``setup_s``.
* ``iterate(state)`` runs the operation once and returns an ``Iteration``
  with the seconds spent in the program (checks excluded), the number of
  operations attempted and the list of problems found by the output checks.
* ``SIZES`` holds the full size and a tiny smoke size of every workload.

The driftal package is imported by the caller, after it has put the
repository's ``src`` directory first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from driftal import cli
from driftal import data as dio

SELECTORS = ["multi_criteria", "margin_only", "lp_only", "low_confidence_only", "random"]
TRAIN_MONTHS = 2
SHARD_FORMATS = (("binary", "bfv"), ("csv", "csv"))

SIZES = {
    "ablation_grid": {
        "full": dict(dim=200, months=14, per_class=1000, label_ratio=0.1,
                     hidden=[32, 16], epochs=10, retrain_epochs=1, budget=50),
        "smoke": dict(dim=24, months=4, per_class=40, label_ratio=0.25,
                      hidden=[8, 4], epochs=2, retrain_epochs=1, budget=5),
    },
    "stream_train": {
        "full": dict(dim=200, months=14, per_class=500, label_ratio=0.1,
                     hidden=[64, 32], epochs=10, retrain_epochs=8, budget=400),
        "smoke": dict(dim=24, months=4, per_class=40, label_ratio=0.25,
                      hidden=[8, 4], epochs=2, retrain_epochs=2, budget=10),
    },
    # 10 months x 2 classes x 5000 rows = 10^5 rows of 200 features
    "shards": {
        "full": dict(dim=200, months=10, per_class=5000),
        "smoke": dict(dim=24, months=3, per_class=50),
    },
}


@dataclass
class Iteration:
    """One run of a workload's operation."""

    seconds: float  # time spent in the program, checks excluded
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    phases: dict = field(default_factory=dict)  # named sub-timings, seconds
    quality: dict = field(default_factory=dict)  # e.g. f1_mean, months
    scale: float = 1.0  # reference-host seconds per measured second


def spec_hash(spec):
    """SHA-256 of a canonical JSON rendering of a workload spec."""
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()


def _generator(size, seed):
    return {
        "dim": size["dim"],
        "months": size["months"],
        "samples_per_month_per_class": size["per_class"],
        "drift_rate": 0.15,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# stream workloads (driftal.cli.main "ablate" / "stream")
# ---------------------------------------------------------------------------


@dataclass
class StreamReference:
    """What the checks need to know about the generated stream."""

    stream_months: list
    month_of: dict  # id -> month
    month_size: dict  # month -> rows
    month_positives: dict  # month -> malware rows
    initially_labeled: frozenset


class StreamWorkload:
    """A CLI subcommand replaying the synthetic drift stream in-process."""

    def __init__(self, name, size, f1_floor=None):
        self.name = name
        self.size = size
        self.f1_floor = f1_floor  # None disables the quality check
        self.command = "ablate" if name == "ablation_grid" else "stream"

    def spec(self, seed):
        s = self.size
        config = {
            "generator": _generator(s, seed),
            "split": {"train_months": TRAIN_MONTHS},
            "label_ratio": s["label_ratio"],
            "train": {"epochs": s["epochs"], "hidden": s["hidden"]},
            "stream": {"retrain_epochs": s["retrain_epochs"]},
        }
        if self.command == "ablate":
            config["ablate"] = {"selectors": SELECTORS, "budgets": [s["budget"]]}
            flags = ["--seed", str(seed)]
        else:
            flags = ["--seed", str(seed), "--selector", "random",
                     "--budget", str(s["budget"])]
        return {"command": self.command, "config": config, "flags": flags}

    def setup(self, seed, workdir):
        spec = self.spec(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(spec["config"], indent=2))
        out = workdir / "out"
        args = [spec["command"], "--config", str(config_path), "--out", str(out)]
        return {"seed": seed, "args": args + spec["flags"], "out": out,
                "hash": spec_hash(spec)}

    def reference(self, state):
        """Regenerate the stream the program sees, for the output checks."""
        seed = state["seed"]
        dataset = dio.synth_drift_generate(
            dio.DriftGeneratorConfig(**_generator(self.size, seed)))
        months = dataset.months()
        train_months = set(months[:TRAIN_MONTHS])
        train_set = dio.Dataset(dataset.name, dataset.feature_dim,
                                [r for r in dataset.records if r.month in train_months])
        labeled, _ = dio.label_ratio_split(train_set, self.size["label_ratio"], seed)
        month_size, month_pos = {}, {}
        for r in dataset.records:
            month_size[r.month] = month_size.get(r.month, 0) + 1
            month_pos[r.month] = month_pos.get(r.month, 0) + r.label
        return StreamReference(
            stream_months=months[TRAIN_MONTHS:],
            month_of={r.id: r.month for r in dataset.records},
            month_size=month_size,
            month_positives=month_pos,
            initially_labeled=frozenset(r.id for r in labeled.records),
        )

    def iterate(self, state, ref):
        out = state["out"]
        shutil.rmtree(out, ignore_errors=True)
        captured = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = cli.main(state["args"])
        seconds = time.perf_counter() - t0
        cells = self.operations
        if code != 0:
            return Iteration(seconds, cells, cells, [f"driftal exited {code}"])
        runs = self._runs(out, state["seed"])
        problems = []
        if len(runs) != cells:
            problems.append(f"{len(runs)} stream cells in the output, expected {cells}")
        failed = max(0, cells - len(runs))
        f1s = []
        for label, run in runs:
            cell_problems = check_stream_cell(run, ref, self.size["budget"])
            problems += [f"{label}: {p}" for p in cell_problems]
            failed += bool(cell_problems)
            f1s.append(run["aggregate"]["f1"][0])
        f1_mean = float(np.mean(f1s)) if f1s and None not in f1s else None
        if self.f1_floor is not None and (f1_mean is None or f1_mean < self.f1_floor):
            problems.append(f"f1_mean {f1_mean} below the floor {self.f1_floor:.4f}")
            failed = cells
        months = sum(len(run["monthly"]) for _, run in runs)
        return Iteration(seconds, cells, failed, problems,
                         quality={"f1_mean": f1_mean, "months": months})

    @property
    def operations(self):
        """Stream cells per run."""
        return len(SELECTORS) if self.command == "ablate" else 1

    def _runs(self, out, seed):
        """(label, StreamResult dict) for every stream cell in the output."""
        if self.command == "ablate":
            rows = json.loads((out / "ablation.json").read_text())
            return [(f"{row['selector']}@{row['budget']}", run)
                    for row in rows for run in row["runs"]]
        result = json.loads((out / f"seed{seed}" / "result.json").read_text())
        return [("random", result)]


def check_stream_cell(run, ref, budget):
    """Problems found in one stream cell's output; empty when it is correct."""
    problems = []
    months = [m["month"] for m in run["monthly"]]
    if months != ref.stream_months:
        problems.append(f"months {months} != stream months {ref.stream_months}")
    if len(run["selected_ids"]) != len(run["monthly"]):
        problems.append("one selection list per month expected")
    labeled = set(ref.initially_labeled)
    for mm, chosen in zip(run["monthly"], run["selected_ids"]):
        month = mm["month"]
        total = mm["tp"] + mm["fp"] + mm["tn"] + mm["fn"]
        if total != ref.month_size.get(month):
            problems.append(f"{month}: confusion counts sum to {total}, "
                            f"month has {ref.month_size.get(month)} rows")
        if mm["tp"] + mm["fn"] != ref.month_positives.get(month):
            problems.append(f"{month}: tp+fn {mm['tp'] + mm['fn']} != "
                            f"{ref.month_positives.get(month)} malware rows")
        if len(chosen) > budget:
            problems.append(f"{month}: selected {len(chosen)} > budget {budget}")
        if len(set(chosen)) != len(chosen):
            problems.append(f"{month}: duplicate ids in one selection")
        for i in chosen:
            origin = ref.month_of.get(i)
            if origin is None:
                problems.append(f"{month}: selected unknown id {i}")
            elif origin > month:
                problems.append(f"{month}: selected {i} from the future month {origin}")
            elif i in labeled:
                problems.append(f"{month}: selected {i}, which was already labeled")
        labeled.update(chosen)
    return problems


# ---------------------------------------------------------------------------
# shards (data layer only)
# ---------------------------------------------------------------------------


class ShardsWorkload:
    """save_dataset then load_dataset of one generated dataset, per format."""

    name = "shards"
    operations = len(SHARD_FORMATS)  # one round trip per format

    def __init__(self, size):
        self.size = size

    def setup(self, seed, workdir):
        spec = {"generator": _generator(self.size, seed),
                "formats": [fmt for fmt, _ in SHARD_FORMATS]}
        dataset = dio.synth_drift_generate(dio.DriftGeneratorConfig(**spec["generator"]))
        workdir.mkdir(parents=True, exist_ok=True)
        return {"seed": seed, "dataset": dataset, "workdir": workdir,
                "hash": spec_hash(spec)}

    def reference(self, state):
        return columns(state["dataset"])

    def iterate(self, state, ref):
        dataset = state["dataset"]
        rows = len(ref[0])
        phases, problems = {}, []
        failed = 0
        for fmt, ext in SHARD_FORMATS:
            target = state["workdir"] / ext
            shutil.rmtree(target, ignore_errors=True)
            try:
                t0 = time.perf_counter()
                dio.save_dataset(dataset, target, fmt=fmt)
                t1 = time.perf_counter()
                _, loaded = dio.load_dataset(target)
                t2 = time.perf_counter()
            except Exception as e:  # a failed round trip is counted, not fatal
                problems.append(f"{ext}: {type(e).__name__}: {e}")
                failed += 1
                continue
            phases[f"{ext}_write_s"] = t1 - t0
            phases[f"{ext}_read_s"] = t2 - t1
            mismatch = compare_columns(ref, columns(loaded))
            if mismatch:
                problems.append(f"{ext}: {mismatch}")
                failed += 1
        seconds = sum(phases.values())
        return Iteration(seconds, self.operations, failed, problems, phases,
                         quality={"rows": rows})


def columns(dataset):
    """(ids, months, labels, X) of a Dataset in row order."""
    recs = dataset.records
    X = (np.stack([r.features for r in recs]) if recs
         else np.zeros((0, dataset.feature_dim), dtype=np.uint8))
    return ([r.id for r in recs], [r.month for r in recs],
            np.array([r.label for r in recs], dtype=np.int64), X)


def compare_columns(expected, got):
    """A description of the first difference, or '' when equal."""
    for name, a, b in zip(("ids", "months"), expected[:2], got[:2]):
        if a != b:
            return f"{name} differ"
    if not np.array_equal(expected[2], got[2]):
        return "labels differ"
    if expected[3].shape != got[3].shape or not np.array_equal(expected[3], got[3]):
        return "feature bits differ"
    return ""


def make(name, smoke=False, f1_floors=None):
    size = SIZES[name]["smoke" if smoke else "full"]
    if name == "shards":
        return ShardsWorkload(size)
    floor = None if smoke or f1_floors is None else f1_floors.get(name)
    return StreamWorkload(name, size, f1_floor=floor)


import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftal import data as dio
from driftal.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    build_parser,
    main,
    setup_from_config,
)
from driftal.config import ConfigError
from driftal.net import Classifier
from driftal.selection import SelectorConfig

from test_data import edit_manifest, rewrite_shard, set_csv_cell


def base_config(**extra):
    cfg = {
        "generator": {
            "dim": 20,
            "months": 4,
            "samples_per_month_per_class": 25,
            "drift_rate": 0.3,
            "seed": 0,
        },
        "split": {"train_months": 2},
        "label_ratio": 0.5,
        "train": {"epochs": 2, "hidden": [8]},
        "stream": {"budget": 5, "retrain_epochs": 1},
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, **extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(**extra)))
    return str(path)


class TestSynth:
    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--config", cfg, "--out", str(out_a), "--seed", "7"])
        main(["synth", "--config", cfg, "--out", str(out_b), "--seed", "7"])
        ja = json.loads((out_a / "run.json").read_text())
        jb = json.loads((out_b / "run.json").read_text())
        assert ja["seeds"] == [7]
        assert ja["artifacts"] == jb["artifacts"]


class TestTrain:
    def test_checkpoint_and_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out),
                     "--seed", "0"]) == EXIT_OK
        assert (out / "checkpoint_seed0.npz").exists()
        report = json.loads((out / "train_report_seed0.json").read_text())
        assert len(report["epoch_losses"]) == 2

    def test_checkpoint_loads_back_as_the_initial_fit(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out), "--seed", "0"]) == EXIT_OK
        loaded = Classifier.load(out / "checkpoint_seed0.npz")
        fitted = setup_from_config(base_config(), streams=False).initial_fit(0)[0]
        assert loaded.architecture == fitted.architecture == (20, 8, 2)
        assert loaded.theta.tobytes() == fitted.theta.tobytes()


class TestStream:
    def test_reports_and_aggregate(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["stream", "--config", cfg, "--out", str(out),
                     "--seed", "0"]) == EXIT_OK
        result = json.loads((out / "seed0" / "result.json").read_text())
        assert len(result["monthly"]) == 2  # 4 months - 2 train
        assert all(len(ids) <= 5 for ids in result["selected_ids"])
        assert (out / "seed0" / "result.csv").exists()
        assert (out / "aggregate.json").exists()

    def test_budget_and_selector_flags(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["stream", "--config", cfg, "--out", str(out), "--seed", "0",
              "--budget", "2", "--selector", "margin_only"])
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["stream"]["budget"] == 2
        assert run["config"]["stream"]["selector"]["kind"] == "margin_only"
        result = json.loads((out / "seed0" / "result.json").read_text())
        assert all(len(ids) <= 2 for ids in result["selected_ids"])

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_saved_dataset_streams_as_its_generator(self, tmp_path, fmt):
        generated = tmp_path / "generated"
        assert main(["stream", "--config", write_config(tmp_path), "--out", str(generated),
                     "--seed", "0"]) == EXIT_OK
        assert main(["synth", "--config", write_config(tmp_path, format=fmt),
                     "--out", str(tmp_path / "synth")]) == EXIT_OK
        saved = {k: v for k, v in base_config().items() if k != "generator"}
        saved["dataset"] = str(tmp_path / "synth" / "dataset")
        cfg = tmp_path / "saved.json"
        cfg.write_text(json.dumps(saved))
        out = tmp_path / "saved"
        assert main(["stream", "--config", str(cfg), "--out", str(out),
                     "--seed", "0"]) == EXIT_OK
        assert ((out / "seed0" / "result.csv").read_bytes()
                == (generated / "seed0" / "result.csv").read_bytes())

    def test_split_stream_next_to_train_months(self, tmp_path):
        cfg = write_config(tmp_path, split={"train_months": 2, "stream": "2020-04"})
        out = tmp_path / "out"
        assert main(["stream", "--config", cfg, "--out", str(out),
                     "--seed", "0"]) == EXIT_OK
        result = json.loads((out / "seed0" / "result.json").read_text())
        assert [m["month"] for m in result["monthly"]] == ["2020-04"]

    def test_default_stream_follows_training(self, tmp_path):
        # the months before a later training period are never streamed
        cfg = write_config(tmp_path, generator={**base_config()["generator"], "months": 6},
                           split={"train": "2020-03..2020-04"})
        out = tmp_path / "out"
        assert main(["stream", "--config", cfg, "--out", str(out),
                     "--seed", "0"]) == EXIT_OK
        result = json.loads((out / "seed0" / "result.json").read_text())
        assert [m["month"] for m in result["monthly"]] == ["2020-05", "2020-06"]

    def test_periods_may_overlap_in_a_month_without_rows(self, tmp_path):
        # 2020-03 holds no row, so none can leak from training into the stream
        gen = dio.DriftGeneratorConfig(**{**base_config()["generator"], "months": 5})
        dataset = dio.synth_drift_generate(gen)
        dio.save_dataset(dataset.take(np.array(dataset.row_months) != "2020-03"),
                         tmp_path / "gap")
        saved = {k: v for k, v in base_config().items() if k != "generator"}
        results = []
        for train, stream in (("2020-01..2020-03", "2020-03..2020-05"),
                              ("2020-01..2020-02", "2020-04..2020-05")):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({**saved, "dataset": str(tmp_path / "gap"),
                                       "split": {"train": train, "stream": stream}}))
            out = tmp_path / stream
            assert main(["stream", "--config", str(cfg), "--out", str(out),
                         "--seed", "0"]) == EXIT_OK
            results.append((out / "seed0" / "result.csv").read_bytes())
        assert [line.split(",")[0] for line in results[0].decode().splitlines()[1:]] == [
            "2020-04", "2020-05"]
        assert results[0] == results[1]


class TestAblate:
    def test_grid(self, tmp_path):
        cfg = write_config(
            tmp_path,
            ablate={"selectors": ["multi_criteria", "random"], "budgets": [2]},
        )
        out = tmp_path / "out"
        assert main(["ablate", "--config", cfg, "--out", str(out),
                     "--seed", "0"]) == EXIT_OK
        rows = json.loads((out / "ablation.json").read_text())
        assert {r["selector"] for r in rows} == {"multi_criteria", "random"}
        assert all(r["budget"] == 2 for r in rows)

    def test_runs_equal_single_stream_runs(self, tmp_path):
        """One Experiment shared across seeds gives what a fresh one per seed does."""
        kinds = ["multi_criteria", "random"]
        cfg = write_config(tmp_path, seeds=[0, 1],
                           ablate={"selectors": kinds, "budgets": [3]})
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = json.loads((out / "ablation.json").read_text())
        assert [r["selector"] for r in rows] == kinds
        for row in rows:
            for seed, run in zip([0, 1], row["runs"]):
                sout = tmp_path / f"stream_{row['selector']}_{seed}"
                assert main(["stream", "--config", cfg, "--out", str(sout),
                             "--seed", str(seed), "--budget", "3",
                             "--selector", row["selector"]]) == EXIT_OK
                single = json.loads((sout / f"seed{seed}" / "result.json").read_text())
                assert run == single

    def test_duplicated_selector_one_row_per_cell(self, tmp_path):
        cfg = write_config(tmp_path,
                           ablate={"selectors": ["random", "random"],
                                   "budgets": [2, 3]})
        out = tmp_path / "out"
        assert main(["ablate", "--config", cfg, "--out", str(out),
                     "--seed", "0"]) == EXIT_OK
        rows = json.loads((out / "ablation.json").read_text())
        assert [(r["selector"], r["budget"]) for r in rows] == [
            ("random", 2), ("random", 3), ("random", 2), ("random", 3)]
        assert rows[0] == rows[2] and rows[1] == rows[3]


class TestBench:
    def test_csv(self, tmp_path):
        out = tmp_path / "out"
        assert main(["bench", "--out", str(out), "--sizes", "30", "60",
                     "--budget", "3"]) == EXIT_OK
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "sample_count,seconds,operations"
        assert len(lines) == 3


class TestNoise:
    def test_sweep(self, tmp_path):
        cfg = write_config(tmp_path, noise_rates=[0.0, 0.4])
        out = tmp_path / "out"
        assert main(["noise", "--config", cfg, "--out", str(out),
                     "--seed", "0"]) == EXIT_OK
        rows = json.loads((out / "noise_sweep.json").read_text())
        assert [r["noise_rate"] for r in rows] == [0.0, 0.4]
        assert all("f1_mean" in r for r in rows)

    def test_top_level_noise_rate_unread(self, tmp_path):
        # every run's rate comes from noise_rates, so a bad noise_rate is never read
        cfg = write_config(tmp_path, noise_rate="x", noise_rates=[0.0])
        assert main(["noise", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "0"]) == EXIT_OK


class TestReport:
    def test_json_to_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "stream"
        main(["stream", "--config", cfg, "--out", str(out), "--seed", "0"])
        rout = tmp_path / "report"
        assert main(["report", "--result", str(out / "seed0" / "result.json"),
                     "--out", str(rout)]) == EXIT_OK
        converted = (rout / "result.csv").read_bytes()
        original = (out / "seed0" / "result.csv").read_bytes()
        assert converted == original


# each command's flags for one run on the tiny config
RUN_FLAGS = {
    "synth": [],
    "train": ["--seed", "0"],
    "stream": ["--seed", "0"],
    "ablate": ["--seed", "0"],
    "bench": ["--seed", "0"],
    "noise": ["--seed", "0"],
    "report": ["--result", "result.json"],
}


class TestLibrary:
    def test_setup_from_config_runs_what_stream_writes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["stream", "--config", write_config(tmp_path), "--out", str(out),
                     "--seed", "0"]) == EXIT_OK
        written = json.loads((out / "seed0" / "result.json").read_text())
        result = setup_from_config(base_config()).run(SelectorConfig(), 5, 0)
        assert json.loads(json.dumps(result.to_dict())) == written

    def test_setup_from_config_rejects_unknown_key_as_cli_does(self, tmp_path, capsys):
        typo = {"stream": {"retrain_epoch": 1}}
        with pytest.raises(ConfigError) as e:
            setup_from_config(base_config(**typo))
        assert main(["stream", "--config", write_config(tmp_path, **typo),
                     "--out", str(tmp_path / "out"), "--seed", "0"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {e.value}\n"
        assert str(e.value) == "stream: unknown keys ['retrain_epoch']"


def month_name(index):
    """The YYYY-MM of integer month ``index = 12 * year + month``."""
    return f"{(index - 1) // 12:04d}-{(index - 1) % 12 + 1:02d}"


FIRST_MONTH = 12 * 2019 + 1  # every dataset's months lie in 2019-01..2021-12
MALFORMED_PERIODS = ["2020-13", "2020-00", "202001", "2020-1", "2020-03..", "..2020-03",
                     "2020-01..2020-02..2020-03", "2020-01...2020-02", ""]


@st.composite
def periods(draw, low, high):
    """(text, bounds) of a split period whose bounds lie in integer months
    [low, high]: its (start, end), or None when the text is malformed. The end
    of a range may come before its start."""
    form = draw(st.sampled_from(["month", "range", "range", "range", "reversed",
                                 "malformed"]))
    if form == "malformed":
        return draw(st.sampled_from(MALFORMED_PERIODS)), None
    start, end = sorted(draw(st.lists(st.integers(low, high), min_size=2, max_size=2)))
    if form == "month":
        return month_name(start), (start, start)
    if form == "reversed":
        start, end = end, start
    return f"{month_name(start)}..{month_name(end)}", (start, end)


def split_oracle(months, train, stream):
    """(training months, stream months) of periods with bounds ``train`` and
    ``stream`` (None for a malformed text; ``stream`` is "absent" when not given)
    on a dataset of integer ``months``, in order; or the start of the error."""
    def period(bounds, key):
        if bounds is None or bounds[0] > bounds[1]:
            return f"{key}: expected YYYY-MM or an ordered YYYY-MM..YYYY-MM"
        within = [m for m in months if bounds[0] <= m <= bounds[1]]
        return within or f"{key}: no month of the dataset is in"

    train_months = period(train, "split.train")
    if isinstance(train_months, str):
        return train_months
    if stream == "absent":
        stream_months = [m for m in months if m > train_months[-1]]
        if not stream_months:
            return "split.train: no month of the dataset is left to stream"
        return train_months, stream_months
    stream_months = period(stream, "split.stream")
    if isinstance(stream_months, str):
        return stream_months
    if stream_months[0] <= train_months[-1]:
        return (f"split.stream: month {month_name(stream_months[0])} is not after "
                f"the last training month {month_name(train_months[-1])}")
    return train_months, stream_months


class TestSplitPeriods:
    @settings(max_examples=150, deadline=None)
    # bit i of ``held`` is set when the dataset holds month FIRST_MONTH + i; five
    # drawn bytes set about half of the 36 bits
    @given(held=st.binary(min_size=5, max_size=5)
           .map(lambda b: int.from_bytes(b, "little") % 2**36).filter(bool),
           # bounds reach six months past the datasets' window, and a training
           # period leans early and a stream period late
           train=periods(FIRST_MONTH - 6, FIRST_MONTH + 29),
           stream=st.none() | periods(FIRST_MONTH + 6, FIRST_MONTH + 41))
    def test_split_matches_integer_months(self, held, train, stream):
        months = [FIRST_MONTH + i for i in range(36) if held >> i & 1]
        n = len(months)
        dataset = dio.Dataset.from_arrays("gaps", 1, np.zeros((n, 1)), np.zeros(n),
                                          [f"r{i}" for i in range(n)],
                                          list(map(month_name, months)))
        split = {"train": train[0]}
        if stream is not None:
            split["stream"] = stream[0]
        expected = split_oracle(months, train[1], "absent" if stream is None else stream[1])
        with tempfile.TemporaryDirectory() as tmp:
            dio.save_dataset(dataset, tmp)
            try:
                exp = setup_from_config({"dataset": tmp, "split": split})
            except ConfigError as e:
                assert isinstance(expected, str) and str(e).startswith(expected), (
                    str(e), expected)
                return
        got = tuple([12 * int(m[:4]) + int(m[5:]) for m in part]
                    for part in (exp.train_months, exp.stream_months))
        assert got == expected
        assert max(got[0]) < min(got[1])


class TestRunJson:
    @pytest.mark.parametrize("command", list(RUN_FLAGS))
    def test_artifacts_hash_every_output(self, tmp_path, monkeypatch, command):
        """run.json hashes exactly the files the command wrote, as they are on disk."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "result.json").write_text('{"monthly": [], "selected_ids": []}')
        cfg = write_config(tmp_path, noise_rates=[0.0],
                           ablate={"selectors": ["random"], "budgets": [3]},
                           bench={"sizes": [30], "budget": 3})
        assert main([command, *RUN_FLAGS[command], "--config", cfg,
                     "--out", "out"]) == EXIT_OK
        out = tmp_path / "out"
        run = json.loads((out / "run.json").read_text())
        assert run["command"] == command and run["artifacts"]
        written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
        assert written == {"run.json", *run["artifacts"]}
        for rel, digest in run["artifacts"].items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv,recorded", [
        (["ablate", "--seed", "0", "--budgets", "2", "4"], {"ablate.budgets": [2, 4]}),
        (["bench", "--budget", "2", "--sizes", "20", "40"],
         {"bench.budget": 2, "bench.sizes": [20, 40]}),
        (["stream", "--seed", "0", "--budget", "2", "--selector", "margin_only",
          "--label-ratio", "0.3"],
         {"stream.budget": 2, "stream.selector.kind": "margin_only",
          "label_ratio": 0.3, "stream.retrain_epochs": 1}),
        (["synth", "--seed", "7"], {"format": "csv", "generator.seed": 7}),
        (["report", "--result", "result.json"], {"result": "result.json"}),
    ])
    def test_records_config_with_flag_overrides(self, tmp_path, monkeypatch, argv,
                                                recorded):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "result.json").write_text('{"monthly": [], "selected_ids": []}')
        cfg = write_config(tmp_path, format="csv",
                           ablate={"selectors": ["random"], "budgets": [3]},
                           bench={"sizes": [30], "budget": 3})
        assert main(argv + ["--config", cfg, "--out", "out"]) == EXIT_OK
        config = json.loads((tmp_path / "out" / "run.json").read_text())["config"]
        for key, value in recorded.items():
            entry = config
            for part in key.split("."):
                entry = entry[part]
            assert entry == value


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["train", "--config", str(bad),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_config_directory_exits_config(self, tmp_path, capsys):
        (tmp_path / "c.json").mkdir()
        assert main(["train", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "cannot read config file" in capsys.readouterr().err

    def test_config_not_utf8_exits_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"seed": "\xff"}')
        assert main(["train", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "is not valid JSON" in capsys.readouterr().err

    def test_out_naming_a_file_exits_config(self, tmp_path, capsys):
        (tmp_path / "out").write_text("")
        assert main(["train", "--config", write_config(tmp_path),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"out: cannot make directory {tmp_path / 'out'}" in capsys.readouterr().err

    def test_failed_run_writes_nothing(self, tmp_path):
        cfg = write_config(tmp_path, train={"epochs": 1.5})
        assert main(["stream", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "0"]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_synth_dataset_path_a_file_exits_config(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "dataset").write_text("")
        assert main(["synth", "--config", write_config(tmp_path),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"out: cannot make directory {tmp_path / 'out' / 'dataset'}" in captured.err
        assert "wrote" not in captured.out

    def test_stream_seed_path_a_file_exits_config(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "seed0").write_text("")
        assert main(["stream", "--config", write_config(tmp_path),
                     "--out", str(tmp_path / "out"), "--seed", "0"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"out: cannot make directory {tmp_path / 'out' / 'seed0'}" in err

    @pytest.mark.parametrize("command,output", [
        ("stream", "seed0/result.json"),
        ("report", "result.csv"),
        ("train", "checkpoint_seed0.npz"),
        ("synth", "run.json"),
    ])
    def test_output_file_a_directory_exits_config(self, tmp_path, monkeypatch, capsys,
                                                  command, output):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "result.json").write_text('{"monthly": [], "selected_ids": []}')
        (tmp_path / "out" / output).mkdir(parents=True)
        assert main([command, *RUN_FLAGS[command], "--config", write_config(tmp_path),
                     "--out", "out"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"out: cannot write {Path('out', output)}: " in captured.err
        assert "wrote" not in captured.out

    def test_train_names_checkpoints_only_once_all_are_written(self, tmp_path, capsys):
        (tmp_path / "out" / "checkpoint_seed1.npz").mkdir(parents=True)
        cfg = write_config(tmp_path, seeds=[0, 1])
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "ok")]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" -> ")[1] for line in lines] == [
            str(tmp_path / "ok" / f"checkpoint_seed{seed}.npz") for seed in (0, 1)]

    def test_manifest_directory_exits_data(self, tmp_path, capsys):
        (tmp_path / "ds" / "manifest.json").mkdir(parents=True)
        cfg = base_config(dataset=str(tmp_path / "ds"))
        del cfg["generator"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = base_config()
        cfg["train"]["episodes"] = 5
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_dataset_and_generator_both_given(self, tmp_path, capsys):
        cfg = base_config(dataset=str(tmp_path / "ds"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("DRIFTAL_OUT", raising=False)
        cfg = write_config(tmp_path)
        assert main(["train", "--config", cfg]) == EXIT_CONFIG

    def test_out_env_fallback(self, tmp_path, monkeypatch):
        out = tmp_path / "envout"
        monkeypatch.setenv("DRIFTAL_OUT", str(out))
        cfg = write_config(tmp_path)
        assert main(["train", "--config", cfg, "--seed", "0"]) == EXIT_OK
        assert (out / "run.json").exists()

    def test_corrupt_dataset_exits_data(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["generator"]
        cfg["dataset"] = str(tmp_path / "missing")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path)]) == EXIT_DATA

    def test_bad_shard_exits_data(self, tmp_path, capsys):
        gen = dio.DriftGeneratorConfig(dim=20, months=4,
                                       samples_per_month_per_class=25)
        ds_dir = tmp_path / "ds"
        dio.save_dataset(dio.synth_drift_generate(gen), ds_dir)
        rewrite_shard(ds_dir, ".bfv", lambda raw: raw[:-3])
        cfg = base_config(dataset=str(ds_dir))
        del cfg["generator"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "stream"])
    def test_overlapping_split_periods(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, split={"train": "2020-01..2020-02",
                                            "stream": "2020-02..2020-04"})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "0"]) == EXIT_CONFIG
        assert "2020-02" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "stream"])
    def test_stream_before_training_exits_config(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, generator={**base_config()["generator"], "months": 6},
                           split={"train": "2020-05..2020-06",
                                  "stream": "2020-01..2020-02"})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "0"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "split.stream" in err and "2020-01" in err

    def test_csv_label_beyond_int64_exits_data(self, tmp_path, capsys):
        gen = dio.DriftGeneratorConfig(dim=20, months=4,
                                       samples_per_month_per_class=25)
        ds_dir = tmp_path / "ds"
        dio.save_dataset(dio.synth_drift_generate(gen), ds_dir, fmt="csv")
        rewrite_shard(ds_dir, ".csv",
                      lambda raw: set_csv_cell(raw, 1, "99999999999999999999"))
        cfg = base_config(dataset=str(ds_dir))
        del cfg["generator"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert "not an id,label,features table" in capsys.readouterr().err

    def test_overflowing_unsup_weight_exits_numeric(self, tmp_path, capsys):
        cfg = write_config(tmp_path, train={
            "epochs": 2, "hidden": [8],
            "loss": {"lambda_u": 1e308, "confidence_threshold": 0.5}})
        assert main(["stream", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "0"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "epoch 0: step 0: gradient entry not finite or too large" in err

    # each overflows in the initial fit, where numpy would only warn: train's
    # errstate raises it, named by epoch and step, before any file is written
    @pytest.mark.parametrize("train", [
        {"loss": {"contrastive_temperature": 5e-324}},
        {"learning_rate": 1e308},
        {"loss": {"lambda_con": 1e308}},
    ], ids=["contrastive_temperature", "learning_rate", "lambda_con"])
    def test_overflow_exits_numeric_naming_epoch_and_step(self, tmp_path, capsys, train):
        cfg = write_config(tmp_path, train={"epochs": 2, "hidden": [8], **train})
        out = tmp_path / "out"
        assert main(["stream", "--config", cfg, "--out", str(out),
                     "--seed", "0"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.match(r"numeric failure: epoch \d+: step 0: overflow encountered in ",
                        err), err
        assert not (out / "seed0" / "result.json").exists()

    @pytest.mark.parametrize("split,key", [
        ({"train_months": 9}, "split.train_months"),
        ({"train_months": 4}, "split.train_months"),
        ({"train": "2020-01..2020-04"}, "split.train"),
    ])
    def test_split_without_stream_month(self, tmp_path, capsys, split, key):
        cfg = write_config(tmp_path, split=split, noise_rates=[0.0])
        for command in ("stream", "ablate", "noise"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                         "--seed", "0"]) == EXIT_CONFIG
            assert (f"{key}: no month of the dataset is left to stream"
                    in capsys.readouterr().err)
        # training reads no stream month, so it takes the split
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "train"),
                     "--seed", "0"]) == EXIT_OK

    # one epoch at learning rate 1e308 leaves weights of about 1e308, whose forward
    # pass overflows to NaN on every row: the initial fit fails, with no
    # RuntimeWarning, before any month is evaluated or any file is written
    @pytest.mark.parametrize("argv,dim", [
        (["stream"], 20),
        (["noise"], 20),
        # NaN confidences are never below the cutoff: no row would be selected
        (["stream", "--budget", "2", "--selector", "low_confidence_only"], 8),
        (["train"], 20),
    ], ids=["stream", "noise", "low_confidence_only", "train"])
    def test_nan_model_exits_numeric(self, tmp_path, capsys, argv, dim):
        cfg = base_config(train={"epochs": 1, "hidden": [8], "learning_rate": 1e308},
                          stream={"budget": 0, "retrain_epochs": 1})
        cfg["generator"]["dim"] = dim
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main([*argv, "--config", str(path), "--out", str(out),
                     "--seed", "0"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "numeric failure: epoch 0: non-finite model output\n"
        assert not out.exists()  # no checkpoint, no result.json

    @pytest.mark.parametrize("command", ["stream", "ablate"])
    def test_non_finite_embeddings_exit_numeric(self, tmp_path, capsys,
                                                monkeypatch, command):
        # labeled-set embeddings go NaN; selection must fail as numeric
        def nan_embed(model, X):
            return np.full((len(X), model.embedding_dim), np.nan)

        monkeypatch.setattr(Classifier, "embed_batch", nan_embed)
        cfg = write_config(tmp_path)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "0"]) == EXIT_NUMERIC
        assert "non-finite labeled embedding" in capsys.readouterr().err

    def test_report_missing_result(self, tmp_path, capsys):
        assert main(["report", "--result", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == EXIT_DATA

    def test_report_result_directory_exits_data(self, tmp_path, capsys):
        (tmp_path / "result.json").mkdir()
        assert main(["report", "--result", str(tmp_path / "result.json"),
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert "cannot read result file" in capsys.readouterr().err

    @pytest.mark.parametrize("text,problem", [
        ("{not json", "not valid JSON"),
        ("{}", "has no 'monthly'"),
        ('{"monthly": []}', "has no 'selected_ids'"),
        ("[]", "has no 'monthly'"),
        pytest.param('{"monthly": {}, "selected_ids": []}', "'monthly': expected list, got {}",
                     id="""{"monthly": {}, "selected_ids": []}-'monthly' must be of type list"""),
        ("\udcff", "not valid JSON"),
        pytest.param("[" + "1" * 5000 + "]", "not valid JSON", id="int-digit-limit"),
        ('{"monthly": [{}], "selected_ids": [[]]}', "monthly[0] has no 'month'"),
        ('{"monthly": [], "selected_ids": [[]]}',
         "0 'monthly' entries but 1 'selected_ids' lists"),
    ])
    def test_report_bad_result(self, tmp_path, capsys, text, problem):
        src = tmp_path / "result.json"
        src.write_bytes(text.encode(errors="surrogateescape"))
        assert main(["report", "--result", str(src),
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert problem in capsys.readouterr().err

    @staticmethod
    def _month(**edit):
        entry = {"month": "2020-03", "tp": 1, "fp": 0, "tn": 2, "fn": 0,
                 "f1": 1.0, "fnr": 0.0, "fpr": 0.0}
        entry.update(edit)
        return entry

    @pytest.mark.parametrize("key", ["month", "tp", "fp", "tn", "fn",
                                     "f1", "fnr", "fpr"])
    def test_report_monthly_entry_missing_key(self, tmp_path, capsys, key):
        second = self._month()
        del second[key]
        src = tmp_path / "result.json"
        src.write_text(json.dumps({"monthly": [self._month(), second],
                                   "selected_ids": [[], ["a"]]}))
        assert main(["report", "--result", str(src),
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert f"monthly[1] has no '{key}'" in capsys.readouterr().err

    # (monthly, selected, the rule that the entry breaks or None, the message);
    # a test's id names the rule, or else the message
    BAD_ENTRIES = [
        ([[]], [[]], None, "monthly[0] has no 'month'"),
        ([None], [[]], None, "monthly[0] has no 'month'"),
        (["x"], [[]], None, "monthly[0] has no 'month'"),
        ([{"month": 3}], [[]], "monthly[0]: 'month' must be of type str",
         "monthly[0]: 'month': expected str, got 3"),
        ([{"fpr": "x"}], [[]], "'fpr' must be of type int or float or NoneType",
         "monthly[0]: 'fpr': expected one of [0.0], got 'x'"),
        ([{"tp": 1.5}], [[]], "monthly[0]: 'tp' must be of type int",
         "monthly[0]: 'tp': expected int >= 0, got 1.5"),
        ([{}, {}], [[], 3], "selected_ids[1] must be of type list",
         "selected_ids[1]: expected list, got 3"),
        # JSON true and false are not counts or ratios
        ([{"tp": True}], [[]], "monthly[0]: 'tp' must be of type int",
         "monthly[0]: 'tp': expected int >= 0, got True"),
        ([{"fpr": False}], [[]], "'fpr' must be of type int or float or NoneType",
         "'fpr': expected one of [0.0], got False"),
        # a ratio is the ratio of its counts: finite, in [0, 1]
        ([{"f1": float("nan")}], [[]], "'f1' must be a number in [0, 1] or null, got nan",
         "'f1': expected one of [1.0], got nan"),
        ([{"fnr": float("inf")}], [[]], "'fnr' must be a number in [0, 1] or null",
         "'fnr': expected one of [0.0], got inf"),
        ([{"fpr": 1.5}], [[]], "'fpr' must be a number in [0, 1] or null",
         "'fpr': expected one of [0.0], got 1.5"),
        ([{"f1": -1}], [[]], "'f1' must be a number in [0, 1] or null",
         "'f1': expected one of [1.0], got -1"),
        ([{}, {"month": "2020-13"}], [[], []], None, "monthly[1]: 'month': expected YYYY-MM"),
        # a count is an int >= 0, and a ratio must agree with the counts
        ([{"tp": -3}], [[]], None, "monthly[0]: 'tp': expected int >= 0, got -3"),
        ([{"f1": 0.5}], [[]], None, "'f1': expected one of [1.0], got 0.5"),
        ([{"fnr": None}], [[]], None, "'fnr': expected one of [0.0], got None"),
        # with no positive row F1 and FNR are undefined, so they must be null
        ([{"tp": 0}], [[]], None, "'f1': expected one of [None], got 1.0"),
        ([{"tp": 0, "f1": None}], [[]], None, "'fnr': expected one of [None], got 0.0"),
    ]

    @pytest.mark.parametrize("monthly,selected,problem", [
        pytest.param(monthly, selected, problem,
                     id=f"monthly{i}-selected{i}-{rule or problem}")
        for i, (monthly, selected, rule, problem) in enumerate(BAD_ENTRIES)])
    def test_report_bad_entry(self, tmp_path, capsys, monthly, selected, problem):
        monthly = [self._month(**m) if isinstance(m, dict) else m
                   for m in monthly]
        src = tmp_path / "result.json"
        src.write_text(json.dumps({"monthly": monthly, "selected_ids": selected}))
        assert main(["report", "--result", str(src),
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert problem in capsys.readouterr().err

    def test_report_valid_entries(self, tmp_path):
        src = tmp_path / "result.json"
        no_positive = dict(tp=0, f1=None, fnr=None)
        src.write_text(json.dumps({
            "monthly": [self._month(), self._month(month="2020-04", **no_positive)],
            "selected_ids": [["a", "b"], []],
        }))
        assert main(["report", "--result", str(src),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert (tmp_path / "out" / "result.csv").read_text().splitlines()[1:] == [
            "2020-03,1,0,2,0,100.0,0.0,0.0,2", "2020-04,0,0,2,0,,,0.0,0",
        ]

    @pytest.mark.parametrize("command", ["train", "stream"])
    def test_train_seed_rejected(self, tmp_path, capsys, command):
        cfg = base_config()
        cfg["train"]["seed"] = 7
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                     "--seed", "0"]) == EXIT_CONFIG
        assert "train: unknown keys ['seed']" in capsys.readouterr().err

    def test_manifest_missing_key_exits_data(self, tmp_path, capsys):
        gen = dio.DriftGeneratorConfig(dim=20, months=4,
                                       samples_per_month_per_class=25)
        ds_dir = tmp_path / "ds"
        dio.save_dataset(dio.synth_drift_generate(gen), ds_dir)
        edit_manifest(ds_dir, lambda m: m.pop("feature_dim"))
        cfg = base_config(dataset=str(ds_dir))
        del cfg["generator"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert "has no 'feature_dim'" in capsys.readouterr().err

    @pytest.mark.parametrize("split", [{"train_months": 2}, {"train": "2020-01"}])
    @pytest.mark.parametrize("command", ["train", "stream"])
    def test_dataset_without_rows_exits_data(self, tmp_path, capsys, command, split):
        ds_dir = tmp_path / "ds"
        ds_dir.mkdir()
        (ds_dir / "manifest.json").write_text(json.dumps(
            {"version": 1, "name": "empty", "feature_dim": 20, "shards": []}))
        cfg = base_config(dataset=str(ds_dir), split=split)
        del cfg["generator"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                     "--seed", "0"]) == EXIT_DATA
        assert f"dataset {ds_dir} has no rows" in capsys.readouterr().err

    def test_synth_unknown_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, format="parquet")
        assert main(["synth", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "parquet" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("train", "seeds", 3),
        ("bench", "seeds", []),
        ("train", "seeds", ["a"]),
        ("stream", "seeds", [0.5]),
        ("train", "label_ratio", "x"),
        ("train", "noise_rate", "x"),
        ("train", "split.train_months", "x"),
        ("train", "split.train", 5),
        ("stream", "stream.budget", "x"),
        ("stream", "stream.budget", -1),
        ("stream", "stream.retrain_epochs", 0),
        ("ablate", "ablate.budgets", ["x"]),
        ("train", "seed", -1),
        ("noise", "noise_rates", ["x"]),
        ("bench", "bench.sizes", [0]),
        ("bench", "bench.budget", "x"),
        # a section that is not an object, or a list entry of the wrong type
        ("train", "split", 5),
        ("stream", "stream", 5),
        ("train", "generator", 5),
        ("train", "train", 5),
        ("ablate", "ablate", 5),
        ("bench", "bench", 5),
        ("train", "train.hidden", ["x"]),
        ("train", "train.hidden", [0]),
        ("stream", "stream.selector", 5),
        ("ablate", "ablate.selectors", 5),
        ("bench", "bench.sizes", 5),
        ("report", "result", 5),
        ("synth", "format", []),
        # [0, 1] values are range-checked before any training starts
        ("train", "label_ratio", 1.5),
        ("stream", "label_ratio", -0.1),
        ("train", "noise_rate", 1.5),
        ("noise", "noise_rates", [0.0, 1.5]),
        ("bench", "seeds", [0, 1]),
        # the generator is checked before any data is made
        ("synth", "generator.seed", -1),
        ("train", "generator.months", 2.5),
        ("train", "generator.samples_per_month_per_class", -1),
        ("train", "generator.drift_rate", 1.5),
        ("train", "generator.overlap", -0.1),
        ("train", "generator.dim", 0),
        ("synth", "generator.drift_rate", True),
        # a malformed split period is a config value, not a data error
        ("train", "split.train", "2020-13"),
        ("stream", "split.stream", "2020-04..2020-03"),
        # every config dataclass field is typed and range-checked
        ("stream", "train.epochs", 1.5),
        ("stream", "train.epochs", True),
        ("stream", "train.labeled_batch", 2.5),
        ("stream", "train.unlabeled_batch", True),
        ("stream", "train.learning_rate", "x"),
        ("stream", "train.learning_rate", 0),
        ("stream", "train.loss.lambda_u", "x"),
        ("stream", "train.loss.lambda_u", True),
        ("stream", "train.augment.weak_prob", "x"),
        ("stream", "train.augment.weak_prob", 0.5),  # above the default strong_prob
        ("stream", "stream.selector.alpha", True),
        ("stream", "stream.selector.p_norm", "x"),
        ("stream", "stream.selector.p_norm", 0.5),
        ("stream", "stream.selector.beta", "x"),
        ("stream", "stream.selector.gamma", -1),
        ("stream", "stream.selector.low_confidence_cutoff", "x"),
        ("stream", "stream.selector.low_confidence_cutoff", -3),
        ("stream", "stream.selector.kind", "entropy"),
        ("ablate", "ablate.selectors", ["entropy"]),
        # a ratio that labels none of the 100 training rows
        ("stream", "label_ratio", 0),
        ("stream", "label_ratio", 0.001),
        # a repeated seed would run the same run twice
        *[(command, "seeds", [0, 1, 0])
          for command in ("train", "stream", "ablate", "bench", "noise")],
        # a JSON Infinity or NaN is no finite float
        ("stream", "train.learning_rate", math.inf),
        ("stream", "train.loss.lambda_u", math.inf),
        ("stream", "train.loss.contrastive_temperature", math.inf),
        ("stream", "stream.selector.alpha", math.inf),
        ("stream", "stream.selector.gamma", math.nan),
        # more malformed split periods, and a training period beside a count of
        # training months
        ("train", "split.train", "202001"),
        ("train", "split.train", "2020-03.."),
        ("stream", "split", {"train": "2020-01..2020-02", "train_months": -7}),
        # generated months end at 9999-12; month 95,761 would be 10000-01
        ("synth", "generator.months", 95_761),
    ])
    def test_bad_config_value_exits_config(self, tmp_path, capsys, command, key,
                                           value):
        cfg = base_config(bench={"sizes": [30], "budget": 3})
        if key == "split.train":  # a training period takes the place of the count
            del cfg["split"]["train_months"]
        *sections, name = key.split(".")
        entry = cfg
        for part in sections:
            entry = entry.setdefault(part, {})
        entry[name] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"{key}: expected" in capsys.readouterr().err

    def test_top_level_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("[]")
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "expected an object, got []" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,period", [
        ("train", "train", "2099-01"),
        ("stream", "stream", "2099-01..2099-03"),
    ])
    def test_split_period_without_dataset_month(self, tmp_path, capsys, command,
                                                key, period):
        cfg = write_config(tmp_path, split={key: period})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "0"]) == EXIT_CONFIG
        assert f"split.{key}: no month of the dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,problem", [
        (["train", "--label-ratio", "1.5"], "label_ratio: expected float in [0, 1]"),
        (["ablate", "--budgets"], "ablate.budgets: expected a nonempty list"),
        (["bench", "--sizes"], "bench.sizes: expected a nonempty list"),
    ])
    def test_bad_flag_value_exits_config(self, tmp_path, capsys, argv, problem):
        cfg = write_config(tmp_path)
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "out"),
                            "--seed", "0"]) == EXIT_CONFIG
        assert problem in capsys.readouterr().err

    def test_negative_seed_flag_exits_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "-1"]) == EXIT_CONFIG
        assert "--seed: expected" in capsys.readouterr().err

    def test_negative_synth_seed_flag_exits_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "-1"]) == EXIT_CONFIG
        assert "generator.seed: expected int >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("train", "optimizer", "sgd"),
        ("train", "lr_schedule", "cosine"),
        ("train.loss", "normalize_embeddings", False),
        ("stream", "warm_start", False),
        ("stream", "retrain_epoch", 3),
        # every section rejects unknown keys, whichever command reads it
        ("split", "train_month", 1),
        ("ablate", "budget", [3]),
        ("bench", "budgets", [3]),
        ("", "label_ration", 0.9),  # the top level
        # a key that driftal no longer reads fails loudly instead of being ignored
        ("stream.selector", "intersection_quantile", 0.5),
        ("bench", "dim", 8),
        ("generator", "prob_low", 0.02),
        ("generator", "prob_high", 0.85),
        ("generator", "start_month", "2020-01"),
    ])
    def test_unread_config_key_rejected(self, tmp_path, capsys, section, key, value):
        cfg = base_config()
        entry = cfg
        for part in filter(None, section.split(".")):
            entry = entry.setdefault(part, {})
        entry[key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["stream", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--seed", "0"]) == EXIT_CONFIG
        assert key in capsys.readouterr().err


class TestFlags:
    """Each command takes only the flags it reads; argparse exits 2 on the rest."""

    @pytest.mark.parametrize("argv", [
        ["ablate", "--label-ratio", "0.9"],
        ["synth", "--budget", "99"],
        ["synth", "--selector", "random"],
        ["train", "--budget", "5"],
        ["bench", "--selector", "random"],
        ["noise", "--label-ratio", "0.5"],
        ["report", "--seed", "0"],
    ])
    def test_unread_flag_rejected(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # the argument lists perfbench/workloads.py passes
        ["ablate", "--seed", "3"],
        ["stream", "--seed", "3", "--selector", "random", "--budget", "400"],
    ])
    def test_benchmark_arguments_parse(self, argv):
        args = build_parser().parse_args(argv + ["--config", "c.json", "--out", "o"])
        assert args.seed == 3 and args.config == "c.json"

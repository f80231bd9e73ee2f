import json

import numpy as np
import pytest

from driftal import data as dio
from driftal.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, build_parser, main
from driftal.net import Classifier

from test_data import edit_manifest, rewrite_shard


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
    def test_writes_dataset_and_run_json(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == EXIT_OK
        run = json.loads((out / "run.json").read_text())
        assert run["command"] == "synth"
        assert (out / "dataset" / "manifest.json").exists()
        # every artifact hash must match the file on disk
        import hashlib

        for rel, digest in run["artifacts"].items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest

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


    def test_split_stream_next_to_train_months(self, tmp_path):
        cfg = write_config(tmp_path, split={"train_months": 2, "stream": "2020-04"})
        out = tmp_path / "out"
        assert main(["stream", "--config", cfg, "--out", str(out),
                     "--seed", "0"]) == EXIT_OK
        result = json.loads((out / "seed0" / "result.json").read_text())
        assert [m["month"] for m in result["monthly"]] == ["2020-04"]


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
                del single["config_hash"], single["seeds"]
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


class TestRunJson:
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

    @pytest.mark.parametrize("text,problem", [
        ("{not json", "not valid JSON"),
        ("{}", "has no 'monthly'"),
        ('{"monthly": []}', "has no 'selected_ids'"),
        ("[]", "has no 'monthly'"),
        ('{"monthly": {}, "selected_ids": []}', "'monthly' must be of type list"),
        ("\udcff", "not valid JSON"),
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
                 "f1": 1.0, "fnr": 0.0, "fpr": None}
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

    @pytest.mark.parametrize("monthly,selected,problem", [
        ([[]], [[]], "monthly[0] has no 'month'"),
        ([None], [[]], "monthly[0] has no 'month'"),
        (["x"], [[]], "monthly[0] has no 'month'"),
        ([{"month": 3}], [[]], "monthly[0]: 'month' must be of type str"),
        ([{"fpr": "x"}], [[]], "'fpr' must be of type int or float or NoneType"),
        ([{"tp": 1.5}], [[]], "monthly[0]: 'tp' must be of type int"),
        ([{}, {}], [[], 3], "selected_ids[1] must be of type list"),
    ])
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
        src.write_text(json.dumps({
            "monthly": [self._month(), self._month(month="2020-04", f1=None)],
            "selected_ids": [["a", "b"], []],
        }))
        assert main(["report", "--result", str(src),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert (tmp_path / "out" / "result.csv").read_text().splitlines()[1:] == [
            "2020-03,1,0,2,0,100.0,0.0,,2", "2020-04,1,0,2,0,,0.0,,0",
        ]

    @pytest.mark.parametrize("command", ["train", "stream"])
    def test_train_seed_rejected(self, tmp_path, capsys, command):
        cfg = base_config()
        cfg["train"]["seed"] = 7
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                     "--seed", "0"]) == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err

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
        ("bench", "bench.dim", "x"),
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
        ("bench", "bench.hidden", 5),
        ("report", "result", 5),
        ("synth", "format", []),
        # [0, 1] values are range-checked before any training starts
        ("train", "label_ratio", 1.5),
        ("stream", "label_ratio", -0.1),
        ("train", "noise_rate", 1.5),
        ("noise", "noise_rates", [0.0, 1.5]),
        ("bench", "seeds", [0, 1]),
    ])
    def test_bad_config_value_exits_config(self, tmp_path, capsys, command, key,
                                           value):
        cfg = base_config(bench={"sizes": [30], "budget": 3})
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
        cfg = write_config(tmp_path, split={"train_months": 2, key: period})
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

    @pytest.mark.parametrize("section,key,value", [
        ("train", "optimizer", "sgd"),
        ("train", "lr_schedule", "cosine"),
        ("train.loss", "normalize_embeddings", False),
        ("stream", "warm_start", False),
        ("stream", "retrain_epoch", 3),
    ])
    def test_unread_config_key_rejected(self, tmp_path, capsys, section, key, value):
        cfg = base_config()
        entry = cfg
        for part in section.split("."):
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

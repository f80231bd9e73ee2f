import hashlib
import json
import math
import re
import struct

import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftal import data as dio
from driftal.cli import EXIT_DATA, main
from driftal.config import ConfigError
from driftal.experiment import Experiment
from driftal.losses import LossConfig
from driftal.metrics import compute_metrics
from driftal.selection import SelectorConfig
from driftal.stream import months_from_dataset
from driftal.trainer import TrainConfig, build_model, train


def make_dataset(n=100, d=10, months=("2020-01", "2020-02"), seed=0):
    rng = np.random.default_rng(seed)
    records = [
        dio.FeatureRecord(
            f"r{i:04d}",
            months[i % len(months)],
            int(rng.integers(0, 2)),
            (rng.random(d) < 0.5).astype(np.uint8),
        )
        for i in range(n)
    ]
    return dio.Dataset("test", d, records)


def edited(ds, k, **fields):
    """The records of ``ds`` with record ``k``'s ``fields`` replaced."""
    records = ds.records
    vars(records[k]).update(fields)
    return records


def rewrite_shard(ds_dir, suffix, edit, **fields):
    """Replace the first ``suffix`` shard's bytes with ``edit(raw)``.

    The manifest checksum is rewritten to match (and any ``fields`` set on
    the shard's entry), so only the shard reader can catch the damage.
    """
    mpath = ds_dir / "manifest.json"
    manifest = json.loads(mpath.read_text())
    shard = next(s for s in manifest["shards"] if s["file"].endswith(suffix))
    path = ds_dir / shard["file"]
    raw = edit(path.read_bytes())
    path.write_bytes(raw)
    shard["sha256"] = hashlib.sha256(raw).hexdigest()
    shard.update(fields)
    mpath.write_text(json.dumps(manifest))


def set_csv_cell(raw, col, value):
    """CSV shard bytes with the first data row's column ``col`` set to ``value``."""
    lines = raw.decode().split("\n")
    cells = lines[1].split(",")
    cells[col] = value
    lines[1] = ",".join(cells)
    return "\n".join(lines).encode()


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_save_load_identity(self, tmp_path, fmt):
        ds = make_dataset()
        dio.save_dataset(ds, tmp_path / "ds", fmt=fmt)
        manifest, loaded = dio.load_dataset(tmp_path / "ds")
        original = {r.id: r for r in ds.records}
        assert len(loaded.records) == len(ds.records)
        for r in loaded.records:
            o = original[r.id]
            assert r.month == o.month and r.label == o.label
            assert (r.features == o.features).all()

    def test_checksum_failure_names_shard(self, tmp_path):
        ds = make_dataset()
        dio.save_dataset(ds, tmp_path / "ds")
        shard = next((tmp_path / "ds").glob("*.bfv"))
        shard.write_bytes(shard.read_bytes()[:-1] + b"\x00")
        with pytest.raises(dio.DataError, match=shard.name):
            dio.load_dataset(tmp_path / "ds")

    def test_dim_mismatch_names_shard(self, tmp_path):
        ds = make_dataset()
        dio.save_dataset(ds, tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        manifest["feature_dim"] = 99
        (tmp_path / "ds" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(dio.DataError, match="99"):
            dio.load_dataset(tmp_path / "ds")

    def test_manifest_counts_match_recount(self, tmp_path):
        ds = make_dataset()
        dio.save_dataset(ds, tmp_path / "ds")
        manifest, loaded = dio.load_dataset(tmp_path / "ds")
        rows = loaded.month_rows()
        for shard in manifest["shards"]:
            labels = loaded.y[rows[shard["month"]]]
            assert shard["benign"] == (labels == 0).sum()
            assert shard["malware"] == (labels == 1).sum()


class TestShardValidation:
    """Damaged shards with valid checksums fail as DataError, never silently."""

    @staticmethod
    def saved(tmp_path, fmt="binary", ds=None):
        dio.save_dataset(ds or make_dataset(), tmp_path / "ds", fmt=fmt)
        return tmp_path / "ds"

    def test_truncated_binary(self, tmp_path):
        ds_dir = self.saved(tmp_path)
        rewrite_shard(ds_dir, ".bfv", lambda raw: raw[:-3])
        with pytest.raises(dio.DataError, match="truncated"):
            dio.load_dataset(ds_dir)

    def test_truncated_binary_header(self, tmp_path):
        ds_dir = self.saved(tmp_path)
        rewrite_shard(ds_dir, ".bfv", lambda raw: raw[:10])
        with pytest.raises(dio.DataError):
            dio.load_dataset(ds_dir)

    def test_trailing_bytes_binary(self, tmp_path):
        ds_dir = self.saved(tmp_path)
        rewrite_shard(ds_dir, ".bfv", lambda raw: raw + b"\x00\x01")
        with pytest.raises(dio.DataError, match="trailing"):
            dio.load_dataset(ds_dir)

    @pytest.mark.parametrize("value", ["7", "10", "", "x", "0.0"])
    def test_csv_feature_outside_bits(self, tmp_path, value):
        ds_dir = self.saved(tmp_path, fmt="csv")
        rewrite_shard(ds_dir, ".csv", lambda raw: set_csv_cell(raw, 2, value))
        with pytest.raises(dio.DataError):
            dio.load_dataset(ds_dir)

    def test_csv_short_row(self, tmp_path):
        ds_dir = self.saved(tmp_path, fmt="csv")
        rewrite_shard(ds_dir, ".csv", lambda raw: raw + b"r9999,1\n")
        with pytest.raises(dio.DataError):
            dio.load_dataset(ds_dir)

    def test_csv_cell_moved_between_rows(self, tmp_path):
        # one row one cell long and the next one cell short: the byte count
        # of the shard is unchanged, only the row boundaries move
        def shift(raw):
            lines = raw.decode().split("\n")
            lines[1] += ",1"
            lines[2] = lines[2][:-2]
            return "\n".join(lines).encode()

        ds_dir = self.saved(tmp_path, fmt="csv")
        rewrite_shard(ds_dir, ".csv", shift)
        with pytest.raises(dio.DataError, match="cells"):
            dio.load_dataset(ds_dir)

    def test_binary_label_outside_classes(self, tmp_path):
        ds_dir = self.saved(tmp_path)
        # the first record's label byte follows the 16-byte header
        rewrite_shard(ds_dir, ".bfv", lambda raw: raw[:16] + b"\x02" + raw[17:])
        with pytest.raises(dio.DataError, match="labels"):
            dio.load_dataset(ds_dir)

    # int("+1") == int("01") == int("0_1") == int("\uff11") == 1, but a label
    # cell must be exactly 0 or 1
    @pytest.mark.parametrize("value", ["2", "-1", " 1", "+1", "01", "0_1", "\uff11"])
    def test_csv_label_outside_classes(self, tmp_path, value):
        ds_dir = self.saved(tmp_path, fmt="csv")
        rewrite_shard(ds_dir, ".csv", lambda raw: set_csv_cell(raw, 1, value))
        with pytest.raises(dio.DataError, match="labels"):
            dio.load_dataset(ds_dir)
        with pytest.raises(dio.DataError, match="not an id,label,features table"):
            dio.load_dataset(ds_dir)

    def test_binary_padding_bits_set(self, tmp_path):
        # d = 3: each row is one byte whose 5 low bits are padding; the bits
        # column follows the header, n label bytes and n uint16 id lengths
        ds_dir = self.saved(tmp_path, ds=make_dataset(d=3))
        raw = (ds_dir / "2020-01.bfv").read_bytes()
        n = struct.unpack_from("<I", raw, 12)[0]
        row = 16 + 3 * n
        rewrite_shard(ds_dir, ".bfv",
                      lambda raw: raw[:row] + bytes([raw[row] | 0x01]) + raw[row + 1:])
        with pytest.raises(dio.DataError, match="padding bits"):
            dio.load_dataset(ds_dir)

    def test_version_1_shard_exits_data(self, tmp_path, capsys):
        # no reader of the v1 layout (each row's label, id length, id and bits
        # in turn) is kept; `driftal synth` writes the dataset again
        ds_dir = self.saved(tmp_path)
        rewrite_shard(ds_dir, ".bfv", lambda raw: raw[:4] + struct.pack("<I", 1) + raw[8:])
        with pytest.raises(dio.DataError, match="shard 2020-01.bfv has unsupported version 1"):
            dio.load_dataset(ds_dir)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": str(ds_dir), "split": {"train_months": 1},
                                      "train": {"epochs": 1, "hidden": [4]}}))
        assert main(["train", "--config", str(config),
                     "--out", str(tmp_path / "out"), "--seed", "0"]) == EXIT_DATA
        assert "unsupported version 1" in capsys.readouterr().err

    def test_csv_label_beyond_int64(self, tmp_path):
        raw = b"id,label,f0,f1\na,99999999999999999999,0,1"
        with pytest.raises(dio.DataError, match="not an id,label,features table"):
            dio._read_shard_csv(raw, 2, "2020-01.csv")
        ds_dir = self.saved(tmp_path, fmt="csv")
        rewrite_shard(ds_dir, ".csv",
                      lambda raw: set_csv_cell(raw, 1, "-99999999999999999999"))
        with pytest.raises(dio.DataError, match="2020-01.csv"):
            dio.load_dataset(ds_dir)

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_duplicate_ids_across_shards(self, tmp_path, fmt):
        ds = make_dataset()
        # consecutive rows alternate months
        ds = dio.Dataset("test", 10, edited(ds, 1, id=ds.ids[0]))
        ds_dir = self.saved(tmp_path, fmt=fmt, ds=ds)
        with pytest.raises(dio.DataError, match=ds.ids[0]):
            dio.load_dataset(ds_dir)

    @pytest.mark.parametrize("fmt,suffix", [("binary", ".bfv"), ("csv", ".csv")])
    def test_empty_shard_loads(self, tmp_path, fmt, suffix):
        ds_dir = self.saved(tmp_path, fmt=fmt)
        write = dio._shard_bytes_binary if fmt == "binary" else dio._shard_bytes_csv
        empty = ([], np.zeros(0, dtype=np.int64), np.zeros((0, 10), dtype=np.uint8))
        rewrite_shard(ds_dir, suffix, lambda raw: write(*empty),
                      benign=0, malware=0)
        _, loaded = dio.load_dataset(ds_dir)
        assert len(loaded.records) == 50


def edit_manifest(ds_dir, edit):
    """Apply ``edit`` to the parsed manifest of ``ds_dir`` and write it back."""
    mpath = ds_dir / "manifest.json"
    manifest = json.loads(mpath.read_text())
    edit(manifest)
    mpath.write_text(json.dumps(manifest))


class TestManifestValidation:
    """A damaged manifest fails as a DataError naming the file and the key."""

    saved = staticmethod(TestShardValidation.saved)

    @pytest.mark.parametrize("raw", [
        b"{not json", b"\xff",
        pytest.param(b"[" + b"1" * 5000 + b"]", id="int-digit-limit"),
    ])
    def test_not_json(self, tmp_path, raw):
        ds_dir = self.saved(tmp_path)
        (ds_dir / "manifest.json").write_bytes(raw)
        with pytest.raises(dio.DataError, match="manifest.json is not valid JSON"):
            dio.load_dataset(ds_dir)

    @pytest.mark.parametrize("key", ["feature_dim", "name", "shards"])
    def test_missing_key(self, tmp_path, key):
        ds_dir = self.saved(tmp_path)
        edit_manifest(ds_dir, lambda m: m.pop(key))
        with pytest.raises(dio.DataError, match=f"manifest.json has no '{key}'"):
            dio.load_dataset(ds_dir)

    @pytest.mark.parametrize(
        "key", ["month", "file", "format", "sha256", "benign", "malware"])
    def test_missing_shard_key(self, tmp_path, key):
        ds_dir = self.saved(tmp_path)
        edit_manifest(ds_dir, lambda m: m["shards"][1].pop(key))
        with pytest.raises(dio.DataError,
                           match=f"manifest.json shard 1 has no '{key}'"):
            dio.load_dataset(ds_dir)

    @pytest.mark.parametrize("entry,key,value", [
        (None, "feature_dim", "10"),
        (None, "shards", {}),
        (0, "month", 202001),
        (0, "file", 5),
        (0, "format", ["csv"]),
        (0, "benign", "25"),
        # a JSON true or false is not an int
        (None, "feature_dim", True),
        (None, "version", True),
        (0, "benign", True),
        (1, "malware", False),
    ])
    def test_wrong_value_type(self, tmp_path, entry, key, value):
        ds_dir = self.saved(tmp_path)

        def edit(m):
            (m if entry is None else m["shards"][entry])[key] = value

        edit_manifest(ds_dir, edit)
        with pytest.raises(dio.DataError, match=f"'{key}': expected .*, got "):
            dio.load_dataset(ds_dir)

    @pytest.mark.parametrize("dim", [0])
    def test_feature_dim_below_one(self, tmp_path, dim):
        ds_dir = self.saved(tmp_path)
        edit_manifest(ds_dir, lambda m: m.update(feature_dim=dim))
        with pytest.raises(dio.DataError,
                           match=f"'feature_dim': expected int >= 1, got {dim!r}"):
            dio.load_dataset(ds_dir)

    def test_missing_shard_file(self, tmp_path):
        ds_dir = self.saved(tmp_path)
        (ds_dir / "2020-02.bfv").unlink()
        with pytest.raises(dio.DataError, match="2020-02.bfv"):
            dio.load_dataset(ds_dir)

    def test_unknown_shard_format(self, tmp_path):
        # a CSV shard under another format name must not be read as CSV
        ds_dir = self.saved(tmp_path, fmt="csv")
        edit_manifest(ds_dir, lambda m: m["shards"][0].update(format="tsv"))
        with pytest.raises(dio.DataError, match=re.escape(
                "shard 0: 'format': expected one of ['binary', 'csv'], got 'tsv'")):
            dio.load_dataset(ds_dir)

    @pytest.mark.parametrize("fmt,rid", [
        ("binary", "x" * 0x10000),
        ("binary", "\u20ac" * 21846),  # 65,538 UTF-8 bytes in 21,846 characters
        ("csv", "a,b"), ("csv", "a\nb"), ("csv", "a\rb"), ("csv", "a\u2028b"),
        ("binary", "a\ud800"), ("csv", "a\ud800"),
    ])
    def test_save_rejects_an_id_the_format_cannot_carry(self, tmp_path, fmt, rid):
        # in the last month, so every other shard is valid
        ds = dio.Dataset("test", 10, edited(make_dataset(), -1, id=rid))
        with pytest.raises(dio.DataError, match=re.escape(repr(rid[:32]))):
            dio.save_dataset(ds, tmp_path / "ds", fmt=fmt)
        assert not (tmp_path / "ds").exists()

    def test_binary_id_of_65535_bytes_round_trips(self, tmp_path):
        ds = dio.Dataset("test", 10, edited(make_dataset(), 0, id="x" * 0xFFFF))
        dio.save_dataset(ds, tmp_path / "ds")
        _, loaded = dio.load_dataset(tmp_path / "ds")
        assert loaded.ids[0] == ds.ids[0]

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    @pytest.mark.parametrize("features", [[2, 0, 255], [0.5, 0, 1], [-1, 0, 1]])
    def test_save_rejects_a_value_outside_bits(self, tmp_path, fmt, features):
        # a binary shard would keep only nonzero-ness; the Dataset is never built
        records = edited(make_dataset(d=3), -1, features=np.array(features))
        with pytest.raises(dio.DataError, match=records[-1].id):
            dio.save_dataset(dio.Dataset("test", 3, records), tmp_path / "ds", fmt=fmt)
        assert not (tmp_path / "ds").exists()

    def test_save_rejects_unknown_format(self, tmp_path):
        with pytest.raises(dio.DataError, match="'CSV'"):
            dio.save_dataset(make_dataset(), tmp_path / "ds", fmt="CSV")


def per_cell_csv(records, dim):
    """CSV shard bytes formatted one cell at a time: the writer's reference."""
    lines = ["id,label," + ",".join(f"f{i}" for i in range(dim))]
    for r in records:
        lines.append(f"{r.id},{r.label}," + ",".join(str(int(v)) for v in r.features))
    return ("\n".join(lines) + "\n").encode()


def write_csv(records, dim):
    X, y, ids = dio.record_arrays(records, dim)
    return dio._shard_bytes_csv(ids, y, X)


class TestCsvWriter:
    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_matches_per_cell_reference(self, n):
        records = make_dataset(n=n, d=13).records
        assert write_csv(records, 13) == per_cell_csv(records, 13)

    def test_generated_dataset_matches_per_cell_reference(self):
        gen = dio.DriftGeneratorConfig(dim=30, months=2, samples_per_month_per_class=20)
        ds = dio.synth_drift_generate(gen)
        for rows in ds.month_rows().values():
            records = ds.take(rows).records
            assert write_csv(records, 30) == per_cell_csv(records, 30)


class TestRecordValues:
    """Every label and feature value that reaches the model is 0 or 1."""

    @pytest.mark.parametrize("label,features", [
        (2, [0, 1, 1]), (-1, [0, 1, 1]), (1, [0, 2, 1]), (0, [0, 1, 255]),
        (1, [0.0, 1.0, 0.5]), (0.5, [0, 1, 1]), ("1", [0, 1, 1]),
    ])
    def test_arrays_reject_a_value_outside_bits(self, label, features):
        records = edited(make_dataset(n=4, d=3), 2, label=label,
                         features=np.array(features))
        with pytest.raises(dio.DataError, match="record 'r0002' has a label or feature"):
            dio.record_arrays(records, 3)
        with pytest.raises(dio.DataError, match="record 'r0002' has a label or feature"):
            dio.Dataset("test", 3, records)

    @pytest.mark.parametrize("label", [2, -1, "1", None])
    def test_label_ratio_split_rejects_a_label_outside_classes(self, label):
        # the check fires when the split's input is built
        records = edited(make_dataset(), 7, label=label)
        with pytest.raises(dio.DataError, match="record 'r0007' has a label or feature"):
            dio.label_ratio_split(dio.Dataset("test", 10, records), 0.4, 0)


class Labels:
    """What ``label_ratio_split`` reads of a Dataset: its length, its labels and
    ``take``, which here gives the labels of the rows a mask keeps."""

    def __init__(self, y):
        self.y = y

    def __len__(self):
        return len(self.y)

    def take(self, mask):
        return self.y[mask]


def check_apportionment(n0, n1, target):
    """The labeled counts of a split of n0 benign and n1 malware rows that
    labels ``target`` rows, against each class's exact quota."""
    n = n0 + n1
    ratio = target / n
    labeled, _ = dio.label_ratio_split(Labels(np.repeat([0, 1], [n0, n1])), ratio, 0)
    counts = np.bincount(labeled, minlength=2).tolist()
    assert sum(counts) == round(ratio * n) == target
    quotas = [Fraction(target * size, n) for size in (n0, n1)]
    assert all(abs(c - q) < 1 for c, q in zip(counts, quotas))
    floors = [math.floor(q) for q in quotas]
    if sum(floors) < target:
        # one row is left over: the larger remainder gets it, class 0 on a tie
        gets = 0 if quotas[0] - floors[0] >= quotas[1] - floors[1] else 1
        assert counts[gets] == floors[gets] + 1
    else:
        assert counts == floors


@st.composite
def class_sizes_and_target(draw):
    sizes = draw(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).filter(any))
    return sizes + (draw(st.integers(1, sum(sizes))),)


class TestLabelRatioSplit:
    @settings(max_examples=100, deadline=None)
    @given(class_sizes_and_target())
    @example((1, 1, 1))  # a tie: class 0
    @example((3, 0, 2))
    @example((10**6, 10**6 - 1, 10**6))
    def test_counts_apportion_the_target(self, case):
        check_apportionment(*case)

    def test_every_target_of_small_classes(self):
        for n0 in range(12):
            for n1 in range(12):
                for target in range(1, n0 + n1 + 1):
                    check_apportionment(n0, n1, target)

    def test_ratio_one(self):
        ds = make_dataset()
        labeled, unlabeled = dio.label_ratio_split(ds, 1.0, 0)
        assert len(labeled.records) == 100 and not unlabeled.records

    def test_ratio_size(self):
        ds = make_dataset()
        labeled, unlabeled = dio.label_ratio_split(ds, 0.4, 0)
        assert len(labeled.records) == 40
        assert len(unlabeled.records) == 60

    def test_stratification_within_one(self):
        ds = make_dataset(n=200)
        labeled, _ = dio.label_ratio_split(ds, 0.4, 1)
        total_mal = sum(r.label for r in ds.records)
        got_mal = sum(r.label for r in labeled.records)
        expected = 80 * total_mal / 200
        assert abs(got_mal - expected) <= 1

    @pytest.mark.parametrize("ratio", [0.0, 0.001])
    def test_ratio_that_labels_no_row_rejected(self, ratio):
        problem = (f"^label_ratio: expected a ratio that labels at least one of the "
                   f"100 training rows, got {ratio}$")
        with pytest.raises(ConfigError, match=problem):
            dio.label_ratio_split(make_dataset(), ratio, 0)

    @pytest.mark.parametrize("ratio", [1.5, -0.1, "x", None, True])
    def test_ratio_outside_unit_interval_rejected(self, ratio):
        problem = f"^label_ratio: expected float in \\[0, 1\\], got {ratio!r}$"
        with pytest.raises(ConfigError, match=problem):
            dio.label_ratio_split(make_dataset(), ratio, 0)

    def test_disjoint_and_exhaustive(self):
        ds = make_dataset()
        labeled, unlabeled = dio.label_ratio_split(ds, 0.3, 2)
        ids_l = {r.id for r in labeled.records}
        ids_u = {r.id for r in unlabeled.records}
        assert not ids_l & ids_u
        assert ids_l | ids_u == {r.id for r in ds.records}


class TestLabelNoise:
    def test_rate_zero_unchanged(self):
        ds = make_dataset()
        noisy = dio.inject_label_noise(ds, 0.0, 0)
        assert [r.label for r in noisy.records] == [r.label for r in ds.records]

    def test_rate_one_flips_all(self):
        ds = make_dataset()
        noisy = dio.inject_label_noise(ds, 1.0, 0)
        assert all(a.label == 1 - b.label
                   for a, b in zip(noisy.records, ds.records))

    @pytest.mark.parametrize("rate", [1.5, -0.1, "x", None, True])
    def test_rate_outside_unit_interval_rejected(self, rate):
        problem = f"^noise_rate: expected float in \\[0, 1\\], got {rate!r}$"
        with pytest.raises(ConfigError, match=problem):
            dio.inject_label_noise(make_dataset(), rate, 0)

    def test_exact_flip_count_and_seed_variation(self):
        ds = make_dataset(n=50)
        noisy = dio.inject_label_noise(ds, 0.2, 0)
        flipped = [i for i, (a, b) in enumerate(zip(noisy.records, ds.records))
                   if a.label != b.label]
        assert len(flipped) == 10
        other = dio.inject_label_noise(ds, 0.2, 1)
        flipped2 = [i for i, (a, b) in enumerate(zip(other.records, ds.records))
                    if a.label != b.label]
        assert flipped != flipped2


class TestDriftGenerator:
    def test_stationary_without_drift(self):
        cfg = dio.DriftGeneratorConfig(
            dim=40, months=4, samples_per_month_per_class=400,
            drift_rate=0.0, seed=0,
        )
        ds = dio.synth_drift_generate(cfg)
        rows = list(ds.month_rows().values())
        first, last = ds.take(rows[0]), ds.take(rows[-1])
        for label in (0, 1):
            a = first.X[first.y == label].mean(0)
            b = last.X[last.y == label].mean(0)
            sigma = np.sqrt(np.maximum(a * (1 - a), 0.25) / 400)
            assert (np.abs(a - b) <= 3 * 2 * sigma + 1e-9).all()

    def test_class_balance_and_month_count(self):
        cfg = dio.DriftGeneratorConfig(dim=20, months=3,
                                       samples_per_month_per_class=50, seed=1)
        ds = dio.synth_drift_generate(cfg)
        assert len(ds.months()) == 3
        for rows in ds.month_rows().values():
            assert np.bincount(ds.y[rows]).tolist() == [50, 50]

    def test_byte_identical_shards_per_seed(self, tmp_path):
        cfg = dio.DriftGeneratorConfig(dim=16, months=2,
                                       samples_per_month_per_class=30, seed=5)
        dio.save_dataset(dio.synth_drift_generate(cfg), tmp_path / "a")
        dio.save_dataset(dio.synth_drift_generate(cfg), tmp_path / "b")
        for pa in sorted((tmp_path / "a").glob("*.bfv")):
            pb = tmp_path / "b" / pa.name
            assert pa.read_bytes() == pb.read_bytes()

    def test_full_drift_degrades_static_but_not_retrained(self):
        cfg = dio.DriftGeneratorConfig(
            dim=60, months=6, samples_per_month_per_class=150,
            drift_rate=1.0, overlap=0.0, seed=3,
        )
        ds = dio.synth_drift_generate(cfg)
        by_month = ds.month_rows()
        months = list(by_month)

        def arrays(month):
            rows = by_month[month]
            return ds.X[rows], ds.y[rows]

        tcfg = TrainConfig(epochs=20, hidden=(16, 8), loss=LossConfig(lambda_u=0,
                           lambda_con=0))
        X0, y0 = arrays(months[0])
        static = build_model(60, tcfg, 0)
        static, _ = train(static, (X0, y0), np.zeros((0, 60)), tcfg, 0)
        Xn, yn = arrays(months[-1])
        f1_first = compute_metrics(static.predict_batch(X0).argmax(1), y0).f1
        f1_static = compute_metrics(static.predict_batch(Xn).argmax(1), yn).f1

        fresh = build_model(60, tcfg, 0)
        fresh, _ = train(fresh, arrays(months[-1]), np.zeros((0, 60)), tcfg, 0)
        f1_fresh = compute_metrics(fresh.predict_batch(Xn).argmax(1), yn).f1
        assert f1_first - f1_static >= 0.20
        assert f1_fresh >= f1_first - 0.05

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            dio.DriftGeneratorConfig(drift_rate=1.5)
        with pytest.raises(ConfigError):
            dio.DriftGeneratorConfig(overlap=-0.1)

    @pytest.mark.parametrize("name,value", [
        ("dim", 0), ("dim", True), ("months", 2.5), ("samples_per_month_per_class", -1),
        ("seed", -1),
    ])
    def test_invalid_field_named(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name}: expected"):
            dio.DriftGeneratorConfig(**{name: value})


class TestMonthParsing:
    def test_parse_period_range(self):
        months = dio.parse_period("2019-11..2020-02")
        assert months == ["2019-11", "2019-12", "2020-01", "2020-02"]

    def test_bad_month_rejected(self):
        with pytest.raises(dio.DataError):
            dio.parse_period("2020-13")
        with pytest.raises(dio.DataError):
            dio.parse_period("202001")


def columns(ds):
    """Everything a Dataset holds, in a form ``==`` compares exactly."""
    return (ds.name, ds.feature_dim, ds.ids, ds.row_months, ds.y.dtype, ds.y.tolist(),
            ds.X.dtype, ds.X.shape, ds.X.tobytes())


@st.composite
def datasets(draw):
    """0-5 rows over three months in any order, with multi-byte UTF-8 ids and
    a feature_dim that need not be a multiple of 8."""
    d = draw(st.integers(1, 19))
    n = draw(st.integers(0, 5))
    ids = draw(st.lists(st.text("a\u00e9\u20ac\U0001f600-", min_size=1, max_size=4),
                        min_size=n, max_size=n, unique=True))
    months = draw(st.lists(st.sampled_from(["2020-01", "2020-02", "2021-12"]),
                           min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    bits = draw(st.lists(st.integers(0, 1), min_size=n * d, max_size=n * d))
    return dio.Dataset.from_arrays("prop", d, np.array(bits, np.uint8).reshape(n, d),
                                   np.array(y, np.int64), ids, months)


class TestColumns:
    @settings(max_examples=60, deadline=None)
    @given(ds=datasets())
    def test_records_and_shards_keep_the_columns(self, ds):
        assert columns(dio.Dataset(ds.name, ds.feature_dim, ds.records)) == columns(ds)
        # a saved dataset loads month by month, each month's rows in row order
        by_month = ds.take(np.concatenate([[], *ds.month_rows().values()]).astype(int))
        with tempfile.TemporaryDirectory() as tmp:
            for fmt in ("binary", "csv"):
                dio.save_dataset(ds, Path(tmp) / fmt, fmt=fmt)
                _, loaded = dio.load_dataset(Path(tmp) / fmt)
                assert columns(loaded) == columns(by_month)

    def test_records_are_a_copy(self):
        ds = make_dataset(n=3, d=4)
        records = ds.records
        records[0].features[:] = 1 - records[0].features
        records[0].label = 1 - records[0].label
        assert columns(ds) == columns(make_dataset(n=3, d=4))
        with pytest.raises(AttributeError):
            ds.records = []

    def test_from_arrays_stores_uint8_and_int64(self):
        ds = dio.Dataset.from_arrays("t", 2, [[0.0, 1.0], [1.0, 1.0]], [True, False],
                                     ("a", "b"), ["2020-01", "2020-02"])
        assert ds.X.dtype == np.uint8 and ds.y.dtype == np.int64
        assert ds.X.tolist() == [[0, 1], [1, 1]] and ds.y.tolist() == [1, 0]
        assert ds.ids == ["a", "b"] and len(ds) == 2

    @pytest.mark.parametrize("X,y,ids,months", [
        (np.zeros((3, 2)), [0, 1], ["a", "b"], ["2020-01"] * 2),
        (np.zeros((2, 3)), [0, 1], ["a", "b"], ["2020-01"] * 2),
        (np.zeros((2, 2)), [[0, 1]], ["a", "b"], ["2020-01"] * 2),
        (np.zeros((2, 2)), [0, 1], ["a", "b"], ["2020-01"]),
        (np.zeros(4), [0, 1], ["a", "b"], ["2020-01"] * 2),
    ])
    def test_from_arrays_rejects_columns_of_other_lengths(self, X, y, ids, months):
        with pytest.raises(dio.DataError, match="do not fit 2 ids of 2 features"):
            dio.Dataset.from_arrays("t", 2, X, y, ids, months)

    @pytest.mark.parametrize("X,y", [
        ([[0, 1], [2, 0]], [0, 1]), ([[0, 1], [0, 255]], [0, 1]),
        ([[0, 1], [0.5, 0]], [0, 1]), ([[0, 1], [-1, 0]], [0, 1]),
        ([[0, 1], [0, 0]], [0, 2]), ([[0, 1], [0, 0]], [0, 0.5]),
        ([[0, 1], [0, 0]], np.array([0, "1"], dtype=object)),
    ])
    def test_from_arrays_rejects_a_value_outside_bits(self, X, y):
        with pytest.raises(dio.DataError, match="record 'b' has a label or feature"):
            dio.Dataset.from_arrays("t", 2, np.array(X), np.array(y), ["a", "b"],
                                    ["2020-01", "2020-01"])

    def test_month_rows(self):
        ds = make_dataset(n=7, months=("2020-03", "2020-01", "2020-03"))
        rows = ds.month_rows()
        assert list(rows) == ["2020-01", "2020-03"]
        assert [r.tolist() for r in rows.values()] == [[1, 4], [0, 2, 3, 5, 6]]
        assert ds.take(np.isin(ds.row_months, "2020-01")).ids == ["r0001", "r0004"]
        assert dio.Dataset("empty", 3).month_rows() == {}

    def test_no_record_between_generator_and_stream(self, tmp_path, monkeypatch):
        def no_record(*args):
            raise AssertionError("a FeatureRecord was built")

        monkeypatch.setattr(dio, "FeatureRecord", no_record)
        gen = dio.DriftGeneratorConfig(dim=12, months=3, samples_per_month_per_class=20)
        dio.save_dataset(dio.synth_drift_generate(gen), tmp_path / "ds")
        _, ds = dio.load_dataset(tmp_path / "ds")
        months = ds.months()
        stream = months_from_dataset(ds, {months[2], months[0]})
        assert list(stream) == [months[0], months[2]]
        for month, block in stream.items():
            want = ds.take(ds.month_rows()[month])
            assert (block.ids, block.row_months) == (want.ids, want.row_months)
            assert np.array_equal(block.X, want.X) and np.array_equal(block.y, want.y)
        exp = Experiment(ds, months[:2], months[2:], label_ratio=0.5, noise_rate=0.2,
                         train_cfg=TrainConfig(epochs=1, hidden=(4,)), retrain_epochs=1)
        result = exp.run(SelectorConfig(kind="random"), 5, 0)
        assert [m.month for m in result.monthly] == months[2:]

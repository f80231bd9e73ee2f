import hashlib
import json
import re
import struct

import numpy as np
import pytest

from driftal import data as dio
from driftal.config import ConfigError
from driftal.losses import LossConfig
from driftal.metrics import compute_metrics
from driftal.trainer import TrainConfig, build_model, train


def make_dataset(n=100, d=10, months=("2020-01", "2020-02"), seed=0):
    rng = np.random.default_rng(seed)
    ds = dio.Dataset("test", d)
    for i in range(n):
        ds.records.append(
            dio.FeatureRecord(
                f"r{i:04d}",
                months[i % len(months)],
                int(rng.integers(0, 2)),
                (rng.random(d) < 0.5).astype(np.uint8),
            )
        )
    return ds


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
        by_month = loaded.by_month()
        for shard in manifest["shards"]:
            records = by_month[shard["month"]]
            assert shard["benign"] == sum(1 for r in records if r.label == 0)
            assert shard["malware"] == sum(1 for r in records if r.label == 1)


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
        # d = 3: each row is one byte whose 5 low bits are padding
        ds_dir = self.saved(tmp_path, ds=make_dataset(d=3))
        raw = (ds_dir / "2020-01.bfv").read_bytes()
        _, idlen = struct.unpack_from("<BH", raw, 16)
        row = 16 + 3 + idlen
        rewrite_shard(ds_dir, ".bfv",
                      lambda raw: raw[:row] + bytes([raw[row] | 0x01]) + raw[row + 1:])
        with pytest.raises(dio.DataError, match="padding bits"):
            dio.load_dataset(ds_dir)

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
        ds.records[1].id = ds.records[0].id  # consecutive rows alternate months
        ds_dir = self.saved(tmp_path, fmt=fmt, ds=ds)
        with pytest.raises(dio.DataError, match=ds.records[0].id):
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

    @pytest.mark.parametrize("raw", [b"{not json", b"\xff"])
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
    ])
    def test_wrong_value_type(self, tmp_path, entry, key, value):
        ds_dir = self.saved(tmp_path)

        def edit(m):
            (m if entry is None else m["shards"][entry])[key] = value

        edit_manifest(ds_dir, edit)
        with pytest.raises(dio.DataError, match=f"'{key}' must be of type"):
            dio.load_dataset(ds_dir)

    @pytest.mark.parametrize("dim", [0, True])
    def test_feature_dim_below_one(self, tmp_path, dim):
        ds_dir = self.saved(tmp_path)
        edit_manifest(ds_dir, lambda m: m.update(feature_dim=dim))
        with pytest.raises(dio.DataError,
                           match=f"'feature_dim' must be an int >= 1, got {dim!r}"):
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
        with pytest.raises(dio.DataError, match="2020-01.csv has unknown format 'tsv'"):
            dio.load_dataset(ds_dir)

    @pytest.mark.parametrize("fmt,rid", [
        ("binary", "x" * 0x10000),
        ("binary", "\u20ac" * 21846),  # 65,538 UTF-8 bytes in 21,846 characters
        ("csv", "a,b"), ("csv", "a\nb"), ("csv", "a\rb"), ("csv", "a\u2028b"),
        ("binary", "a\ud800"), ("csv", "a\ud800"),
    ])
    def test_save_rejects_an_id_the_format_cannot_carry(self, tmp_path, fmt, rid):
        ds = make_dataset()
        ds.records[-1].id = rid  # in the last month, so every other shard is valid
        with pytest.raises(dio.DataError, match=re.escape(repr(rid[:32]))):
            dio.save_dataset(ds, tmp_path / "ds", fmt=fmt)
        assert not (tmp_path / "ds").exists()

    def test_binary_id_of_65535_bytes_round_trips(self, tmp_path):
        ds = make_dataset()
        ds.records[0].id = "x" * 0xFFFF
        dio.save_dataset(ds, tmp_path / "ds")
        _, loaded = dio.load_dataset(tmp_path / "ds")
        assert loaded.records[0].id == ds.records[0].id

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
        for records in dio.synth_drift_generate(gen).by_month().values():
            assert write_csv(records, 30) == per_cell_csv(records, 30)


class TestLabelRatioSplit:
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
        by_month = ds.by_month()
        months = list(by_month)
        first = by_month[months[0]]
        last = by_month[months[-1]]
        for label in (0, 1):
            a = np.stack([r.features for r in first if r.label == label]).mean(0)
            b = np.stack([r.features for r in last if r.label == label]).mean(0)
            sigma = np.sqrt(np.maximum(a * (1 - a), 0.25) / 400)
            assert (np.abs(a - b) <= 3 * 2 * sigma + 1e-9).all()

    def test_class_balance_and_month_count(self):
        cfg = dio.DriftGeneratorConfig(dim=20, months=3,
                                       samples_per_month_per_class=50, seed=1)
        ds = dio.synth_drift_generate(cfg)
        assert len(ds.months()) == 3
        for records in ds.by_month().values():
            assert sum(1 for r in records if r.label == 0) == 50
            assert sum(1 for r in records if r.label == 1) == 50

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
        by_month = ds.by_month()
        months = list(by_month)

        def arrays(month):
            recs = by_month[month]
            X = np.stack([r.features for r in recs])
            y = np.array([r.label for r in recs])
            return X, y

        tcfg = TrainConfig(epochs=20, hidden=(16, 8), loss=LossConfig(lambda_u=0,
                           lambda_con=0), seed=0)
        X0, y0 = arrays(months[0])
        static = build_model(60, tcfg)
        static, _ = train(static, (X0, y0), np.zeros((0, 60)), tcfg)
        Xn, yn = arrays(months[-1])
        f1_first = compute_metrics(static.predict_batch(X0).argmax(1), y0).f1
        f1_static = compute_metrics(static.predict_batch(Xn).argmax(1), yn).f1

        fresh = build_model(60, tcfg)
        fresh, _ = train(fresh, arrays(months[-1]), np.zeros((0, 60)), tcfg)
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
        ("seed", -1), ("prob_low", 2), ("prob_high", -0.1),
        ("prob_low", 0.9),  # above the default prob_high
        ("start_month", "2020-13"), ("start_month", 202001), ("start_month", "2020-1x"),
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

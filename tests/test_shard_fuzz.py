"""Bounded fuzzing of the dataset boundary: both shard readers and the manifest.

Every input must end in a ``DataError`` or in a correct load, never in any
other exception. A correct shard read is well formed, and an intact shard
reads as the rows it was written from. A binary shard that reads is written
back to the same bytes; a CSV shard reads back the same after it is written
again (its reader accepts CRLF rows and any header names, which the writer
does not reproduce). A correct manifest load holds exactly the rows of the
shard files its entries name, in entry order, under each entry's month, and
its integer keys hold ints, not a JSON ``true`` or ``false``.
"""

import functools
import json
import struct

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from driftal import data as dio

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
FORMATS = {"binary": (dio._shard_bytes_binary, dio._read_shard_binary),
           "csv": (dio._shard_bytes_csv, dio._read_shard_csv)}


@st.composite
def shards(draw, fmt):
    """(raw bytes, dim to read with, the written rows or None if mutated)."""
    dim = draw(st.integers(1, 12))
    n = draw(st.integers(0, 4))
    ids = draw(st.lists(st.text("ab9-é", max_size=5), min_size=n, max_size=n,
                        unique=True))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    bits = draw(st.lists(st.integers(0, 1), min_size=n * dim, max_size=n * dim))
    X = np.array(bits, dtype=np.uint8).reshape(n, dim)
    raw = FORMATS[fmt][0](ids, np.array(labels, dtype=np.int64), X)
    label = draw(st.none() | st.integers())  # any integer as the first CSV label
    relabeled = fmt == "csv" and n > 0 and label not in (None, labels[0])
    if relabeled:
        head, row, rest = raw.split(b"\n", 2)
        raw = b"\n".join([head, row.replace(f",{labels[0]},".encode(),
                                             f",{label},".encode(), 1), rest])
    raw = bytearray(raw)
    edits = draw(st.lists(st.tuples(st.sampled_from(["cut", "set", "insert", "delete"]),
                                    st.integers(0, 10**6),
                                    st.binary(min_size=1, max_size=4)), max_size=3))
    for op, pos, chunk in edits:
        pos %= len(raw) + 1
        if op == "cut":
            del raw[pos:]
        elif op == "set" and pos < len(raw):
            raw[pos] = chunk[0]
        elif op == "insert":
            raw[pos:pos] = chunk
        elif op == "delete":
            del raw[pos:pos + len(chunk)]
    read_dim = dim if draw(st.booleans()) else draw(st.integers(1, 12))
    intact = not edits and read_dim == dim and not relabeled
    return bytes(raw), read_dim, (ids, labels, X) if intact else None


def check_read(fmt, raw, dim, written):
    write, read = FORMATS[fmt]
    try:
        ids, labels, X = read(raw, dim, "fuzz")
    except dio.DataError:
        assert written is None, "an intact shard failed to read"
        return
    assert len(ids) == len(labels) == len(X) and all(isinstance(i, str) for i in ids)
    assert labels.dtype == np.int64 and X.dtype == np.uint8
    assert X.shape == (len(ids), dim) and not (X > 1).any()
    if fmt == "binary":
        assert write(ids, labels, X) == raw
    else:
        again = read(write(ids, labels, X), dim, "fuzz")
        assert again[0] == ids and (again[1] == labels).all() and (again[2] == X).all()
    if written is not None:
        assert ids == written[0] and labels.tolist() == written[1]
        assert (X == written[2]).all()


@FUZZ
@given(case=shards("binary"))
@example(case=(b"BFVS" + b"\x01\x00\x00\x00" * 2 + b"\xff" * 4, 1, None))
# one record of 3 features whose last padding bit is set
@example(case=(b"BFVS" + struct.pack("<III", 1, 3, 1) + b"\x00\x00\x00\xe1", 3, None))
def test_binary_shard_reader(case):
    check_read("binary", *case)


@FUZZ
@given(case=shards("csv"))
@example(case=(b"id,label,f0,f1\na,99999999999999999999,0,1", 2, None))
@example(case=(b"id,label,f0,f1\na,-99999999999999999999,0,1\n", 2, None))
def test_csv_shard_reader(case):
    check_read("csv", *case)


# ---------------------------------------------------------------------------
# the manifest
# ---------------------------------------------------------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)
TOP_KEYS = ["version", "name", "feature_dim", "shards"]
SHARD_KEYS = ["month", "file", "format", "sha256", "benign", "malware"]


@functools.cache
def saved_dataset(ds_dir):
    """A 2-month dataset whose shards exist in both formats; returns the manifest
    (month 1 binary, month 2 CSV) and the rows of each shard file."""
    rng = np.random.default_rng(0)
    ds = dio.Dataset("fuzz", 6, [dio.FeatureRecord(f"r{i}", f"2020-0{1 + i % 2}",
                                                   int(rng.integers(0, 2)),
                                                   (rng.random(6) < 0.5).astype(np.uint8))
                                 for i in range(8)])
    dio.save_dataset(ds, ds_dir, fmt="csv")
    csv_shards = json.loads((ds_dir / "manifest.json").read_text())["shards"]
    dio.save_dataset(ds, ds_dir, fmt="binary")
    manifest = json.loads((ds_dir / "manifest.json").read_text())
    manifest["shards"] = [manifest["shards"][0], csv_shards[1]]
    rows = {f"2020-0{m}{suffix}": [r for r in ds.records if r.month == f"2020-0{m}"]
            for m in (1, 2) for suffix in (".bfv", ".csv")}
    return manifest, rows


# values that keep a manifest plausible, so that some edits still load
PLAUSIBLE = st.sampled_from([0, 1, 4, 6, 7, "2020-01", "2020-02", "2020-03", "2020-13",
                             "binary", "csv", "2020-01.bfv", "2020-02.csv",
                             "2020-02.bfv", "manifest.json", "..", "", "\x00", "fuzz",
                             "../ds/2020-01.bfv", "/ds/2020-02.csv"])


@st.composite
def manifest_edits(draw):
    """(op, shard index or None, key, value) edits of the manifest."""
    n = draw(st.integers(0, 4))
    ops = []
    for _ in range(n):
        op = draw(st.sampled_from(["set", "set", "delete", "duplicate", "drop"]))
        shard = draw(st.none() | st.integers(0, 1))
        key = draw(st.sampled_from(TOP_KEYS if shard is None else SHARD_KEYS))
        ops.append((op, shard, key, draw(PLAUSIBLE | JSON)))
    return ops


def apply_edits(manifest, edits):
    manifest = json.loads(json.dumps(manifest))
    for op, shard, key, value in edits:
        shards = manifest.get("shards")
        target = manifest
        if shard is not None:
            if not isinstance(shards, list) or shard >= len(shards):
                continue
            target = shards[shard]
            if op == "duplicate":
                shards.append(json.loads(json.dumps(target)))
                continue
            if op == "drop":
                del shards[shard]
                continue
        if not isinstance(target, dict):
            continue
        if op == "set":
            target[key] = value
        elif op == "delete":
            target.pop(key, None)
    return manifest


@FUZZ
@given(edits=manifest_edits(), whole=st.none() | JSON)
@example(edits=[("set", 0, "file", "\x00")], whole=None)
@example(edits=[("set", 0, "file", "../ds/2020-01.bfv")], whole=None)
@example(edits=[("set", None, "version", True)], whole=None)
@example(edits=[("set", 0, "benign", True)], whole=None)
@example(edits=[("set", 0, "benign", 7)], whole=None)  # more rows than shard 0 holds
def test_manifest(tmp_path, edits, whole):
    ds_dir = tmp_path / "ds"
    base, rows = saved_dataset(ds_dir)  # the shards are written once per test run
    manifest = apply_edits(base, edits) if whole is None else whole
    (ds_dir / "manifest.json").write_text(json.dumps(manifest))
    try:
        _, dataset = dio.load_dataset(ds_dir)
    except dio.DataError:
        assert edits or whole is not None, "the intact manifest failed to load"
        return
    assert all(shard["file"] in rows for shard in manifest["shards"]), \
        "read a file that is not one of the dataset's shards"
    assert all(type(entry[key]) is int for entry, key in [
        (manifest, "version"), (manifest, "feature_dim"),
        *((shard, key) for shard in manifest["shards"] for key in ("benign", "malware"))
    ]), "read a true or false as a number"
    expected = [(r.id, shard["month"], r.label, r.features.tolist())
                for shard in manifest["shards"] for r in rows[shard["file"]]]
    assert dataset.name == manifest["name"]
    assert dataset.feature_dim == manifest["feature_dim"]
    assert [(r.id, r.month, r.label, r.features.tolist())
            for r in dataset.records] == expected

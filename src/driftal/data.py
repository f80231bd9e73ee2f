"""Dataset format, splits, label noise, and the synthetic drift generator.

On disk a dataset is a JSON manifest plus one shard per month. Shards are
either CSV (``id,label,f0..f{d-1}``) or a compact packed-bit binary
layout; both readers are supported and the writer defaults to binary.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from pathlib import Path

import numpy as np

from .config import ConfigError, check_fields, checked, entry

MAGIC = b"BFVS"
BINARY_VERSION = 1
MANIFEST_VERSION = 1


class DataError(ValueError):
    pass


@dataclass
class FeatureRecord:
    id: str
    month: str  # YYYY-MM
    label: int  # 0 benign, 1 malware
    features: np.ndarray  # uint8 {0,1} vector


@dataclass
class Dataset:
    name: str
    feature_dim: int
    records: list = field(default_factory=list)

    def months(self):
        return sorted({r.month for r in self.records})

    def by_month(self):
        out = {}
        for r in self.records:
            out.setdefault(r.month, []).append(r)
        return {m: out[m] for m in sorted(out)}

    def to_arrays(self):
        """(X uint8 matrix, y int vector, ids list), record order preserved."""
        return record_arrays(self.records, self.feature_dim)

    def subset(self, indices):
        return Dataset(self.name, self.feature_dim, [self.records[i] for i in indices])


def check_month(month, key="month", error=DataError):
    """(year, month) of a 'YYYY-MM' string; any other value is an error naming ``key``."""
    parts = month.split("-") if isinstance(month, str) and month.isascii() else []
    if ([len(p) for p in parts] == [4, 2] and all(p.isdigit() for p in parts)
            and 1 <= int(parts[1]) <= 12):
        return int(parts[0]), int(parts[1])
    raise error(f"{key}: expected YYYY-MM, got {month!r}")


def month_range(start, end):
    """All YYYY-MM strings from start to end inclusive."""
    y0, m0 = check_month(start)
    y1, m1 = check_month(end)
    if (y0, m0) > (y1, m1):
        raise DataError(f"month range {start}..{end} is reversed")
    out = []
    y, m = y0, m0
    while (y, m) <= (y1, m1):
        out.append(f"{y:04d}-{m:02d}")
        m += 1
        if m == 13:
            y, m = y + 1, 1
    return out


def parse_period(period):
    """Parse 'YYYY-MM..YYYY-MM' (or a single 'YYYY-MM') into a month list."""
    if ".." in period:
        start, end = period.split("..", 1)
        return month_range(start, end)
    check_month(period)
    return [period]


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------


BINARY_HEADER = struct.Struct("<4sIII")  # magic, version, dim, record count
MAX_BINARY_ID_BYTES = 0xFFFF  # the id length is a little-endian uint16
# characters that end a CSV cell or (for ``str.splitlines``) a CSV row
CSV_ID_BREAKS = ",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def record_arrays(records, dim):
    """(X uint8 [n, dim], y int64 [n], ids) of ``records``, in record order.

    Every feature vector must have shape ``(dim,)``, and every label and
    feature value must be 0 or 1. The rows are joined by one concatenate and
    reshape, which is 3-5x faster than ``np.stack`` on 10^4 rows; the shape
    check catches the ragged rows a bare reshape would accept.
    """
    rows = list(map(attrgetter("features"), records))
    if set(map(attrgetter("shape"), rows)) - {(dim,)}:
        k = next(k for k, x in enumerate(rows) if x.shape != (dim,))
        raise DataError(f"record {records[k].id!r} has features of shape "
                        f"{rows[k].shape}, expected ({dim},)")
    X = (np.concatenate(rows).reshape(len(rows), dim) if rows
         else np.zeros((0, dim), dtype=np.uint8))
    labels = list(map(attrgetter("label"), records))
    # cheap screens (the set of labels, the max of a uint8 matrix), then exact
    if not set(labels) <= {0, 1} or X.dtype != np.uint8 or X.max(initial=0) > 1:
        bad = [v not in (0, 1) for v in labels] | ((X != 0) & (X != 1)).any(axis=1)
        if bad.any():
            raise DataError(f"record {records[int(np.argmax(bad))].id!r} has a label "
                            "or feature value other than 0 and 1")
    y = np.fromiter(labels, dtype=np.int64, count=len(rows))
    return X, y, list(map(attrgetter("id"), records))


def _utf8_ids(ids):
    """The UTF-8 bytes of each id and their lengths as an array."""
    try:
        raw_ids = [i.encode() for i in ids]
    except UnicodeEncodeError as e:
        raise DataError(f"id {e.object!r} cannot be encoded as UTF-8") from None
    return raw_ids, np.fromiter(map(len, raw_ids), dtype=np.intp, count=len(raw_ids))


def _insert_ids(block, at, raw_ids, idlen):
    """The bytes of ``block``'s rows, each with its record's id inserted
    before column ``at``, placed through one boolean run mask."""
    n, width = block.shape
    runs = np.empty((n, 3), dtype=np.intp)
    runs[:, 0], runs[:, 1], runs[:, 2] = at, idlen, width - at
    is_id = np.repeat(np.tile([False, True, False], n), runs.ravel())
    out = np.empty(is_id.size, dtype=np.uint8)
    out[~is_id] = block.ravel()
    out[is_id] = np.frombuffer(b"".join(raw_ids), dtype=np.uint8)
    return out.tobytes()


def _shard_bytes_binary(ids, labels, X):
    """Binary shard bytes of the rows ``(ids, labels, X)``, whose labels and
    features ``record_arrays`` has checked to be 0 or 1.

    After the header each record holds its label byte, the little-endian
    uint16 byte length of its UTF-8 id, the id, and ``ceil(d / 8)`` bytes of
    ``np.packbits`` bits whose padding bits are 0.
    """
    n, d = X.shape
    raw_ids, idlen = _utf8_ids(ids)
    if n and idlen.max() > MAX_BINARY_ID_BYTES:
        k = int(np.argmax(idlen > MAX_BINARY_ID_BYTES))
        raise DataError(f"id {ids[k][:32]!r}... has {idlen[k]} UTF-8 bytes; "
                        f"a binary shard holds at most {MAX_BINARY_ID_BYTES}")
    block = np.empty((n, 3 + (d + 7) // 8), dtype=np.uint8)
    block[:, 0] = labels
    block[:, 1] = idlen & 0xFF
    block[:, 2] = idlen >> 8
    block[:, 3:] = np.packbits(X, axis=1)
    header = BINARY_HEADER.pack(MAGIC, BINARY_VERSION, d, n)
    return header + _insert_ids(block, 3, raw_ids, idlen)


def _read_shard_binary(raw, dim, path):
    """(ids, labels, X) of one binary shard; every byte must belong to a record,
    every label must be 0 or 1 and every padding bit 0."""
    if len(raw) < BINARY_HEADER.size or raw[:4] != MAGIC:
        raise DataError(f"shard {path} has bad magic bytes or a short header")
    _, version, d, count = BINARY_HEADER.unpack_from(raw)
    if version != BINARY_VERSION:
        raise DataError(f"shard {path} has unsupported version {version}")
    if d != dim:
        raise DataError(f"shard {path} has dim {d}, manifest expects {dim}")
    nbytes = (d + 7) // 8
    # each record starts after the last one's 3 + id length + nbytes bytes
    off, starts = BINARY_HEADER.size, []
    try:
        for _ in range(count):
            starts.append(off)
            off += 3 + raw[off + 1] + (raw[off + 2] << 8) + nbytes
    except IndexError:
        raise DataError(f"shard {path} is truncated or malformed: record "
                        f"{len(starts) - 1} has no id length") from None
    if off > len(raw):
        raise DataError(f"shard {path} is truncated: {count} records do not fit "
                        f"in {len(raw)} bytes")
    if off < len(raw):
        raise DataError(f"shard {path} has {len(raw) - off} trailing bytes "
                        "after its last record")
    buf = np.frombuffer(raw, dtype=np.uint8)
    starts = np.array(starts, dtype=np.intp)
    labels = buf[starts].astype(np.int64)
    if (labels > 1).any():
        raise DataError(f"shard {path} has labels outside {{0, 1}}")
    id_from = starts + 3
    id_to = id_from + buf[starts + 1] + (buf[starts + 2].astype(np.intp) << 8)
    try:
        ids = [raw[a:b].decode() for a, b in zip(id_from.tolist(), id_to.tolist())]
    except UnicodeDecodeError as e:
        raise DataError(f"shard {path} is truncated or malformed: {e}") from None
    packed = buf[np.add.outer(id_to, np.arange(nbytes))]
    if d % 8 and (packed[:, -1] & (0xFF >> d % 8)).any():
        raise DataError(f"shard {path} has set padding bits after feature {d - 1}")
    return ids, labels, np.unpackbits(packed, axis=1, count=d)


def _has_csv_break(text):
    return any(c in text for c in CSV_ID_BREAKS)


def _shard_bytes_csv(ids, labels, X):
    """CSV shard bytes of the rows ``(ids, labels, X)``, checked as for
    ``_shard_bytes_binary``: a header, then per row ``id,label,`` and one
    ``b,`` per feature with the last "," as "\n"."""
    n, dim = X.shape
    if _has_csv_break("".join(ids)):
        bad = next(i for i in ids if _has_csv_break(i))
        raise DataError(f"id {bad!r} holds a comma or a line break, which a CSV "
                        "shard cannot carry")
    raw_ids, idlen = _utf8_ids(ids)
    block = np.full((n, 3 + 2 * dim), ord(","), dtype=np.uint8)
    block[:, 1] = labels + ord("0")
    block[:, 3::2] = X + ord("0")
    block[:, -1] = ord("\n")
    header = "id,label," + ",".join(f"f{i}" for i in range(dim)) + "\n"
    return header.encode() + _insert_ids(block, 0, raw_ids, idlen)


def _read_shard_csv(raw, dim, path):
    """(ids, labels, X) of one CSV shard; every label and feature cell must be
    exactly 0 or 1."""
    try:
        header, *lines = raw.decode().splitlines()
        rows = [line.split(",", 2) for line in lines]
        ids = [r[0] for r in rows]
        labels = [r[1] for r in rows]
        if not set(labels) <= {"0", "1"}:
            bad = next(label for label in labels if label not in ("0", "1"))
            raise ValueError(f"labels must be 0 or 1, got {bad!r}")
        cells = [r[2] for r in rows]
    except (UnicodeDecodeError, ValueError, IndexError) as e:
        raise DataError(f"shard {path} is not an id,label,features table: {e}") from None
    if len(header.split(",")) != dim + 2:
        raise DataError(f"shard {path} has {len(header.split(',')) - 2} features, "
                        f"expects {dim}")
    # a valid row's cells are "b,b,...,b" with b in {0, 1}: 2 * dim - 1 bytes
    body = np.frombuffer(",".join([*cells, ""]).encode(), np.uint8)
    if set(map(len, cells)) - {2 * dim - 1} or body.size != 2 * dim * len(cells):
        raise DataError(f"shard {path} has rows that are not {dim} 0/1 cells")
    # read as a little-endian uint16, the cell "0," is 0x2C30 and "1," 0x2C31
    X = body.view("<u2") - np.uint16(0x2C30)
    if (X > 1).any():
        raise DataError(f"shard {path} has feature cells other than 0 or 1")
    labels = np.frombuffer("".join(labels).encode(), np.uint8) - ord("0")
    return ids, labels.astype(np.int64), X.astype(np.uint8).reshape(len(cells), dim)


# format -> (file suffix, writer, reader)
SHARD_FORMATS = {
    "binary": (".bfv", _shard_bytes_binary, _read_shard_binary),
    "csv": (".csv", _shard_bytes_csv, _read_shard_csv),
}


def save_dataset(dataset, path, fmt="binary"):
    """Write manifest + per-month shards under ``path``.

    Every shard is encoded before anything is written, so a row that the
    format cannot carry raises ``DataError`` and leaves ``path`` untouched.
    """
    if fmt not in SHARD_FORMATS:
        raise DataError(f"unknown shard format {fmt!r}")
    suffix, write, _ = SHARD_FORMATS[fmt]
    encoded = []
    for month, records in dataset.by_month().items():
        X, labels, ids = record_arrays(records, dataset.feature_dim)
        encoded.append((month, labels, write(ids, labels, X)))
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    shards = []
    for month, labels, raw in encoded:
        fname = month + suffix
        (path / fname).write_bytes(raw)
        benign = int((labels == 0).sum())
        shards.append(
            {
                "month": month,
                "file": fname,
                "format": fmt,
                "sha256": hashlib.sha256(raw).hexdigest(),
                "benign": benign,
                "malware": len(labels) - benign,
            }
        )
    manifest = {
        "version": MANIFEST_VERSION,
        "name": dataset.name,
        "feature_dim": dataset.feature_dim,
        "shards": shards,
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return path


def check_unique_ids(ids, error, where):
    """Raise ``error`` naming the first repeated ids, if ``ids`` has any."""
    if len(set(ids)) != len(ids):
        dups = sorted(i for i, n in Counter(ids).items() if n > 1)
        raise error(f"{where}: repeated ids {dups[:5]}")


def load_dataset(path):
    """Read and validate a dataset directory; returns (manifest, Dataset)."""
    path = Path(path)
    mpath = path / "manifest.json"
    if not mpath.exists():
        raise DataError(f"no manifest.json under {path}")
    try:
        manifest = json.loads(mpath.read_text())
    except ValueError as e:  # bad JSON or UTF-8, or an int too long to convert
        raise DataError(f"{mpath} is not valid JSON: {e}") from None
    entry(manifest, "version", mpath, int, DataError, choices=(MANIFEST_VERSION,))
    dataset = Dataset(entry(manifest, "name", mpath, str, DataError),
                      entry(manifest, "feature_dim", mpath, int, DataError, minimum=1))
    all_ids = []
    for pos, shard in enumerate(entry(manifest, "shards", mpath, list, DataError)):
        at = f"{mpath} shard {pos}"
        month = entry(shard, "month", at, str, DataError)
        check_month(month, f"{at}: 'month'")
        fname = entry(shard, "file", at, str, DataError)
        fmt = entry(shard, "format", at, str, DataError, choices=SHARD_FORMATS)
        sha256 = entry(shard, "sha256", at, str, DataError)
        benign, malware = (entry(shard, key, at, int, DataError, minimum=0)
                           for key in ("benign", "malware"))
        if Path(fname).name != fname or "\x00" in fname:
            raise DataError(f"{at}: 'file' must name a file in {path}, got {fname!r}")
        try:
            raw = (path / fname).read_bytes()
        except OSError as e:
            raise DataError(f"cannot read shard {path / fname}: {e.strerror}") from None
        if hashlib.sha256(raw).hexdigest() != sha256:
            raise DataError(f"shard {fname} failed checksum validation")
        _, _, read = SHARD_FORMATS[fmt]
        ids, labels, X = read(raw, dataset.feature_dim, fname)
        if (labels == 0).sum() != benign or (labels == 1).sum() != malware:
            raise DataError(f"shard {fname} counts disagree with manifest")
        dataset.records.extend(map(FeatureRecord, ids, repeat(month), labels.tolist(), X))
        all_ids += ids
    check_unique_ids(all_ids, DataError, f"dataset {path}")
    return manifest, dataset


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def label_ratio_split(train, ratio, seed):
    """Stratified labeled/unlabeled split with |D_l| = round(ratio * N)."""
    if not 0.0 <= ratio <= 1.0:
        raise DataError(f"label ratio {ratio} outside [0, 1]")
    n = len(train.records)
    target = int(round(ratio * n))
    rng = np.random.default_rng(seed)
    by_class = {0: [], 1: []}
    for i, r in enumerate(train.records):
        if r.label not in by_class:
            raise DataError(f"record {r.id!r} has label {r.label!r}, expected 0 or 1")
        by_class[r.label].append(i)
    labeled = []
    # largest-remainder apportionment keeps class proportions within one sample
    quotas = {}
    for c, idxs in by_class.items():
        quotas[c] = target * len(idxs) / n if n else 0.0
    take = {c: int(np.floor(q)) for c, q in quotas.items()}
    rem = target - sum(take.values())
    for c in sorted(quotas, key=lambda c: quotas[c] - take[c], reverse=True):
        if rem <= 0:
            break
        if take[c] < len(by_class[c]):
            take[c] += 1
            rem -= 1
    for c, idxs in by_class.items():
        chosen = rng.permutation(len(idxs))[: take[c]]
        labeled.extend(idxs[i] for i in chosen)
    labeled = sorted(labeled)
    unlabeled = sorted(set(range(n)) - set(labeled))
    return train.subset(labeled), train.subset(unlabeled)


def inject_label_noise(labeled, noise_rate, seed):
    """Flip exactly round(rate * N) labels, chosen without replacement."""
    if not 0.0 <= noise_rate <= 1.0:
        raise DataError(f"noise rate {noise_rate} outside [0, 1]")
    n = len(labeled.records)
    flips = int(round(noise_rate * n))
    rng = np.random.default_rng(seed)
    chosen = set(rng.choice(n, size=flips, replace=False)) if flips else set()
    records = []
    for i, r in enumerate(labeled.records):
        label = 1 - r.label if i in chosen else r.label
        records.append(FeatureRecord(r.id, r.month, label, r.features))
    return Dataset(labeled.name, labeled.feature_dim, records)


# ---------------------------------------------------------------------------
# synthetic drift stream
# ---------------------------------------------------------------------------


@dataclass
class DriftGeneratorConfig:
    dim: int = checked(200, int, minimum=1)
    months: int = checked(12, int, minimum=1)
    samples_per_month_per_class: int = checked(500, int, minimum=1)
    # per-month chance a feature's rate is resampled
    drift_rate: float = checked(0.15, float, minimum=0, maximum=1)
    # fraction of features sharing one rate across classes
    overlap: float = checked(0.3, float, minimum=0, maximum=1)
    start_month: str = checked("2020-01", str)
    prob_low: float = checked(0.02, float, minimum=0, maximum=1)
    prob_high: float = checked(0.85, float, minimum=0, maximum=1)
    seed: int = checked(0, int, minimum=0)

    def __post_init__(self):
        check_fields(self)
        if self.prob_low > self.prob_high:
            raise ConfigError(f"prob_low: expected <= prob_high ({self.prob_high!r}), "
                              f"got {self.prob_low!r}")
        check_month(self.start_month, "start_month", ConfigError)


def synth_drift_generate(cfg):
    """Covariate-drift stream of binary vectors.

    Each class has a per-feature Bernoulli rate vector. A fraction
    ``overlap`` of features share one rate across classes (uninformative);
    the rest are class-specific. Between months every rate is resampled
    independently with probability ``drift_rate``, shifting P(X) while
    the labeling rule stays tied to the current rates.
    """
    rng = np.random.default_rng(cfg.seed)
    d = cfg.dim
    n_shared = int(round(cfg.overlap * d))
    shared = rng.permutation(d)[:n_shared]
    shared_mask = np.zeros(d, dtype=bool)
    shared_mask[shared] = True

    def draw_rates(size):
        return rng.uniform(cfg.prob_low, cfg.prob_high, size=size)

    theta = np.stack([draw_rates(d), draw_rates(d)])  # [class, feature]
    theta[1, shared_mask] = theta[0, shared_mask]

    y, m = check_month(cfg.start_month)
    last = 12 * y + m - 1 + cfg.months - 1  # months since year 0, zero-based
    month_names = month_range(cfg.start_month, f"{last // 12:04d}-{last % 12 + 1:02d}")

    dataset = Dataset(f"synth-drift-{cfg.seed}", d)
    counter = 0
    for t, month in enumerate(month_names):
        if t > 0:
            moved = rng.random(d) < cfg.drift_rate
            fresh0 = draw_rates(d)
            fresh1 = draw_rates(d)
            fresh1[shared_mask] = fresh0[shared_mask]
            theta[0, moved] = fresh0[moved]
            theta[1, moved] = fresh1[moved]
        for label in (0, 1):
            draws = rng.random((cfg.samples_per_month_per_class, d)) < theta[label]
            for row in draws.astype(np.uint8):
                dataset.records.append(
                    FeatureRecord(f"s{counter:07d}", month, label, row)
                )
                counter += 1
    return dataset

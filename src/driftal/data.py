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
from pathlib import Path

import numpy as np

from .config import ConfigError, check_fields, checked

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
        if not self.records:
            return (
                np.zeros((0, self.feature_dim), dtype=np.uint8),
                np.zeros(0, dtype=np.int64),
                [],
            )
        X = np.stack([r.features for r in self.records])
        y = np.array([r.label for r in self.records], dtype=np.int64)
        return X, y, [r.id for r in self.records]

    def subset(self, indices):
        return Dataset(self.name, self.feature_dim, [self.records[i] for i in indices])


def _check_month(month, key="month", error=DataError):
    """(year, month) of a 'YYYY-MM' string; any other value is an error naming ``key``."""
    parts = month.split("-") if isinstance(month, str) and month.isascii() else []
    if ([len(p) for p in parts] == [4, 2] and all(p.isdigit() for p in parts)
            and 1 <= int(parts[1]) <= 12):
        return int(parts[0]), int(parts[1])
    raise error(f"{key}: expected YYYY-MM, got {month!r}")


def month_range(start, end):
    """All YYYY-MM strings from start to end inclusive."""
    y0, m0 = _check_month(start)
    y1, m1 = _check_month(end)
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
    _check_month(period)
    return [period]


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------


def _shard_bytes_binary(records, dim):
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<III", BINARY_VERSION, dim, len(records))
    for r in records:
        rid = r.id.encode()
        buf += struct.pack("<BH", r.label, len(rid))
        buf += rid
        buf += np.packbits(r.features).tobytes()
    return bytes(buf)


def _read_shard_binary(raw, dim, path):
    """(ids, labels, X) of one binary shard; every byte must belong to a record."""
    if raw[:4] != MAGIC or len(raw) < 16:
        raise DataError(f"shard {path} has bad magic bytes or a short header")
    version, d, count = struct.unpack("<III", raw[4:16])
    if version != BINARY_VERSION:
        raise DataError(f"shard {path} has unsupported version {version}")
    if d != dim:
        raise DataError(f"shard {path} has dim {d}, manifest expects {dim}")
    nbytes = (d + 7) // 8
    off = 16
    ids, labels, starts = [], [], []
    try:
        for _ in range(count):
            label, idlen = struct.unpack_from("<BH", raw, off)
            off += 3
            ids.append(raw[off : off + idlen].decode())
            labels.append(label)
            starts.append(off + idlen)
            off += idlen + nbytes
    except (struct.error, UnicodeDecodeError) as e:
        raise DataError(f"shard {path} is truncated or malformed: {e}") from None
    if off > len(raw):
        raise DataError(f"shard {path} is truncated: {count} records do not fit "
                        f"in {len(raw)} bytes")
    if off < len(raw):
        raise DataError(f"shard {path} has {len(raw) - off} trailing bytes "
                        "after its last record")
    rows = np.add.outer(np.asarray(starts, dtype=np.intp), np.arange(nbytes))
    X = np.unpackbits(np.frombuffer(raw, np.uint8)[rows], axis=1)[:, :d]
    return ids, np.array(labels, dtype=np.int64), X


def _shard_bytes_csv(records, dim):
    """CSV shard bytes in the reader's layout: "b," per cell, "\n" last."""
    cells = np.full((len(records), 2 * dim), ord(","), dtype=np.uint8)
    if records:
        cells[:, 0::2] = np.stack([r.features for r in records]) + ord("0")
    cells[:, -1] = ord("\n")
    header = "id,label," + ",".join(f"f{i}" for i in range(dim)) + "\n"
    return header.encode() + b"".join(
        f"{r.id},{r.label},".encode() + row.tobytes() for r, row in zip(records, cells)
    )


def _read_shard_csv(raw, dim, path):
    """(ids, labels, X) of one CSV shard; every feature cell must be 0 or 1."""
    try:
        header, *lines = raw.decode().splitlines()
        rows = [line.split(",", 2) for line in lines]
        ids = [r[0] for r in rows]
        labels = np.array([r[1] for r in rows], dtype=np.int64)
        cells = [r[2] for r in rows]
    except (UnicodeDecodeError, ValueError, IndexError, OverflowError) as e:
        raise DataError(f"shard {path} is not an id,label,features table: {e}") from None
    if len(header.split(",")) != dim + 2:
        raise DataError(f"shard {path} has {len(header.split(',')) - 2} features, "
                        f"expects {dim}")
    # a valid row's cells are "b,b,...,b" with b in {0, 1}: 2 * dim - 1 bytes
    body = np.frombuffer(",".join([*cells, ""]).encode(), np.uint8)
    if set(map(len, cells)) - {2 * dim - 1} or body.size != 2 * dim * len(cells):
        raise DataError(f"shard {path} has rows that are not {dim} 0/1 cells")
    body = body.reshape(len(cells), 2 * dim)
    X = body[:, 0::2] - ord("0")
    if (X > 1).any() or (body[:, 1::2] != ord(",")).any():
        raise DataError(f"shard {path} has feature cells other than 0 or 1")
    return ids, labels, X


# format -> (file suffix, writer, reader)
SHARD_FORMATS = {
    "binary": (".bfv", _shard_bytes_binary, _read_shard_binary),
    "csv": (".csv", _shard_bytes_csv, _read_shard_csv),
}


def save_dataset(dataset, path, fmt="binary"):
    """Write manifest + per-month shards under ``path``."""
    if fmt not in SHARD_FORMATS:
        raise DataError(f"unknown shard format {fmt!r}")
    suffix, write, _ = SHARD_FORMATS[fmt]
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    shards = []
    for month, records in dataset.by_month().items():
        raw = write(records, dataset.feature_dim)
        fname = month + suffix
        (path / fname).write_bytes(raw)
        shards.append(
            {
                "month": month,
                "file": fname,
                "format": fmt,
                "sha256": hashlib.sha256(raw).hexdigest(),
                "benign": sum(1 for r in records if r.label == 0),
                "malware": sum(1 for r in records if r.label == 1),
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


def require_keys(entry, types, where):
    """``entry`` read from a file must be an object with a ``types[key]`` per key.

    A ``types`` value is a type or a tuple of types, as for ``isinstance``.
    """
    for key, kind in types.items():
        if not isinstance(entry, dict) or key not in entry:
            raise DataError(f"{where} has no {key!r}")
        if not isinstance(entry[key], kind):
            kinds = kind if isinstance(kind, tuple) else (kind,)
            names = " or ".join(k.__name__ for k in kinds)
            raise DataError(f"{where}: {key!r} must be of type {names}")


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
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataError(f"{mpath} is not valid JSON: {e}") from None
    require_keys(manifest, {"version": int, "name": str, "feature_dim": int,
                            "shards": list}, mpath)
    if manifest["version"] != MANIFEST_VERSION:
        raise DataError(f"unsupported manifest version {manifest['version']}")
    dim = manifest["feature_dim"]
    if isinstance(dim, bool) or dim < 1:
        raise DataError(f"{mpath}: 'feature_dim' must be an int >= 1, got {dim!r}")
    dataset = Dataset(manifest["name"], dim)
    all_ids = []
    for pos, shard in enumerate(manifest["shards"]):
        require_keys(shard, {"month": str, "file": str, "format": str, "sha256": str,
                             "benign": int, "malware": int}, f"{mpath} shard {pos}")
        month, fname, fmt = shard["month"], shard["file"], shard["format"]
        _check_month(month, f"{mpath} shard {pos}: 'month'")
        if fmt not in SHARD_FORMATS:
            raise DataError(f"shard {fname} has unknown format {fmt!r}")
        if Path(fname).name != fname or "\x00" in fname:
            raise DataError(f"{mpath} shard {pos}: 'file' must name a file in {path}, "
                            f"got {fname!r}")
        try:
            raw = (path / fname).read_bytes()
        except OSError as e:
            raise DataError(f"cannot read shard {path / fname}: {e.strerror}") from None
        if hashlib.sha256(raw).hexdigest() != shard["sha256"]:
            raise DataError(f"shard {fname} failed checksum validation")
        _, _, read = SHARD_FORMATS[fmt]
        ids, labels, X = read(raw, dim, fname)
        if ((labels != 0) & (labels != 1)).any():
            raise DataError(f"shard {fname} has labels outside {{0, 1}}")
        benign = int((labels == 0).sum())
        if benign != shard["benign"] or len(labels) - benign != shard["malware"]:
            raise DataError(f"shard {fname} counts disagree with manifest")
        dataset.records.extend(
            FeatureRecord(i, month, label, x)
            for i, label, x in zip(ids, labels.tolist(), X)
        )
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
        _check_month(self.start_month, "start_month", ConfigError)


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

    y, m = _check_month(cfg.start_month)
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

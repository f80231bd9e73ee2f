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
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .config import ConfigError, check_fields, checked, entry, read_json, typed

MAGIC = b"BFVS"
BINARY_VERSION = 2
MANIFEST_VERSION = 1


class DataError(ValueError):
    pass


@dataclass
class FeatureRecord:
    """One row as an object, for ``Dataset(name, dim, records)`` and ``.records``."""

    id: str
    month: str  # YYYY-MM
    label: int  # 0 benign, 1 malware
    features: np.ndarray  # uint8 {0,1} vector


class Dataset:
    """Rows as columns: ``X`` (uint8 [n, feature_dim]) and ``y`` (int64 [n]),
    whose values are 0 or 1, and the ``ids`` and ``row_months`` (YYYY-MM) of
    the rows, as lists of str. ``from_arrays`` builds one from columns."""

    def __init__(self, name, feature_dim, records=()):
        """The Dataset of ``records``, in order, joined by ``record_arrays``."""
        records = list(records)
        X, y, ids = record_arrays(records, feature_dim)
        self._set(name, feature_dim, X, y, ids, [r.month for r in records])

    @classmethod
    def from_arrays(cls, name, feature_dim, X, y, ids, row_months):
        """The Dataset of these columns, which must describe the same rows."""
        dataset = cls.__new__(cls)
        dataset._set(name, feature_dim, X, y, ids, row_months)
        return dataset

    def _set(self, name, feature_dim, X, y, ids, row_months):
        X, y, ids, row_months = np.asarray(X), np.asarray(y), list(ids), list(row_months)
        n = len(ids)
        if X.shape != (n, feature_dim) or y.shape != (n,) or len(row_months) != n:
            raise DataError(f"dataset {name!r}: features {X.shape}, labels {y.shape} "
                            f"and {len(row_months)} months do not fit {n} ids "
                            f"of {feature_dim} features")
        check_bits(X, y, ids)
        self.name, self.feature_dim = name, feature_dim
        self.ids, self.row_months = ids, row_months
        self.X, self.y = X.astype(np.uint8, copy=False), y.astype(np.int64, copy=False)

    def __len__(self):
        return len(self.ids)

    @property
    def records(self):
        """A new FeatureRecord list of the rows, whose features are copies."""
        return list(map(FeatureRecord, self.ids, self.row_months, self.y.tolist(),
                        self.X.copy()))

    def months(self):
        return sorted(set(self.row_months))

    def month_rows(self):
        """{month: index array of its rows, in row order}, in month order."""
        months = self.months()
        code = dict(zip(months, range(len(months))))
        codes = np.fromiter(map(code.__getitem__, self.row_months), np.intp, len(self))
        ends = np.cumsum(np.bincount(codes, minlength=len(months)))[:-1]
        return dict(zip(months, np.split(np.argsort(codes, kind="stable"), ends)))

    def take(self, rows):
        """The Dataset of the rows an index array or boolean mask selects."""
        rows = np.arange(len(self))[rows]
        at = rows.tolist()
        return Dataset.from_arrays(self.name, self.feature_dim, self.X[rows], self.y[rows],
                                   [self.ids[i] for i in at], [self.row_months[i] for i in at])


def check_month(month, key="month"):
    """(year, month) of a 'YYYY-MM' string; any other value is an error naming ``key``."""
    parts = month.split("-") if isinstance(month, str) and month.isascii() else []
    if ([len(p) for p in parts] == [4, 2] and all(p.isdigit() for p in parts)
            and 1 <= int(parts[1]) <= 12):
        return int(parts[0]), int(parts[1])
    raise DataError(f"{key}: expected YYYY-MM, got {month!r}")


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
    # labels stay Python objects until checked, so that "1" or 0.5 is no label
    y = np.fromiter(map(attrgetter("label"), records), dtype=object, count=len(rows))
    ids = list(map(attrgetter("id"), records))
    check_bits(X, y, ids)
    return X.astype(np.uint8, copy=False), y.astype(np.int64), ids


def check_bits(X, y, ids):
    """Raise ``DataError`` naming the first row with a label or feature not 0 or 1."""
    bad = (y != 0) & (y != 1)
    if X.dtype != np.uint8 or X.max(initial=0) > 1:
        bad |= ((X != 0) & (X != 1)).any(axis=1)
    if bad.any():
        raise DataError(f"record {ids[int(np.argmax(bad))]!r} has a label "
                        "or feature value other than 0 and 1")


def _utf8_ids(ids):
    """The UTF-8 bytes of each id and their lengths as an array."""
    try:
        raw_ids = [i.encode() for i in ids]
    except UnicodeEncodeError as e:
        raise DataError(f"id {e.object!r} cannot be encoded as UTF-8") from None
    return raw_ids, np.fromiter(map(len, raw_ids), dtype=np.intp, count=len(raw_ids))


def _insert_ids(block, raw_ids, idlen):
    """The bytes of ``block``'s rows, each preceded by its record's UTF-8 id,
    placed through one boolean run mask."""
    n, width = block.shape
    runs = np.empty((n, 2), dtype=np.intp)
    runs[:, 0], runs[:, 1] = idlen, width
    is_id = np.repeat(np.tile([True, False], n), runs.ravel())
    out = np.empty(is_id.size, dtype=np.uint8)
    out[~is_id] = block.ravel()
    out[is_id] = np.frombuffer(b"".join(raw_ids), dtype=np.uint8)
    return out.tobytes()


def _shard_bytes_binary(ids, labels, X):
    """Binary shard bytes of the rows ``(ids, labels, X)``, whose labels and
    features ``check_bits`` has checked to be 0 or 1.

    After the header come four columns, each in row order: one label byte
    per row, the little-endian uint16 byte length of each row's UTF-8 id,
    ``ceil(d / 8)`` bytes of ``np.packbits`` bits per row whose padding bits
    are 0, and the ids.
    """
    n, d = X.shape
    raw_ids, idlen = _utf8_ids(ids)
    if n and idlen.max() > MAX_BINARY_ID_BYTES:
        k = int(np.argmax(idlen > MAX_BINARY_ID_BYTES))
        raise DataError(f"id {ids[k][:32]!r}... has {idlen[k]} UTF-8 bytes; "
                        f"a binary shard holds at most {MAX_BINARY_ID_BYTES}")
    return b"".join([BINARY_HEADER.pack(MAGIC, BINARY_VERSION, d, n),
                     labels.astype(np.uint8).tobytes(), idlen.astype("<u2").tobytes(),
                     np.packbits(X, axis=1).tobytes(), *raw_ids])


def _read_shard_binary(raw, dim, path):
    """(ids, labels, X) of one binary shard; every byte must belong to a column,
    every label must be 0 or 1, every id UTF-8 and every padding bit 0."""
    if len(raw) < BINARY_HEADER.size or raw[:4] != MAGIC:
        raise DataError(f"shard {path} has bad magic bytes or a short header")
    _, version, d, n = BINARY_HEADER.unpack_from(raw)
    if version != BINARY_VERSION:
        raise DataError(f"shard {path} has unsupported version {version}")
    if d != dim:
        raise DataError(f"shard {path} has dim {d}, manifest expects {dim}")
    nbytes = (d + 7) // 8
    # the label, id length and bits columns; the id column starts after them
    at = BINARY_HEADER.size
    id_at = at + n * (3 + nbytes)
    if id_at > len(raw):
        raise DataError(f"shard {path} is truncated: {n} rows of {d} features "
                        f"do not fit in {len(raw)} bytes")
    idlen = np.frombuffer(raw, "<u2", n, at + n)
    ends = (id_at + np.cumsum(idlen, dtype=np.int64)).tolist()
    end = ends[-1] if n else id_at
    if end > len(raw):
        raise DataError(f"shard {path} is truncated: its id column ends at byte "
                        f"{end} of {len(raw)}")
    if end < len(raw):
        raise DataError(f"shard {path} has {len(raw) - end} trailing bytes "
                        "after its last id")
    buf = np.frombuffer(raw, dtype=np.uint8)
    labels = buf[at:at + n].astype(np.int64)
    if (labels > 1).any():
        raise DataError(f"shard {path} has labels outside {{0, 1}}")
    packed = buf[at + 3 * n:id_at].reshape(n, nbytes)
    if d % 8 and (packed[:, -1] & (0xFF >> d % 8)).any():
        raise DataError(f"shard {path} has set padding bits after feature {d - 1}")
    try:
        ids = [raw[a:b].decode() for a, b in zip([id_at, *ends], ends)]
    except UnicodeDecodeError as e:
        raise DataError(f"shard {path} has an id that is not UTF-8: {e}") from None
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
    return header.encode() + _insert_ids(block, raw_ids, idlen)


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

    Every month is checked and every shard encoded before anything is
    written, so a month that is not ``YYYY-MM`` or a row that the format
    cannot carry raises ``DataError`` and leaves ``path`` untouched.
    """
    if fmt not in SHARD_FORMATS:
        raise DataError(f"unknown shard format {fmt!r}")
    suffix, write, _ = SHARD_FORMATS[fmt]
    encoded = []
    for month, rows in dataset.month_rows().items():
        check_month(month)
        ids, labels = list(map(dataset.ids.__getitem__, rows.tolist())), dataset.y[rows]
        encoded.append((month, labels, write(ids, labels, dataset.X[rows])))
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
    manifest = read_json(mpath, "manifest", DataError)
    entry(manifest, "version", mpath, int, DataError, choices=(MANIFEST_VERSION,))
    name = entry(manifest, "name", mpath, str, DataError)
    dim = entry(manifest, "feature_dim", mpath, int, DataError, minimum=1)
    ids, months, ys, Xs = [], [], [np.zeros(0, np.int64)], [np.zeros((0, dim), np.uint8)]
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
        shard_ids, labels, X = read(raw, dim, fname)
        if (labels == 0).sum() != benign or (labels == 1).sum() != malware:
            raise DataError(f"shard {fname} counts disagree with manifest")
        ids += shard_ids
        months += [month] * len(shard_ids)
        ys.append(labels)
        Xs.append(X)
    check_unique_ids(ids, DataError, f"dataset {path}")
    return manifest, Dataset.from_arrays(name, dim, np.concatenate(Xs), np.concatenate(ys),
                                         ids, months)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def label_ratio_split(train, ratio, seed):
    """Stratified labeled/unlabeled split with |D_l| = round(ratio * N) >= 1."""
    ratio = typed(ratio, "label_ratio", float, minimum=0, maximum=1)
    n = len(train)
    target = int(round(ratio * n))
    if target == 0:
        raise ConfigError(f"label_ratio: expected a ratio that labels at least one of "
                          f"the {n} training rows, got {ratio!r}")
    rng = np.random.default_rng(seed)
    by_class = {c: np.flatnonzero(train.y == c) for c in (0, 1)}
    # largest-remainder apportionment keeps class proportions within one sample
    quotas = {c: target * len(idxs) / n for c, idxs in by_class.items()}
    counts = {c: int(np.floor(q)) for c, q in quotas.items()}
    # the two floors leave at most one row over: the larger remainder takes it
    if sum(counts.values()) < target:
        counts[max(quotas, key=lambda c: quotas[c] - counts[c])] += 1
    labeled = np.zeros(n, dtype=bool)
    for c, idxs in by_class.items():
        labeled[idxs[rng.permutation(len(idxs))[: counts[c]]]] = True
    return train.take(labeled), train.take(~labeled)


def inject_label_noise(labeled, noise_rate, seed):
    """Flip exactly round(rate * N) labels, chosen without replacement."""
    noise_rate = typed(noise_rate, "noise_rate", float, minimum=0, maximum=1)
    n = len(labeled)
    flips = int(round(noise_rate * n))
    rng = np.random.default_rng(seed)
    y, chosen = labeled.y.copy(), rng.choice(n, size=flips, replace=False)
    y[chosen] = 1 - y[chosen]
    return Dataset.from_arrays(labeled.name, labeled.feature_dim, labeled.X, y,
                               labeled.ids, labeled.row_months)


# ---------------------------------------------------------------------------
# synthetic drift stream
# ---------------------------------------------------------------------------


@dataclass
class DriftGeneratorConfig:
    dim: int = checked(200, int, minimum=1)
    months: int = checked(12, int, minimum=1, maximum=95_760)  # through 9999-12
    samples_per_month_per_class: int = checked(500, int, minimum=1)
    # per-month chance a feature's rate is resampled
    drift_rate: float = checked(0.15, float, minimum=0, maximum=1)
    # fraction of features sharing one rate across classes
    overlap: float = checked(0.3, float, minimum=0, maximum=1)
    seed: int = checked(0, int, minimum=0)

    def __post_init__(self):
        check_fields(self)


def synth_drift_generate(cfg):
    """Covariate-drift stream of binary vectors.

    Each class has a per-feature Bernoulli rate vector, each rate drawn
    from U(0.02, 0.85). A fraction ``overlap`` of features share one rate
    across classes (uninformative); the rest are class-specific. Between
    months every rate is resampled independently with probability
    ``drift_rate``, shifting P(X) while the labeling rule stays tied to the
    current rates. The months run from 2020-01.
    """
    rng = np.random.default_rng(cfg.seed)
    d = cfg.dim
    n_shared = int(round(cfg.overlap * d))
    shared = rng.permutation(d)[:n_shared]
    shared_mask = np.zeros(d, dtype=bool)
    shared_mask[shared] = True

    def draw_rates(size):
        return rng.uniform(0.02, 0.85, size=size)

    theta = np.stack([draw_rates(d), draw_rates(d)])  # [class, feature]
    theta[1, shared_mask] = theta[0, shared_mask]

    month_names = [f"{2020 + t // 12:04d}-{t % 12 + 1:02d}" for t in range(cfg.months)]

    n = cfg.samples_per_month_per_class
    X = np.empty((2 * n * len(month_names), d), dtype=np.uint8)  # month-major, class 0 first
    for t in range(len(month_names)):
        if t > 0:
            moved = rng.random(d) < cfg.drift_rate
            fresh0 = draw_rates(d)
            fresh1 = draw_rates(d)
            fresh1[shared_mask] = fresh0[shared_mask]
            theta[0, moved] = fresh0[moved]
            theta[1, moved] = fresh1[moved]
        for label in (0, 1):
            X[(2 * t + label) * n:(2 * t + label + 1) * n] = rng.random((n, d)) < theta[label]
    return Dataset.from_arrays(f"synth-drift-{cfg.seed}", d, X,
                               np.tile(np.repeat([0, 1], n), len(month_names)),
                               [f"s{k:07d}" for k in range(len(X))],
                               np.repeat(np.array(month_names, object), 2 * n).tolist())

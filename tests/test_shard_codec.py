"""The whole-array shard codec against per-record reference code.

The reference writers and binary reader below encode and decode one record
at a time: the CSV one row by row, the binary one value by value down each
of its four columns (labels, id lengths, packed bits, ids). The shard bytes
are a fixed on-disk layout, so the codec must write exactly the bytes they
write and read exactly the rows they read, for any ids (multi-byte UTF-8,
empty, of one length or of many), any number of rows and any feature
dimension.
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftal import data as dio


def reference_binary_bytes(ids, labels, X):
    n, dim = X.shape
    raw_ids = [rid.encode() for rid in ids]
    buf = bytearray(dio.MAGIC + struct.pack("<III", dio.BINARY_VERSION, dim, n))
    for label in labels:
        buf += struct.pack("<B", label)
    for raw_id in raw_ids:
        buf += struct.pack("<H", len(raw_id))
    for x in X:
        buf += np.packbits(x).tobytes()
    for raw_id in raw_ids:
        buf += raw_id
    return bytes(buf)


def reference_csv_bytes(ids, labels, X):
    n, dim = X.shape
    cells = np.full((n, 2 * dim), ord(","), dtype=np.uint8)
    cells[:, 0::2] = X + ord("0")
    cells[:, -1] = ord("\n")
    header = "id,label," + ",".join(f"f{i}" for i in range(dim)) + "\n"
    return header.encode() + b"".join(f"{rid},{label},".encode() + row.tobytes()
                                      for rid, label, row in zip(ids, labels, cells))


def reference_binary_rows(raw, dim):
    version, d, count = struct.unpack("<III", raw[4:16])
    assert raw[:4] == dio.MAGIC and version == dio.BINARY_VERSION and d == dim
    nbytes = (d + 7) // 8
    off = 16
    labels = []
    for _ in range(count):
        labels.append(raw[off])
        off += 1
    idlens = []
    for _ in range(count):
        idlens.append(struct.unpack_from("<H", raw, off)[0])
        off += 2
    rows = []
    for _ in range(count):
        rows.append(np.unpackbits(np.frombuffer(raw[off:off + nbytes], np.uint8))[:d])
        off += nbytes
    ids = []
    for idlen in idlens:
        ids.append(raw[off:off + idlen].decode())
        off += idlen
    assert off == len(raw)
    X = np.array(rows, dtype=np.uint8).reshape(count, d)
    return ids, np.array(labels, dtype=np.int64), X


# ids a CSV shard can carry: no comma and no line break, but multi-byte UTF-8
ID_CHARS = "ab9-_ é€😀\t"


@st.composite
def rows(draw):
    """(ids, labels, X): up to 6 rows of 1-20 features, unique ids."""
    dim = draw(st.integers(1, 20))
    n = draw(st.integers(0, 6))
    ids = draw(st.lists(st.text(ID_CHARS, max_size=6), min_size=n, max_size=n,
                        unique=True))
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                      dtype=np.int64)
    bits = draw(st.lists(st.integers(0, 1), min_size=n * dim, max_size=n * dim))
    return ids, labels, np.array(bits, dtype=np.uint8).reshape(n, dim)


def one_length_ids(n, dim):
    rng = np.random.default_rng(n + dim)
    return ([f"s{i:03d}€" for i in range(n)], rng.integers(0, 2, n),
            (rng.random((n, dim)) < 0.5).astype(np.uint8))


@settings(max_examples=200, deadline=None)
@given(case=rows())
@example(case=([], np.zeros(0, dtype=np.int64), np.zeros((0, 9), dtype=np.uint8)))
@example(case=(["", "é", "😀😀"], np.array([1, 0, 1]),
                np.eye(3, 13, dtype=np.uint8)))
@example(case=one_length_ids(5, 8))
@example(case=one_length_ids(4, 11))
def test_codec_matches_per_record_reference(case):
    ids, labels, X = case
    dim = X.shape[1]
    raw = dio._shard_bytes_binary(ids, labels, X)
    assert raw == reference_binary_bytes(ids, labels, X)
    assert dio._shard_bytes_csv(ids, labels, X) == reference_csv_bytes(ids, labels, X)
    got, want = dio._read_shard_binary(raw, dim, "ref"), reference_binary_rows(raw, dim)
    assert got[0] == want[0]
    assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
    assert got[2].dtype == want[2].dtype and np.array_equal(got[2], want[2])


class TestBinaryColumns:
    """A damaged shard fails as a DataError naming it: every byte must belong
    to one of the four columns, and each id must be UTF-8 on its own."""

    IDS = ["é", "a"]  # an id column of 3 bytes, b"\xc3\xa9a"

    def shard(self):
        return dio._shard_bytes_binary(self.IDS, np.array([1, 0]),
                                       np.eye(2, 11, dtype=np.uint8))

    def test_count_beyond_the_file_is_truncated(self):
        # 2^32 - 1 rows of 200 features would be about 107 GB of fixed columns
        raw = self.shard()
        raw = raw[:12] + struct.pack("<I", 2**32 - 1) + raw[16:]
        tracemalloc.start()
        try:
            with pytest.raises(dio.DataError, match="shard s.bfv is truncated: "
                               "4294967295 rows of 11 features do not fit"):
                dio._read_shard_binary(raw, 11, "s.bfv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_cut_inside_the_id_column(self):
        # 16 header bytes, then 2 rows of 1 label, 2 length and 2 bit bytes
        raw = self.shard()
        assert len(raw) == 16 + 2 * 5 + 3
        with pytest.raises(dio.DataError, match="shard s.bfv is truncated: its id "
                           "column ends at byte 29 of 28"):
            dio._read_shard_binary(raw[:-1], 11, "s.bfv")

    def test_bytes_after_the_last_id(self):
        with pytest.raises(dio.DataError, match="shard s.bfv has 2 trailing bytes "
                           "after its last id"):
            dio._read_shard_binary(self.shard() + b"ab", 11, "s.bfv")

    def test_id_lengths_that_split_a_character(self):
        # lengths 1 and 2 cut "é" in two; the id column alone is still UTF-8
        raw = self.shard()
        assert raw[18:22] == struct.pack("<HH", 2, 1) and raw[-3:].decode() == "éa"
        raw = raw[:18] + struct.pack("<HH", 1, 2) + raw[22:]
        with pytest.raises(dio.DataError, match="shard s.bfv has an id that is not UTF-8"):
            dio._read_shard_binary(raw, 11, "s.bfv")


def make_records(shapes):
    return [dio.FeatureRecord(f"r{k}", "2020-01", k % 2, np.zeros(shape, np.uint8))
            for k, shape in enumerate(shapes)]


class TestRecordArrays:
    def test_joins_rows_in_order(self):
        rng = np.random.default_rng(0)
        records = [dio.FeatureRecord(f"r{k}", "2020-01", k % 2,
                                     (rng.random(7) < 0.5).astype(np.uint8))
                   for k in range(5)]
        X, y, ids = dio.record_arrays(records, 7)
        assert X.dtype == np.uint8 and y.dtype == np.int64
        assert np.array_equal(X, np.stack([r.features for r in records]))
        assert y.tolist() == [0, 1, 0, 1, 0] and ids == ["r0", "r1", "r2", "r3", "r4"]

    def test_no_records(self):
        X, y, ids = dio.record_arrays([], 4)
        assert X.shape == (0, 4) and X.dtype == np.uint8
        assert y.shape == (0,) and y.dtype == np.int64 and ids == []

    # the second case has as many bits in all as 3 rows of 6, so only the
    # shape check, not the reshape, can reject it
    @pytest.mark.parametrize("shapes", [[(6,), (5,), (6,)], [(6,), (5,), (7,)],
                                        [(6,), (6, 1), (6,)], [(5,), (5,)]])
    def test_rejects_a_row_of_another_shape(self, shapes):
        records = make_records(shapes)
        if len(set(shapes)) > 1:
            with pytest.raises(ValueError):
                np.stack([r.features for r in records])
        with pytest.raises(dio.DataError, match="'r[01]' has features of shape"):
            dio.record_arrays(records, 6)

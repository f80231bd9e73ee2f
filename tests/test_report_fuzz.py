"""Bounded fuzzing of ``driftal report``, the ``result.json`` boundary.

Every payload must end in exit 3 with no CSV written, or in exit 0 with a
CSV whose cells are the payload's values. A payload converts exactly when
``convertible`` (written here from the report's contract, not from the
code) says so: one monthly entry per ``selected_ids`` list, each with a
``YYYY-MM`` month, integer counts and ratios that are null or finite
numbers in [0, 1].
"""

import csv
import json
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftal.cli import EXIT_DATA, EXIT_OK, main
from driftal.metrics import REPORT_COLUMNS

COUNTS = ("tp", "fp", "tn", "fn")
RATIOS = ("f1", "fnr", "fpr")

JUNK = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
# each field of an entry is mostly of its kind, so that most entries convert
FIELDS = {
    "month": (st.builds("{:04d}-{:02d}".format, st.integers(0, 9999), st.integers(1, 12)),
              st.sampled_from(["2020-13", "2020-00", "2020-1", "202001", "",
                               "2020-01..2020-02", "２０２０-01"]) | JUNK),
    **dict.fromkeys(COUNTS, (st.integers(-3, 10**6),
                             st.booleans() | st.floats() | st.none() | st.text(max_size=3))),
    **dict.fromkeys(RATIOS, (st.none() | st.floats(0, 1) | st.sampled_from([0, 1, -0.0]),
                             st.sampled_from([2, -1, 1.5, -1e-9, float("nan"),
                                              float("inf"), True, False]) | JUNK)),
}


def mostly(draw, good, bad):
    return draw(good if draw(st.integers(0, 15)) else bad)


@st.composite
def entries(draw):
    entry = {key: mostly(draw, *kinds) for key, kinds in FIELDS.items()}
    if not draw(st.integers(0, 15)):
        del entry[draw(st.sampled_from(sorted(entry)))]
    return entry


@st.composite
def payloads(draw):
    n = draw(st.integers(0, 3))
    monthly = [mostly(draw, entries(), JUNK) for _ in range(n)]
    ids = st.lists(st.text(max_size=3), max_size=3)
    selected = [mostly(draw, ids, JUNK) for _ in range(n + (not draw(st.integers(0, 15))))]
    payload = {"monthly": monthly, "selected_ids": selected,
               "config_hash": "", "seeds": [0]}
    return mostly(draw, st.just(payload), JUNK)


def is_ratio(v):
    return v is None or (type(v) in (int, float) and 0 <= v <= 1)


def convertible(payload):
    if not (isinstance(payload, dict) and type(payload.get("monthly")) is list
            and type(payload.get("selected_ids")) is list
            and len(payload["monthly"]) == len(payload["selected_ids"])):
        return False
    return all(
        type(entry) is dict and set(entry) >= {"month", *COUNTS, *RATIOS}
        and type(entry["month"]) is str
        and re.fullmatch(r"[0-9]{4}-(0[1-9]|1[0-2])", entry["month"]) is not None
        and all(type(entry[k]) is int for k in COUNTS)
        and all(is_ratio(entry[k]) for k in RATIOS)
        and type(ids) is list
        for entry, ids in zip(payload["monthly"], payload["selected_ids"]))


@settings(max_examples=200, deadline=None)
@given(payload=payloads())
# the bool, NaN and infinite values that used to convert
@example(payload={"monthly": [{"month": "2020-01", "tp": True, "fp": 0, "tn": 1, "fn": 0,
                               "f1": float("nan"), "fnr": float("inf"), "fpr": False}],
                  "selected_ids": [[]]})
@example(payload={"monthly": [{"month": "\ud800", "tp": 1, "fp": 0, "tn": 1, "fn": 0,
                               "f1": 1.0, "fnr": 0.0, "fpr": 0.0}],
                  "selected_ids": [["a"]]})
def test_report(payload):
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "result.json", Path(tmp) / "out"
        src.write_text(json.dumps(payload))
        code = main(["report", "--result", str(src), "--out", str(out)])
        if not convertible(payload):
            assert code == EXIT_DATA and not (out / "result.csv").exists()
            return
        assert code == EXIT_OK
        with open(out / "result.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
    assert header == REPORT_COLUMNS
    assert len(rows) == len(payload["monthly"])
    for row, entry, ids in zip(rows, payload["monthly"], payload["selected_ids"]):
        month, *counts, f1, fnr, fpr, n_selected = row
        assert month == entry["month"]
        assert [int(c) for c in counts] == [entry[k] for k in COUNTS]
        for cell, key in zip((f1, fnr, fpr), RATIOS):
            if entry[key] is None:
                assert cell == ""
            else:  # a percentage to one decimal
                assert abs(float(cell) - 100 * entry[key]) <= 0.05 + 1e-9
        assert int(n_selected) == len(ids)

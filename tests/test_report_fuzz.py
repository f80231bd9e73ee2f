"""Bounded fuzzing of ``driftal report``, the ``result.json`` boundary.

Every payload must end in exit 3 with no CSV written, or in exit 0 with a
CSV whose cells are the payload's values. A payload converts exactly when
``convertible`` (written here from the report's contract, not from the
code) says so: one monthly entry per ``selected_ids`` list, each with a
``YYYY-MM`` month, counts that are integers >= 0, and ratios that equal the
ratios of those counts, null exactly where a ratio is undefined.
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
MONTHS = (st.builds("{:04d}-{:02d}".format, st.integers(0, 9999), st.integers(1, 12)),
          st.sampled_from(["2020-13", "2020-00", "2020-1", "202001", "",
                           "2020-01..2020-02", "２０２０-01"]) | JUNK)
COUNT = (st.integers(0, 10**6),
         st.integers(-3, -1) | st.booleans() | st.floats() | st.none() | st.text(max_size=3))
BAD_RATIOS = (st.none() | st.floats(0, 1)
              | st.sampled_from([0, 1, -0.0, 2, -1, 1.5, -1e-9, float("nan"),
                                 float("inf"), True, False]) | JUNK)


def ratios(tp, fp, tn, fn):
    """F1, FNR and FPR of the counts, each None where its denominator is 0."""
    return (2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else None,
            fn / (fn + tp) if fn + tp else None,
            fp / (fp + tn) if fp + tn else None)


def is_count(v):
    return type(v) is int and v >= 0


def mostly(draw, good, bad):
    return draw(good if draw(st.integers(0, 15)) else bad)


@st.composite
def entries(draw):
    """A monthly entry whose fields are mostly of their kind, and whose ratios
    are mostly those of its counts, so that most entries convert."""
    entry = {"month": mostly(draw, *MONTHS), **{k: mostly(draw, *COUNT) for k in COUNTS}}
    counts = [entry[k] for k in COUNTS]
    true = ratios(*counts) if all(map(is_count, counts)) else (None,) * 3
    for key, r in zip(RATIOS, true):  # an integral ratio also as a JSON int
        entry[key] = mostly(draw, st.sampled_from([r, int(r)] if r in (0, 1) else [r]),
                            BAD_RATIOS)
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


def is_ratio_of(v, want):
    if want is None:
        return v is None
    return type(v) in (int, float) and v == want


def valid_entry(entry):
    if not (type(entry) is dict and set(entry) >= {"month", *COUNTS, *RATIOS}
            and type(entry["month"]) is str
            and re.fullmatch(r"[0-9]{4}-(0[1-9]|1[0-2])", entry["month"]) is not None
            and all(is_count(entry[k]) for k in COUNTS)):
        return False
    want = ratios(*(entry[k] for k in COUNTS))
    return all(is_ratio_of(entry[k], w) for k, w in zip(RATIOS, want))


def convertible(payload):
    if not (isinstance(payload, dict) and type(payload.get("monthly")) is list
            and type(payload.get("selected_ids")) is list
            and len(payload["monthly"]) == len(payload["selected_ids"])):
        return False
    return all(valid_entry(entry) and type(ids) is list
               for entry, ids in zip(payload["monthly"], payload["selected_ids"]))


# the first month of a ``driftal stream`` run (tp 5, fp 15, tn 10, fn 20)
STREAMED = {"month": "2020-03", "tp": 5, "fp": 15, "tn": 10, "fn": 20,
            "f1": 10 / 45, "fnr": 0.8, "fpr": 0.6}


@settings(max_examples=200, deadline=None)
@given(payload=payloads())
# the bool, NaN and infinite values that used to convert
@example(payload={"monthly": [{"month": "2020-01", "tp": True, "fp": 0, "tn": 1, "fn": 0,
                               "f1": float("nan"), "fnr": float("inf"), "fpr": False}],
                  "selected_ids": [[]]})
@example(payload={"monthly": [{"month": "\ud800", "tp": 1, "fp": 0, "tn": 1, "fn": 0,
                               "f1": 1.0, "fnr": 0.0, "fpr": 0.0}],
                  "selected_ids": [["a"]]})
# a negative count, and ratios that contradict the counts, which used to convert
@example(payload={"monthly": [{**STREAMED, "tp": -3, "f1": 1.0}],
                  "selected_ids": [list("abcde")]})
@example(payload={"monthly": [{**STREAMED, "f1": 0.0, "fnr": None}],
                  "selected_ids": [list("abcde")]})
@example(payload={"monthly": [STREAMED], "selected_ids": [list("abcde")]})
@example(payload={"monthly": [{**STREAMED, "tp": 0, "fn": 0, "f1": 0, "fnr": None}],
                  "selected_ids": [[]]})
@example(payload={"monthly": [{**STREAMED, "tp": 0, "fn": 0, "f1": -0.0, "fnr": None}],
                  "selected_ids": [[]]})
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
        want = ratios(*(entry[k] for k in COUNTS))
        # a percentage to one decimal, whether the payload wrote 0, 0.0 or -0.0
        assert [f1, fnr, fpr] == ["" if w is None else f"{100 * w:.1f}" for w in want]
        assert int(n_selected) == len(ids)

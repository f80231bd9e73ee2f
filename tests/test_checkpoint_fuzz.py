"""Bounded fuzzing of a checkpoint's ``meta``, the ``Classifier.load`` boundary.

Every ``meta`` must end in a ``ValueError`` or in the saved model: a bit-equal
``theta`` and the same architecture. Nothing else may escape, a
``MemoryError`` from a width the file holds no array of included. A ``meta``
loads exactly when ``loads`` (written here from the checkpoint contract, not
from the code) says so: an object whose ``version`` is the integer 2 and whose
``architecture`` is the saved widths ``[input_dim, *hidden, 2]`` as integers.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftal.net import Classifier

MODEL = Classifier((6, 4, 2), seed=3)
ARRAYS = {**{f"w{i}": w for i, w in enumerate(MODEL.weights)},
          **{f"b{i}": b for i, b in enumerate(MODEL.biases)}}
WIDTHS = [6, 4, 2]
META = {"version": 2, "architecture": WIDTHS}

BIG = st.sampled_from([2**31, 2**40, 2**63, 2**70])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | BIG | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
CELLS = st.sampled_from([6, 4, 2, 3, 18, 1, 0, -1, 6.0, 4.0, 2.0, True, "4", None, [4]]) | BIG


@st.composite
def edited_widths(draw):
    """The saved widths with one entry replaced, or an entry added or dropped."""
    widths = list(WIDTHS)
    op = draw(st.sampled_from(["cell", "cell", "insert", "drop"]))
    at = draw(st.integers(0, len(widths) - 1))
    if op == "cell":
        widths[at] = draw(CELLS)
    elif op == "insert":
        widths.insert(at, draw(CELLS))
    else:
        del widths[at]
    return widths


ARCHITECTURES = (edited_widths() | st.lists(st.integers(1, 64) | BIG, max_size=4)
                 | st.just([[6, 4, "relu"], [4, 2, "identity"]]) | JSON)

FIELDS = {
    "version": (st.just(2), st.sampled_from([True, 2.0, 0, 1, 3, "2", None, [2]]) | JSON),
    "architecture": (st.just(WIDTHS), ARCHITECTURES),
}


def mostly(draw, good, bad):
    return draw(good if draw(st.integers(0, 3)) else bad)


@st.composite
def metas(draw):
    meta = {key: mostly(draw, *kinds) for key, kinds in FIELDS.items()}
    if not draw(st.integers(0, 7)):
        del meta[draw(st.sampled_from(sorted(meta)))]
    return mostly(draw, st.just(meta), JSON)


def loads(meta):
    return (type(meta) is dict and set(meta) >= set(META)
            and type(meta["version"]) is int and meta["version"] == 2
            # the JSON text tells 6 from 6.0 and 1 from true
            and json.dumps(meta["architecture"]) == json.dumps(WIDTHS))


@settings(max_examples=150, deadline=None)
@given(meta=metas())
# the version-1 meta: a seed and [in, out, activation] per layer
@example(meta={"version": 1, "seed": 3, "architecture": [[6, 4, "relu"], [4, 2, "identity"]]})
@example(meta={**META, "architecture": [[6, 4, "relu"], [4, 2, "identity"]]})
# a float or bool width
@example(meta={**META, "architecture": [6, 4.0, 2]})
@example(meta={**META, "architecture": [6, True, 2]})
# widths with the saved parameter count, and widths that would allocate 72 TiB
@example(meta={**META, "architecture": [18, 2]})
@example(meta={**META, "architecture": [6, 2**40, 2]})
@example(meta=META)
def test_checkpoint_meta(meta):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.npz"
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **ARRAYS)
        try:
            model = Classifier.load(path)
        except ValueError:
            assert not loads(meta), "a valid meta failed to load"
            return
    assert loads(meta), "an invalid meta loaded"
    assert model.theta.tobytes() == MODEL.theta.tobytes()
    assert model.architecture == MODEL.architecture

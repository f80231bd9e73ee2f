"""Bounded fuzzing of a checkpoint's ``meta``, the ``Classifier.load`` boundary.

Every ``meta`` must end in a ``ValueError`` or in the saved model: a bit-equal
``theta``, the same architecture and the meta's seed. A ``meta`` loads exactly
when ``loads`` (written here from the checkpoint contract, not from the code)
says so: an object whose ``version`` is the integer 1, whose ``seed`` is an
integer >= 0, and whose ``architecture`` is the saved layer list with integer
widths.
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
LAYERS = [[6, 4, "relu"], [4, 2, "identity"]]
META = {"version": 1, "seed": 3, "architecture": LAYERS}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
CELLS = st.sampled_from([6, 4, 2, 3, 0, -1, 6.0, 4.0, True, "4", "relu", "identity",
                         "tanh", None])


@st.composite
def edited_layers(draw):
    """The saved layer list with one cell replaced, or a layer added or dropped."""
    layers = json.loads(json.dumps(LAYERS))
    op = draw(st.sampled_from(["cell", "cell", "append", "drop"]))
    if op == "cell":
        layers[draw(st.integers(0, 1))][draw(st.integers(0, 2))] = draw(CELLS)
    elif op == "append":
        layers.append(draw(st.lists(CELLS, max_size=4)))
    else:
        del layers[draw(st.integers(0, 1))]
    return layers


FIELDS = {
    "version": (st.just(1), st.sampled_from([True, 1.0, 0, 2, "1", None, [1]]) | JSON),
    "seed": (st.integers(0, 2**70), st.sampled_from([1.7, True, False, "7", -3, [1], None])
             | st.integers(max_value=-1) | JSON),
    "architecture": (st.just(LAYERS), edited_layers() | JSON),
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
            and type(meta["version"]) is int and meta["version"] == 1
            and type(meta["seed"]) is int and meta["seed"] >= 0
            # the JSON text tells 6 from 6.0 and 1 from true
            and json.dumps(meta["architecture"]) == json.dumps(LAYERS))


@settings(max_examples=150, deadline=None)
@given(meta=metas())
# the metas that used to load with a bool version or a seed that is not an
# int >= 0, and the ones that escaped as a TypeError
@example(meta={**META, "version": True})
@example(meta={**META, "seed": 1.7})
@example(meta={**META, "seed": True})
@example(meta={**META, "seed": "7"})
@example(meta={**META, "seed": -3})
@example(meta={**META, "seed": [1]})
@example(meta={**META, "seed": None})
# a float or bool width that only the layer list's equality checked
@example(meta={**META, "architecture": [[6, 4, "relu"], [4.0, 2, "identity"]]})
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
    assert type(model.seed) is int and model.seed == meta["seed"]

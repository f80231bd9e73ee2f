"""Every config dataclass field against a reference table of its kind and range.

The table is written out here, not read from the fields' metadata; it is
the README's table of config keys. Given one field's value (the other
fields at values that satisfy the rules between fields), a constructor
must succeed exactly when the table accepts the value, and otherwise raise
``ConfigError("<field>: expected ...")``, never another exception. The
budget, which no config object holds, is checked the same way through
``select``.
"""

import math
import re
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftal.augment import MODES, AugmentConfig
from driftal.config import ConfigError
from driftal.data import DriftGeneratorConfig
from driftal.losses import LossConfig
from driftal.net import Optimizer
from driftal.selection import SELECTOR_KINDS, SelectorConfig, select
from driftal.trainer import TrainConfig


def integer(low):
    return lambda v: type(v) is int and v >= low


def number(low, high=None, low_open=False):
    """An int or float in [low, high] ((low, high] if ``low_open``) that a
    float can hold; finite unless ``high`` is inf."""
    def accepts(v):
        if type(v) not in (int, float) or (type(v) is int and abs(v) > sys.float_info.max):
            return False
        if high is None and not math.isfinite(v):
            return False
        return (v > low if low_open else v >= low) and v <= (high or math.inf)
    return accepts


def one_of(choices):
    return lambda v: type(v) is str and v in choices


def widths(v):
    return type(v) in (list, tuple) and len(v) > 0 and all(integer(1)(w) for w in v)


# (class, field, accepts, other fields that keep the rules between fields true)
TABLE = [
    (DriftGeneratorConfig, "dim", integer(1), {}),
    (DriftGeneratorConfig, "months", integer(1), {}),
    (DriftGeneratorConfig, "samples_per_month_per_class", integer(1), {}),
    (DriftGeneratorConfig, "drift_rate", number(0, 1), {}),
    (DriftGeneratorConfig, "overlap", number(0, 1), {}),
    (DriftGeneratorConfig, "seed", integer(0), {}),
    (TrainConfig, "epochs", integer(1), {}),
    (TrainConfig, "labeled_batch", integer(1), {}),
    (TrainConfig, "unlabeled_batch", integer(1), {}),
    (TrainConfig, "learning_rate", number(0, low_open=True), {}),
    (TrainConfig, "hidden", widths, {}),
    (LossConfig, "confidence_threshold", number(0, 1, low_open=True), {}),
    (LossConfig, "lambda_u", number(0), {}),
    (LossConfig, "lambda_con", number(0), {}),
    (LossConfig, "contrastive_temperature", number(0, low_open=True), {}),
    (AugmentConfig, "mode", one_of(MODES), {}),
    (AugmentConfig, "weak_prob", number(0, 1), {"strong_prob": 1.0}),
    (AugmentConfig, "strong_prob", number(0, 1), {"weak_prob": 0.0}),
    (SelectorConfig, "kind", one_of(SELECTOR_KINDS), {}),
    (SelectorConfig, "alpha", number(0), {}),
    (SelectorConfig, "beta", number(0), {}),
    (SelectorConfig, "gamma", number(0), {}),
    (SelectorConfig, "p_norm", number(1, math.inf), {}),  # inf is the max-norm
    (SelectorConfig, "low_confidence_cutoff", number(0, 1), {}),
    (Optimizer, "learning_rate", number(0, low_open=True), {}),
]

# the fields that hold a nested config object, not a value
NESTED = {"loss", "augment", "selector"}

NEAR_BOUNDS = st.sampled_from([
    -1, 0, 1, 2, 64, -0.5, -0.0, 0.0, 1e-3, 0.5, 1.0, 1.5, math.inf, -math.inf, math.nan,
    10**400, *MODES, *SELECTOR_KINDS,
])
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
           | NEAR_BOUNDS)
VALUES = SCALARS | st.lists(SCALARS, max_size=3) | st.lists(st.integers(-1, 600), max_size=3)


@pytest.mark.parametrize("cls", sorted({row[0] for row in TABLE} - {Optimizer},
                                       key=lambda c: c.__name__))
def test_table_covers_every_field(cls):
    named = {name for c, name, _, _ in TABLE if c is cls}
    assert named == {f.name for f in fields(cls)} - NESTED


@settings(max_examples=600, deadline=None)
@given(row=st.sampled_from(TABLE), value=VALUES)
def test_field_accepts_exactly_its_range(row, value):
    cls, name, accepts, others = row
    try:
        obj = cls(**others, **{name: value})
    except ConfigError as e:
        assert not accepts(value), f"{name}={value!r} rejected: {e}"
        assert re.match(f"{name}: expected", str(e)), str(e)
    else:
        assert accepts(value), f"{name}={value!r} accepted"
        assert getattr(obj, name) == (tuple(value) if name == "hidden" else value)


@settings(max_examples=200, deadline=None)
@given(value=VALUES)
def test_select_accepts_exactly_a_budget(value):
    # no config object holds the budget: select checks it, for every caller
    pool = np.zeros((3, 2), dtype=np.uint8)
    try:
        chosen, _ = select(pool, None, None, SelectorConfig(kind="random"), value,
                           rng=np.random.default_rng(0))
    except ConfigError as e:
        assert not integer(0)(value), f"budget={value!r} rejected: {e}"
        assert re.match("budget: expected", str(e)), str(e)
    else:
        assert integer(0)(value), f"budget={value!r} accepted"
        assert len(chosen) == min(value, len(pool))


@pytest.mark.parametrize("cls,name,value", [
    (TrainConfig, "learning_rate", math.inf),
    (LossConfig, "lambda_u", math.inf),
    (LossConfig, "lambda_con", math.inf),
    (LossConfig, "contrastive_temperature", math.inf),
    (SelectorConfig, "alpha", math.inf),
    (SelectorConfig, "beta", math.nan),
    (Optimizer, "learning_rate", math.inf),
])
def test_float_without_a_finite_maximum_must_be_finite(cls, name, value):
    with pytest.raises(ConfigError, match=f"^{name}: expected finite float .*, got {value!r}$"):
        cls(**{name: value})


def test_p_norm_takes_inf_as_the_max_norm():
    assert SelectorConfig(p_norm=math.inf).p_norm == math.inf


@pytest.mark.parametrize("cls,values,name", [
    (AugmentConfig, {"weak_prob": 0.2, "strong_prob": 0.1}, "weak_prob"),
    (AugmentConfig, {"weak_prob": 0.5}, "weak_prob"),  # above the default strong_prob
    (SelectorConfig, {"alpha": 0, "beta": 0.0, "gamma": 0}, "alpha"),
    (SelectorConfig, {"alpha": 1e308, "beta": 1e308, "gamma": 1e308}, "alpha"),
])
def test_rule_between_fields_names_a_field(cls, values, name):
    with pytest.raises(ConfigError, match=f"^{name}: expected"):
        cls(**values)

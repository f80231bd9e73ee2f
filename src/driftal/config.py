"""Typed values read from a file: ``read_json`` reads a JSON file, ``checked``
declares a dataclass field's kind and range once, ``check_fields`` checks every
such field, the CLI checks its own keys with the same ``typed``, and ``entry``
reads a key of a JSON object (a manifest, a ``result.json``, a checkpoint's
``meta``) the same way. A bad value raises ``error("<key>: expected ...")``, a
``ConfigError`` by default."""

from __future__ import annotations

import json
import math
from dataclasses import field, fields
from pathlib import Path


class ConfigError(ValueError):
    pass


def read_json(path, what, error):
    """The JSON value in file ``path``; ``error`` names the ``what`` file otherwise."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as e:
        raise error(f"cannot read {what} {path}: {e.strerror}") from None
    except ValueError as e:  # bad JSON or UTF-8, or an int too long to convert
        raise error(f"{what} {path} is not valid JSON: {e}") from None


def typed(value, key, kind, error=ConfigError, minimum=None, maximum=None, above=None,
          choices=None):
    """Value ``key`` as ``kind`` (int, float, str or list) within its bounds.

    ``minimum`` and ``maximum`` are inclusive, ``above`` is exclusive, and
    ``choices`` may hold None to admit a JSON null. A float key also takes an
    integer, and is finite unless ``maximum`` is ``math.inf``; booleans are
    never numbers here.
    """
    if value is None and choices is not None and None in choices:
        return None
    accepted = (int, float) if kind is float else kind
    if not (isinstance(value, bool) or not isinstance(value, accepted)
            or (minimum is not None and not value >= minimum)
            or (above is not None and not value > above)
            or (maximum is not None and not value <= maximum)
            or (choices is not None and value not in choices)):
        try:
            value = kind(value)
            if kind is not float or maximum == math.inf or math.isfinite(value):
                return value
        except OverflowError:  # an int beyond the float range
            pass
    low = f"[{minimum}" if above is None else f"({above}"
    bound = ("" if minimum is None and above is None
             else f" in {low}, {maximum}]" if maximum is not None
             else f" >= {minimum}" if above is None else f" > {above}")
    finite = "finite " if kind is float and maximum is None else ""
    wanted = f"one of {sorted(choices)}" if choices else f"{finite}{kind.__name__}{bound}"
    raise error(f"{key}: expected {wanted}, got {value!r}")


def typed_list(values, key, kind, error=ConfigError, **bounds):
    """A nonempty list of ``typed`` values."""
    if not isinstance(values, (list, tuple)) or not values:
        raise error(f"{key}: expected a nonempty list, got {values!r}")
    return [typed(v, key, kind, error, **bounds) for v in values]


def entry(obj, key, where, kind, error, **bounds):
    """``obj[key]`` as ``typed`` checks it, where ``obj`` was read from ``where``
    and must be a JSON object holding ``key``."""
    if not isinstance(obj, dict) or key not in obj:
        raise error(f"{where} has no {key!r}")
    return typed(obj[key], f"{where}: {key!r}", kind, error, **bounds)


def checked(default, kind, **bounds):
    """A dataclass field of ``kind`` within ``bounds``, as ``typed`` takes them."""
    return field(default=default, metadata={"kind": kind, **bounds})


def check_fields(obj):
    """Check every ``checked`` field of dataclass ``obj``. A field whose default
    is a tuple holds a nonempty tuple."""
    for f in fields(obj):
        if "kind" not in f.metadata:
            continue
        value = getattr(obj, f.name)
        if isinstance(f.default, tuple):
            object.__setattr__(obj, f.name, tuple(typed_list(value, f.name, **f.metadata)))
        else:
            typed(value, f.name, **f.metadata)

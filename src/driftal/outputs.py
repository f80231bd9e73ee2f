"""One writer for a run's outputs, each payload written by its path's suffix."""

import csv
import json
from pathlib import Path

from .config import ConfigError


def write_outputs(out_dir, outputs):
    """Write each ``{path relative to out_dir: payload}`` of ``outputs`` in order
    and return the files written: a ``.json`` payload is a JSON value, a ``.csv``
    payload a list of rows, and any other a callable that writes the path. A path
    without a suffix is a directory, made first; its files are returned sorted.
    A directory that cannot be made, or a file that cannot be written, is a
    ``ConfigError`` naming its path."""
    written = []
    for rel, payload in outputs.items():
        path = Path(out_dir) / rel
        folder = path.parent if path.suffix else path
        try:
            folder.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"out: cannot make directory {folder}: {e.strerror}") from None
        try:
            if path.suffix == ".json":
                path.write_text(json.dumps(payload, indent=2))
            elif path.suffix == ".csv":
                with open(path, "w", newline="") as fh:
                    csv.writer(fh).writerows(payload)
            else:
                payload(path)
        except OSError as e:
            raise ConfigError(f"out: cannot write {path}: {e.strerror}") from None
        written += [path] if path.suffix else sorted(path.glob("*"))
    return written

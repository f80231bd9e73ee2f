"""Golden outputs: a small stream grid recomputed and compared exactly.

``golden/stream_small.json`` records, for one small synthetic setup and
run seed 0, the SHA-256 of the initial fit's parameters, the selected ids
and monthly ``[tp, fp, tn, fn]`` of every selector kind at budgets 0 and
7, and the ``metrics.bench`` operation counts of two small pool sizes.

The file changes only in a change that says it moves numbers and lists
each moved number. Rewrite it with::

    PYTHONPATH=src:tests python -c "import test_golden as g; g.GOLDEN.write_text(g.dumps(g.compute()))"
"""

import hashlib
import json
from pathlib import Path

from driftal import metrics as met
from driftal.cli import setup_from_config
from driftal.selection import SELECTOR_KINDS, SelectorConfig

GOLDEN = Path(__file__).parent / "golden" / "stream_small.json"


def compute():
    exp = setup_from_config({
        "generator": {"seed": 3, "dim": 40, "months": 6, "samples_per_month_per_class": 60},
        "train": {"epochs": 3, "hidden": [16, 8]},
        "stream": {"retrain_epochs": 2},
    })
    model, *_ = exp.initial_fit(0)
    theta_sha256 = hashlib.sha256(model.theta.tobytes()).hexdigest()
    selectors = [SelectorConfig(kind=kind) for kind in SELECTOR_KINDS]
    runs = {
        f"{selector.kind}/{budget}": {
            "selected_ids": result.selected_ids,
            "confusion": [[m.tp, m.fp, m.tn, m.fn] for m in result.monthly],
        }
        for selector, budget, [result] in exp.sweep(selectors, [0, 7], [0])
    }
    bench = met.bench([100, 300], budget=10, dim=20, hidden=(8,), batch=10, seed=0)
    return {
        "initial_theta_sha256": theta_sha256,
        "runs": runs,
        "bench_operations": {str(r.sample_count): r.operations for r in bench},
    }


def dumps(golden):
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


def test_stream_small_matches_golden():
    assert json.loads(dumps(compute())) == json.loads(GOLDEN.read_text())

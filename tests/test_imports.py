"""What a fresh interpreter loads: scipy only once an Lp query runs.

``selection.lp_distances`` imports ``scipy.spatial`` at its first call, so
importing driftal, or streaming with a selector that never ranks by the
Lp distance, loads no scipy module. Each check runs in its own
interpreter, since this test process may have loaded scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

TINY_CONFIG = {
    "generator": {"dim": 12, "months": 3, "samples_per_month_per_class": 10, "seed": 0},
    "split": {"train_months": 2},
    "label_ratio": 0.5,
    "train": {"epochs": 1, "hidden": [4]},
    "stream": {"budget": 3, "retrain_epochs": 1},
}


def run_python(code, cwd):
    """Run ``code`` in a fresh interpreter with driftal on the path; its
    last line of output, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["driftal", "driftal.cli"])
def test_import_loads_no_scipy(tmp_path, module):
    assert run_python(f"import json, sys, {module}; print(json.dumps({SCIPY_LOADED}))",
                      tmp_path) == []


@pytest.mark.parametrize("selector,loads_scipy", [
    ("random", False),
    ("multi_criteria", True),
])
def test_stream_loads_scipy_only_for_lp(tmp_path, selector, loads_scipy):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    argv = ["stream", "--config", str(config), "--out", str(tmp_path / "out"),
            "--seed", "0", "--selector", selector]
    loaded = run_python(
        "import json, sys\n"
        "from driftal.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print(json.dumps({SCIPY_LOADED}))\n",
        tmp_path,
    )
    assert bool(loaded) == loads_scipy, loaded
    assert ("scipy.spatial" in loaded) == loads_scipy


def test_bench_times_no_import(tmp_path):
    """``metrics.bench``'s untimed one-sample select loads the KD-tree
    module before the first timed interval, whose multi_criteria select
    would otherwise import it."""
    seen = run_python(
        "import json, sys, time\n"
        "from driftal import metrics\n"
        "assert 'scipy.spatial' not in sys.modules\n"
        "seen, clock = [], time.perf_counter\n"
        "def timed():\n"
        "    seen.append('scipy.spatial' in sys.modules)\n"
        "    return clock()\n"
        "time.perf_counter = timed\n"
        "metrics.bench([30], budget=3, dim=8, hidden=(4,))\n"
        "print(json.dumps(seen))\n",
        tmp_path,
    )
    assert seen[:1] == [True], seen

"""Layout of the committed benchmark records (``BENCH_*.json`` at the root).

Each perf change commits one such file: for every workload declared in
``BENCHMARK.json``, the parent's and the change's untraced runs with the
median and quartiles of each end-to-end metric, plus both sides' traced
per-layer metrics for seed 0. Quartiles are
``statistics.quantiles(values, n=4, method="inclusive")``.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
MIN_RUNS = 5


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_layout(path):
    record = json.loads(path.read_text())
    workloads = record["workloads"]
    for w in SPEC["workloads"]:
        assert w["name"] in workloads, f"{path.name}: no workload {w['name']!r}"
        entry = workloads[w["name"]]
        for side in SIDES:
            data = entry[side]
            runs = data["runs"]
            assert len(runs) >= MIN_RUNS
            assert all(r["failed"] == 0 for r in runs)
            for metric in SPEC["end_to_end"]:
                name = metric["name"]
                stats = data[name]
                assert stats["q1"] <= stats["median"] <= stats["q3"], (side, name)
                values = [r["metrics"][name] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
                assert stats["median"] == statistics.median(values)
                assert (stats["q1"], stats["q3"]) == (q1, q3)
            traced = data["traced_seed0"]
            missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in traced]
            assert not missing, f"{path.name} {w['name']} {side}: {missing}"

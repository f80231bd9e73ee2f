"""Tests of the benchmark itself: python -m pytest perfbench -q"""

import json

import numpy as np

import run

assert run.prepare(), "driftal sources not found"

import tracer as tr  # noqa: E402  (needs src/ on sys.path)
import workloads as wl  # noqa: E402


def test_smoke_every_workload_untraced_and_traced():
    # every listed metric with its unit and no unlisted per-layer metric,
    # error_rate 0, a well-formed span tree
    run.smoke()


def _span(name, t0, t1, parent, cell=None, group="iter0", counts=None):
    return [name, t0, t1, parent, cell, group, counts]


def test_span_tree_check_finds_broken_trees():
    good = [_span("cli.main", 0.0, 10.0, -1), _span("stream.run_stream", 1.0, 9.0, 0, cell=0),
            _span("net.forward_batch", 2.0, 3.0, 1, cell=0)]
    assert tr.check_span_tree(good) == []
    outside = good[:2] + [_span("net.forward_batch", 8.0, 9.5, 1, cell=0)]
    assert "outside its parent" in tr.check_span_tree(outside)[0]
    orphan = good[:2] + [_span("net.forward_batch", 2.0, 3.0, 7, cell=0)]
    assert "no parent" in tr.check_span_tree(orphan)[0]
    other_cell = good[:2] + [_span("net.forward_batch", 2.0, 3.0, 1, cell=1)]
    assert "another cell" in tr.check_span_tree(other_cell)[0]
    unclosed = good[:2] + [_span("net.forward_batch", 2.0, None, 1, cell=0)]
    assert "not closed" in tr.check_span_tree(unclosed)[0]


def test_self_time_excludes_children():
    spans = [_span("cli.main", 0.0, 10.0, -1),
             _span("trainer.train", 1.0, 9.0, 0, counts={"confident": 0}),
             _span("trainer.step_loss_and_grads", 2.0, 5.0, 1)]
    m = tr.per_layer_metrics(spans, "iter0", 10.0)
    assert m["cli.main_s"] == 10.0 and m["cli.self_s"] == 2.0
    assert m["trainer.train_s"] == 8.0 and m["trainer.self_s"] == 5.0
    assert m["self_share.cli"] == 0.2 and m["self_share.trainer"] == 0.8


def _reference():
    return wl.StreamReference(
        stream_months=["2020-03", "2020-04"],
        month_of={"a": "2020-01", "b": "2020-03", "c": "2020-04", "d": "2020-04"},
        month_size={"2020-03": 4, "2020-04": 4},
        month_positives={"2020-03": 2, "2020-04": 2},
        initially_labeled=frozenset({"a"}),
    )


def _cell(selected, counts=((1, 1, 1, 1), (1, 1, 1, 1))):
    monthly = [{"month": m, "tp": tp, "fp": fp, "tn": tn, "fn": fn}
               for m, (tp, fp, tn, fn) in zip(["2020-03", "2020-04"], counts)]
    return {"monthly": monthly, "selected_ids": selected}


def test_stream_cell_check_accepts_a_correct_cell():
    assert wl.check_stream_cell(_cell([["b"], ["c", "d"]]), _reference(), budget=2) == []


def test_stream_cell_check_finds_each_broken_rule():
    ref = _reference()
    cases = {
        "sum to": _cell([["b"], []], counts=((1, 1, 1, 0), (1, 1, 1, 1))),
        "malware rows": _cell([["b"], []], counts=((0, 2, 2, 0), (1, 1, 1, 1))),
        "> budget": _cell([["b"], ["c", "d"]]),
        "future month": _cell([["c"], []]),
        "already labeled": _cell([["a"], []]),
        "duplicate": _cell([["b", "b"], []]),
        "unknown id": _cell([["zz"], []]),
    }
    for expected, cell in cases.items():
        budget = 1 if expected == "> budget" else 2
        problems = wl.check_stream_cell(cell, ref, budget=budget)
        assert any(expected in p for p in problems), (expected, problems)
    relabeled = wl.check_stream_cell(_cell([["b"], ["b"]]), ref, budget=2)
    assert any("already labeled" in p for p in relabeled)


def test_shard_comparison_finds_a_flipped_bit():
    X = np.zeros((2, 3), dtype=np.uint8)
    expected = (["a", "b"], ["2020-01", "2020-01"], np.array([0, 1]), X)
    assert wl.compare_columns(expected, expected) == ""
    flipped = X.copy()
    flipped[1, 2] = 1
    assert wl.compare_columns(expected, expected[:3] + (flipped,)) == "feature bits differ"
    assert wl.compare_columns(expected, (["a", "c"],) + expected[1:]) == "ids differ"


def test_reference_f1_floors_are_below_the_recorded_values():
    ref = json.loads((run.HERE / "reference.json").read_text())
    floors = run.f1_floors()
    assert set(floors) == {"ablation_grid", "stream_train"}
    for name, floor in floors.items():
        assert 0 < floor < ref[name]["f1_mean"]

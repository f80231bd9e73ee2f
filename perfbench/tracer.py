"""Spans around the calls into each driftal module, recorded from outside.

``Tracer.installed()`` replaces each traced function with a wrapper that
records a span (name, start, end, parent span, stream cell, group) and,
for some names, counts taken at the same boundary (rows, pairs, bits).
Every module attribute that refers to the original function is replaced,
so callers that imported the name (``driftal.stream.train``) and callers
that look it up on the module (``dio.load_dataset``) are both traced.
Methods are replaced on their class. Leaving the context restores them.

Spans are kept in memory; ``per_layer_metrics`` turns one group of them
into inclusive seconds, self seconds and counts.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

from driftal import metrics as met

MODULES = ("data", "experiment", "stream", "selection", "net", "trainer",
           "losses", "augment", "metrics", "cli")

# span field positions
NAME, T0, T1, PARENT, CELL, GROUP, ATTRS = range(7)


def _rows(X):
    X = np.asarray(X)
    return 1 if X.ndim == 1 else len(X)


def _forward_counts(args, kwargs, out):
    model, X = args[0], args[1]
    rows = _rows(X)
    return {"rows": rows, "ops": met.forward_ops(model.architecture, rows)}


def _backward_counts(args, kwargs, out):
    model, cache = args[0], args[1]
    rows = cache["n"]
    return {"rows": rows, "ops": met.backward_ops(model.architecture, rows)}


def _lp_counts(args, kwargs, out):
    U, L = np.asarray(args[0]), np.asarray(args[1])
    dim = U.shape[1] if U.ndim == 2 else 0
    return {"pairs": len(U) * len(L), "ops": met.distance_ops(len(U), len(L), dim)}


def _select_counts(args, kwargs, out):
    return {"pool": len(args[0]), "selected": len(out[0])}


def _view_counts(args, kwargs, out):
    x, cfg = np.asarray(args[0]), args[1]
    draws = 2 if cfg.mode == "flip_plus_mask" else 1
    return {"rows": len(x), "bits": int(x.size) * draws}


def _train_counts(args, kwargs, out):
    report = out[1]
    return {"confident": int(sum(b.confident_count for b in report.epoch_losses))}


def _run_stream_counts(args, kwargs, out):
    return {"months": len(args[3])}


def _save_counts(args, kwargs, out):
    fmt = kwargs.get("fmt", args[2] if len(args) > 2 else "binary")
    size = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return {"format": fmt, "bytes": size}


def _load_counts(args, kwargs, out):
    manifest = out[0]
    fmt = manifest["shards"][0]["format"] if manifest["shards"] else "binary"
    return {"format": fmt}


# (module, attribute, span name, counter); the span name's prefix is the
# module that defines the function.
FUNCTIONS = [
    ("driftal.cli", "main", "cli.main", None),
    ("driftal.data", "synth_drift_generate", "data.synth_drift_generate", None),
    ("driftal.data", "save_dataset", "data.save_dataset", _save_counts),
    ("driftal.data", "load_dataset", "data.load_dataset", _load_counts),
    ("driftal.data", "label_ratio_split", "data.label_ratio_split", None),
    ("driftal.data", "inject_label_noise", "data.inject_label_noise", None),
    ("driftal.stream", "months_from_dataset", "stream.months_from_dataset", None),
    ("driftal.stream", "run_stream", "stream.run_stream", _run_stream_counts),
    ("driftal.stream", "aggregate_runs", "stream.aggregate_runs", None),
    ("driftal.selection", "select", "selection.select", _select_counts),
    ("driftal.selection", "score_pool", "selection.score_pool", None),
    ("driftal.selection", "lp_distances", "selection.lp_distances", _lp_counts),
    ("driftal.trainer", "train", "trainer.train", _train_counts),
    ("driftal.trainer", "step_loss_and_grads", "trainer.step_loss_and_grads", None),
    ("driftal.trainer", "build_model", "trainer.build_model", None),
    ("driftal.losses", "supervised_ce", "losses.supervised_ce", None),
    ("driftal.losses", "consistency_loss", "losses.consistency_loss", None),
    ("driftal.losses", "supervised_contrastive", "losses.supervised_contrastive", None),
    ("driftal.losses", "total_loss", "losses.total_loss", None),
    ("driftal.augment", "weak_view", "augment.weak_view", _view_counts),
    ("driftal.augment", "strong_view", "augment.strong_view", _view_counts),
    ("driftal.metrics", "compute_metrics", "metrics.compute_metrics", None),
    ("driftal.metrics", "emit_report", "metrics.emit_report", None),
]

# (module, class, method, span name, counter)
METHODS = [
    ("driftal.experiment", "Experiment", "__init__", "experiment.init", None),
    ("driftal.experiment", "Experiment", "initial_fit", "experiment.initial_fit", None),
    ("driftal.net", "Classifier", "forward_batch", "net.forward_batch", _forward_counts),
    ("driftal.net", "Classifier", "backward_batch", "net.backward_batch", _backward_counts),
    ("driftal.net", "Classifier", "predict_batch", "net.predict_batch", None),
    ("driftal.net", "Classifier", "embed_batch", "net.embed_batch", None),
    ("driftal.net", "Optimizer", "step", "net.Optimizer.step", None),
]

# Experiment.run marks a stream cell: every span below it carries the cell id.
CELL_METHOD = ("driftal.experiment", "Experiment", "run", "experiment.run")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, t0, t1, parent index or -1, cell, group, attrs]
        self.cells = {}  # cell id -> "selector@budget/seed"
        self.group = None
        self._stack = []
        self._cell = None
        self._patches = []

    # -- recording ---------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, None, parent, self._cell, self.group, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[T0] = time.perf_counter()
        return span

    def close(self, span):
        span[T1] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span[ATTRS] = counter(args, kwargs, out)
            return out

        return traced

    def _wrap_cell(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(experiment, selector, budget, seed, *args, **kwargs):
            outer = tracer._cell
            tracer._cell = len(tracer.cells)
            tracer.cells[tracer._cell] = f"{selector.kind}@{budget}/{seed}"
            span = tracer.open(name)
            try:
                return fn(experiment, selector, budget, seed, *args, **kwargs)
            finally:
                tracer.close(span)
                tracer._cell = outer

        return traced

    # -- installing --------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "driftal" or n.startswith("driftal.")) and m is not None]
        for mod_name, attr, name, counter in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(original, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        for mod_name, cls_name, attr, name, counter in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._replace(cls, attr, self._wrap(getattr(cls, attr), name, counter))
        mod_name, cls_name, attr, name = CELL_METHOD
        cls = getattr(importlib.import_module(mod_name), cls_name)
        self._replace(cls, attr, self._wrap_cell(getattr(cls, attr), name))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path):
        """Gzipped JSON lines: a header naming the fields, then one list per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent",
                                            "cell", "group", "counts"],
                                 "cells": self.cells}) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, *s]) + "\n")


def check_span_tree(spans):
    """Problems with the span tree: missing parents or children outside them."""
    problems = []
    for i, s in enumerate(spans):
        if s[T1] is None or s[T1] < s[T0]:
            problems.append(f"span {i} {s[NAME]} is not closed")
            continue
        p = s[PARENT]
        if p == -1:
            continue
        if not 0 <= p < i:
            problems.append(f"span {i} {s[NAME]} has no parent {p}")
            continue
        parent = spans[p]
        if parent[T1] is None or s[T0] < parent[T0] or s[T1] > parent[T1]:
            problems.append(f"span {i} {s[NAME]} lies outside its parent {p}")
        if parent[GROUP] != s[GROUP]:
            problems.append(f"span {i} {s[NAME]} is in another group than its parent")
        if parent[CELL] is not None and parent[CELL] != s[CELL]:
            problems.append(f"span {i} {s[NAME]} is in another cell than its parent")
    return problems


def _forward_category(spans, i):
    """Which stage a forward_batch span serves: eval, embed_labeled, score_pool, train."""
    child = i
    p = spans[i][PARENT]
    while p != -1:
        name = spans[p][NAME]
        if name == "selection.score_pool":
            return "score_pool"
        if name == "trainer.train":
            return "train"
        if name == "stream.run_stream":
            return "embed_labeled" if spans[child][NAME] == "net.embed_batch" else "eval"
        child, p = p, spans[p][PARENT]
    return "other"


# per-layer metric name -> unit, in report order
PER_LAYER_UNITS = {
    "selection.select_s": "s",
    "selection.select_self_s": "s",
    "selection.score_pool_s": "s",
    "selection.score_pool_self_s": "s",
    "selection.lp_distances_s": "s",
    "selection.lp_pairs": "count",
    "selection.lp_flops_computed": "count",
    "trainer.train_s": "s",
    "trainer.self_s": "s",
    "trainer.step_loss_and_grads_s": "s",
    "trainer.steps": "count",
    "trainer.step_us_p50": "us",
    "trainer.step_us_p99": "us",
    "trainer.confident_fraction": "ratio",
    "losses.supervised_ce_s": "s",
    "losses.consistency_loss_s": "s",
    "losses.supervised_contrastive_s": "s",
    "augment.weak_view_s": "s",
    "augment.strong_view_s": "s",
    "augment.bits_drawn": "count",
    "net.forward_batch_s": "s",
    "net.forward_batch_calls": "count",
    "net.backward_batch_s": "s",
    "net.backward_batch_calls": "count",
    "net.Optimizer.step_s": "s",
    "net.Optimizer.step_calls": "count",
    "net.forward_rows.eval": "count",
    "net.forward_rows.embed_labeled": "count",
    "net.forward_rows.score_pool": "count",
    "net.forward_rows.train": "count",
    "net.analytic_ops": "count",
    "stream.run_stream_s": "s",
    "stream.self_s": "s",
    "stream.months": "count",
    "stream.selected_rows": "count",
    "stream.pool_rows_max": "count",
    "stream.months_from_dataset_s": "s",
    "experiment.init_s": "s",
    "experiment.initial_fit_s": "s",
    "data.label_ratio_split_s": "s",
    "data.synth_drift_generate_s": "s",
    "data.save_dataset_s.bfv": "s",
    "data.save_dataset_s.csv": "s",
    "data.load_dataset_s.bfv": "s",
    "data.load_dataset_s.csv": "s",
    "data.shard_bytes.bfv": "count",
    "data.shard_bytes.csv": "count",
    "metrics.compute_metrics_s": "s",
    "metrics.emit_report_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    **{f"self_share.{m}": "ratio" for m in MODULES},
    "trace.spans": "count",
}

# Counts that must repeat exactly between two runs of the same code.
EXACT_COUNTS = [name for name, unit in PER_LAYER_UNITS.items()
                if unit == "count"]

_FORMAT_EXT = {"binary": "bfv", "csv": "csv"}


def per_layer_metrics(spans, group, wall_s):
    """Per-layer metrics of the spans in ``group``; ``wall_s`` is its traced wall time."""
    idx = [i for i, s in enumerate(spans) if s[GROUP] == group]
    covered = defaultdict(float)
    for i in idx:
        p = spans[i][PARENT]
        if p != -1:
            covered[p] += spans[i][T1] - spans[i][T0]
    incl = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    step_us = []
    for i in idx:
        s = spans[i]
        name, dur, attrs = s[NAME], s[T1] - s[T0], s[ATTRS] or {}
        incl[name] += dur
        self_s[name] += dur - covered[i]
        calls[name] += 1
        if name == "trainer.step_loss_and_grads":
            step_us.append(dur * 1e6)
        elif name == "net.forward_batch":
            counts[f"net.forward_rows.{_forward_category(spans, i)}"] += attrs["rows"]
            counts["net.analytic_ops"] += attrs["ops"]
        elif name == "net.backward_batch":
            counts["net.analytic_ops"] += attrs["ops"]
        elif name == "selection.lp_distances":
            counts["selection.lp_pairs"] += attrs["pairs"]
            counts["selection.lp_flops_computed"] += attrs["ops"]
        elif name == "selection.select":
            counts["stream.selected_rows"] += attrs["selected"]
            counts["stream.pool_rows_max"] = max(counts["stream.pool_rows_max"],
                                                 attrs["pool"])
        elif name in ("augment.weak_view", "augment.strong_view"):
            counts["augment.bits_drawn"] += attrs["bits"]
            if name == "augment.weak_view":
                counts["unlabeled_rows"] += attrs["rows"]
        elif name == "trainer.train":
            counts["confident"] += attrs["confident"]
        elif name == "stream.run_stream":
            counts["stream.months"] += attrs["months"]
        elif name == "data.save_dataset":
            ext = _FORMAT_EXT.get(attrs["format"], attrs["format"])
            incl[f"data.save_dataset.{ext}"] += dur
            counts[f"data.shard_bytes.{ext}"] += attrs["bytes"]
        elif name == "data.load_dataset":
            ext = _FORMAT_EXT.get(attrs["format"], attrs["format"])
            incl[f"data.load_dataset.{ext}"] += dur

    m = {}
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "count":
            m[name] = counts[name]
    for span_name in ("selection.select", "selection.score_pool", "selection.lp_distances",
                      "trainer.train", "trainer.step_loss_and_grads",
                      "losses.supervised_ce", "losses.consistency_loss",
                      "losses.supervised_contrastive", "augment.weak_view",
                      "augment.strong_view", "net.forward_batch", "net.backward_batch",
                      "net.Optimizer.step", "stream.run_stream",
                      "stream.months_from_dataset", "experiment.init",
                      "experiment.initial_fit", "data.label_ratio_split",
                      "data.synth_drift_generate", "metrics.compute_metrics",
                      "metrics.emit_report", "cli.main"):
        m[f"{span_name}_s"] = incl[span_name]
    for ext in ("bfv", "csv"):
        m[f"data.save_dataset_s.{ext}"] = incl[f"data.save_dataset.{ext}"]
        m[f"data.load_dataset_s.{ext}"] = incl[f"data.load_dataset.{ext}"]
    for span_name in ("net.forward_batch", "net.backward_batch", "net.Optimizer.step"):
        m[f"{span_name}_calls"] = calls[span_name]
    m["selection.select_self_s"] = self_s["selection.select"]
    m["selection.score_pool_self_s"] = self_s["selection.score_pool"]
    m["trainer.self_s"] = self_s["trainer.train"]
    m["stream.self_s"] = self_s["stream.run_stream"]
    m["cli.self_s"] = self_s["cli.main"]
    m["trainer.steps"] = calls["trainer.step_loss_and_grads"]
    m["trainer.step_us_p50"] = float(np.percentile(step_us, 50)) if step_us else 0.0
    m["trainer.step_us_p99"] = float(np.percentile(step_us, 99)) if step_us else 0.0
    m["trainer.confident_fraction"] = (counts["confident"] / counts["unlabeled_rows"]
                                       if counts["unlabeled_rows"] else 0.0)
    for mod in MODULES:
        mod_self = sum(v for k, v in self_s.items() if k.startswith(mod + "."))
        m[f"self_share.{mod}"] = mod_self / wall_s if wall_s > 0 else 0.0
    m["trace.spans"] = len(idx)
    return m

"""Run one workload of the driftal benchmark and print its metrics.

    python3 perfbench/run.py --workload ablation_grid --seed 0 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 34 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root; driftal is imported from ``src/``. The
workloads and metrics are listed in ``BENCHMARK.json``; ``README.md`` in
this directory explains them.

With ``--trace 0`` the run measures end to end: set-up (a fresh
interpreter importing driftal, plus making the workload's inputs, each
repeated and the medians added), then the workload's operation repeated
for ``--seconds`` with the median reported. With ``--trace 1`` one
untraced run of the operation is followed by traced runs (at least two)
whose spans give the per-layer metrics; the difference between the two
is the tracing overhead. Every run checks the program's outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
list every metric with its unit and the run's provenance; the full record
(and, for traced runs, the spans) is written under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench" / "results"

WORKLOADS = ("ablation_grid", "stream_train", "shards")
# One BLAS thread: the measured host is shared, and single-threaded BLAS
# keeps process CPU time equal to wall time.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# The host is shared: its speed drifts by 20-30 % over tens of seconds. A
# short fixed probe of the kinds of work driftal does, timed every
# PROBE_PERIOD_S while the program runs (and around each set-up), follows
# that drift. Times are reported in seconds of the reference host:
# measured seconds x PROBE_REFERENCE_S / median probe seconds.
PROBE_REFERENCE_S = 0.005
PROBE_PERIOD_S = 0.5
# metrics.bench pool sizes for the measured-seconds scaling report
BENCH_SIZES = {"full": (1000, 10000), "smoke": (100, 1000)}
BENCH_BUDGET = {"full": 400, "smoke": 20}


def prepare():
    """Fix BLAS threads and import driftal from src/; False if it is not there."""
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    if not (SRC / "driftal" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def f1_floors():
    """Minimum f1_mean per stream workload: the recorded value less its tolerance."""
    ref = json.loads((HERE / "reference.json").read_text())
    return {name: entry["f1_mean"] * (1 - entry["tolerance"])
            for name, entry in ref.items() if name != "comment"}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _openblas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return found
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "driftal").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload, seed, seconds, trace, config_sha256):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seeds": {"workload": seed, "experiment": seed, "generator": seed},
        "seconds": seconds,
        "trace": trace,
        "config_sha256": config_sha256,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_set": int(BLAS_THREADS), "threads_reported": _openblas_threads()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values)


def _time_import():
    """Seconds a fresh interpreter spends importing driftal."""
    code = "import time; t = time.perf_counter(); import driftal; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         cwd=ROOT, check=True, capture_output=True, text=True)
    return float(out.stdout.split()[-1])


class HostProbe:
    """Host speed, sampled by a short fixed probe of the kinds of work driftal does.

    Inside ``sampling()``, SIGALRM runs the probe every PROBE_PERIOD_S
    between the program's bytecodes. ``scale()`` is PROBE_REFERENCE_S over
    the median probe time, so seconds x ``scale()`` are seconds of the
    reference host.
    """

    def __init__(self):
        import numpy as np
        from scipy.spatial.distance import cdist

        self._A = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
        self._out = np.empty_like(self._A)
        self._src = np.ones(1 << 20)
        self._dst = np.empty_like(self._src)
        self._P = np.linspace(0.0, 1.0, 320 * 16).reshape(320, 16)
        self._Q = self._P[::-1].copy()
        self._D = np.empty((320, 320))
        self._np = np
        self._cdist = cdist
        self.samples = []
        self.probe()  # fault the buffers in before the first timed probe

    def probe(self):
        """One pass, roughly equal parts GEMM, scalar distance loops,
        memory copy, interpreter arithmetic and string building."""
        np = self._np
        t0 = time.perf_counter()
        for _ in range(6):
            np.matmul(self._A, self._A, out=self._out)
        self._cdist(self._P, self._Q, "minkowski", p=2.0, out=self._D)
        np.copyto(self._dst, self._src)
        total = 0
        for i in range(15000):
            total += i & 7
        len(",".join([str(i) for i in range(5000)]))
        return time.perf_counter() - t0

    def calibrate(self, passes=10):
        """Median seconds of ``passes`` back-to-back probes."""
        return _median([self.probe() for _ in range(passes)])

    def scale(self):
        return PROBE_REFERENCE_S / _median(self.samples)

    def _on_alarm(self, signum, frame):
        self.samples.append(self.probe())

    @contextlib.contextmanager
    def sampling(self):
        self.samples = [self.probe()]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.samples.append(self.probe())


def _loop(work, state, ref, seconds, min_iters=1, before_each=None):
    """Run the operation until ``seconds`` would be exceeded, at least ``min_iters`` times.

    Each run's ``scale`` comes from the host probes taken while it ran.
    Returns the runs and the peak RSS after the first.
    """
    import workloads as wl

    iters = []
    host = HostProbe()
    start = time.perf_counter()
    while True:
        if before_each is not None:
            before_each(len(iters))
        t0 = time.perf_counter()
        raised = False
        with host.sampling():
            try:
                it = work.iterate(state, ref)
            except Exception as e:  # the run goes on to report the failure
                traceback.print_exc(file=sys.stderr)
                ops = work.operations
                it = wl.Iteration(time.perf_counter() - t0, ops, ops,
                                  [f"{type(e).__name__}: {e}"])
                raised = True
        it.scale = host.scale()
        iters.append(it)
        if len(iters) == 1:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - start
        typical = _median([i.seconds for i in iters])
        if raised or (len(iters) >= min_iters and elapsed + typical > seconds):
            return iters, rss_kb


def _repeat_problems(iters):
    """Outputs that should repeat exactly between runs of the same inputs."""
    f1 = {it.quality.get("f1_mean") for it in iters}
    return [] if len(f1) <= 1 else [f"f1_mean differs between runs: {sorted(f1)}"]


def _end_to_end(iters, setup_s, rss_kb):
    """End-to-end metrics of the untraced iterations, as {name: (value, unit)}."""
    walls = [it.seconds * it.scale for it in iters]
    wall = _median(walls)
    attempted = sum(it.attempted for it in iters)
    failed = sum(it.failed for it in iters)
    m = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "error_rate": (failed / attempted, "ratio"),
        "iterations": (len(iters), "count"),
        "wall_min_s": (min(walls), "s"),
        "wall_max_s": (max(walls), "s"),
        "wall_raw_s": (_median([it.seconds for it in iters]), "s"),
    }
    quality = iters[0].quality
    if "months" in quality:
        m["months_per_s"] = (quality["months"] / wall, "1/s")
        m["f1_mean"] = (quality["f1_mean"], "ratio")
    if "rows" in quality:
        for ext in ("bfv", "csv"):
            for op in ("write", "read"):
                key = f"{ext}_{op}_s"
                times = [it.phases[key] * it.scale for it in iters if key in it.phases]
                if times:
                    m[f"{ext}_{op}_rows_per_s"] = (quality["rows"] / _median(times), "rows/s")
    return m


def _measure_setup(work, seed, workdir):
    """Median reference-host seconds of importing driftal plus making the inputs."""
    host = HostProbe()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = host.calibrate()
        import_s = _time_import()
        t0 = time.perf_counter()
        state = work.setup(seed, workdir)
        seconds = import_s + time.perf_counter() - t0
        after = host.calibrate()
        raw.append(seconds)
        scaled.append(seconds * PROBE_REFERENCE_S / ((before + after) / 2))
    return _median(scaled), state, raw


def run_untraced(work, seed, seconds, workdir):
    setup_s, state, setup_raw = _measure_setup(work, seed, workdir)
    ref = work.reference(state)
    iters, rss_kb = _loop(work, state, ref, seconds)
    metrics = _end_to_end(iters, setup_s, rss_kb)
    problems = [p for it in iters for p in it.problems] + _repeat_problems(iters)
    detail = {"setup_raw_s": setup_raw,
              "iteration_s": [it.seconds for it in iters],
              "iteration_scale": [it.scale for it in iters],
              "phases": [it.phases for it in iters]}
    return state, iters, metrics, problems, detail


def run_traced(work, seed, seconds, workdir, smoke, spans_path):
    import tracer as tr
    from driftal import metrics as met

    tracer = tr.Tracer()
    start = time.perf_counter()
    with tracer.installed():
        tracer.group = "setup"
        t0 = time.perf_counter()
        state = work.setup(seed, workdir)
        setup_wall = time.perf_counter() - t0
        tracer.group = None
    ref = work.reference(state)
    untraced, _ = _loop(work, state, ref, 0)
    remaining = seconds - (time.perf_counter() - start)

    def next_group(k):
        tracer.group = f"iter{k}"

    with tracer.installed():
        traced, _ = _loop(work, state, ref, remaining, min_iters=2, before_each=next_group)
    tracer.group = None

    problems = [p for it in untraced + traced for p in it.problems]
    problems += _repeat_problems(untraced + traced)
    problems += tr.check_span_tree(tracer.spans)

    setup_layer = tr.per_layer_metrics(tracer.spans, "setup", setup_wall)
    layers = [tr.per_layer_metrics(tracer.spans, f"iter{k}", it.seconds)
              for k, it in enumerate(traced)]
    metrics = {}
    for name, unit in tr.PER_LAYER_UNITS.items():
        values = [layer[name] for layer in layers]
        if name in tr.EXACT_COUNTS:
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between runs: {values}")
            metrics[name] = (values[0], unit)
        elif unit == "s":
            metrics[name] = (setup_layer[name] + _median(values), unit)
        else:
            metrics[name] = (_median(values), unit)

    traced_wall = _median([it.seconds * it.scale for it in traced])
    untraced_wall = _median([it.seconds * it.scale for it in untraced])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")

    mode = "smoke" if smoke else "full"
    small, large = BENCH_SIZES[mode]
    records = met.bench([small, large], budget=BENCH_BUDGET[mode], seed=seed)
    per_sample = [r.seconds / r.sample_count for r in records]
    metrics["bench.s_per_sample.small"] = (per_sample[0], "s")
    metrics["bench.s_per_sample.large"] = (per_sample[1], "s")
    metrics["bench.linearity"] = (per_sample[1] / per_sample[0], "ratio")

    tracer.write(spans_path)
    iters = untraced + traced
    detail = {"iteration_s": {"untraced": [it.seconds for it in untraced],
                              "traced": [it.seconds for it in traced]},
              "cells": tracer.cells, "spans_file": str(spans_path.relative_to(ROOT)),
              "bench": [r.to_dict() for r in records],
              "counts_per_run": [{n: layer[n] for n in tr.EXACT_COUNTS} for layer in layers]}
    return state, iters, metrics, problems, detail


def run(workload, seed, seconds, trace, smoke=False):
    """Measure one workload; returns (result line, full record)."""
    import workloads as wl

    work = wl.make(workload, smoke=smoke, f1_floors=None if smoke else f1_floors())
    workdir = ROOT / ".perfbench" / f"work-{workload}-{seed}-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}" + ("-smoke" if smoke else "")
    try:
        if trace:
            state, iters, metrics, problems, detail = run_traced(
                work, seed, seconds, workdir, smoke, RESULTS / f"{stem}-spans.jsonl.gz")
        else:
            state, iters, metrics, problems, detail = run_untraced(
                work, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = [m["name"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]]
    problems += [f"metric {name} was not measured" for name in listed if name not in metrics]
    attempted = sum(it.attempted for it in iters)
    failed = sum(it.failed for it in iters)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in listed if name in metrics},
    }
    record = {
        "result": result,
        "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
        "detail": detail,
        "provenance": provenance(workload, seed, seconds, trace, state["hash"]),
    }
    (RESULTS / f"{stem}-trace{int(bool(trace))}.json").write_text(
        json.dumps(record, indent=2, default=str))
    return result, record


def _print_report(record):
    for name, m in record["all_metrics"].items():
        value = m["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<34} {text:>16} {m['unit']}")
    for problem in record["problems"][:20]:
        print(f"problem: {problem}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))


def smoke():
    """Every workload at a tiny size, untraced and traced; raises on a failure."""
    spec = benchmark_spec()
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, record = run(workload, seed=0, seconds=0, trace=trace, smoke=True)
            listed = spec["per_layer" if trace else "end_to_end"]
            for m in listed:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    raise AssertionError(f"{workload}: metric {m['name']} missing "
                                         f"or with another unit: {got}")
            unlisted = set(record["all_metrics"]) - {m["name"] for m in listed}
            if trace and unlisted:
                raise AssertionError(f"{workload}: per-layer metrics not in "
                                     f"BENCHMARK.json: {sorted(unlisted)}")
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{workload} trace={trace}: {record['problems']}")
            if not trace and record["all_metrics"]["error_rate"]["value"] != 0:
                raise AssertionError(f"{workload}: error_rate is not 0")
            print(f"smoke {workload} trace={trace}: ok")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the output")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not prepare():
        print(f"driftal sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        smoke()
        return 0
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], cwd=ROOT).returncode
                 for w in WORKLOADS]
        return max(codes)
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    _print_report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's client loop, output checks and result assembly.

Imported by run.py after the BLAS thread count is pinned and the library
has been imported from this checkout.
"""

import ctypes
import glob
import importlib
import os
import resource
import statistics
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import tracer
from lpjt import dataio, landmark, pipeline

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
SETUP_REPEATS = 3

# end-to-end metrics (untraced run) and their units
END_TO_END = {
    "fit_s": "s",
    "predict_s": "s",
    "accuracy": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class Client:
    """The closed-loop client: runs fit/predict, checks every output and
    tallies operations, timings and warnings."""

    def __init__(self, wl, tmp_dir, tracer=None):
        self.wl = wl
        self.tmp_dir = tmp_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.fit_s = []
        self.predict_s = []
        self.warnings = Counter()

    def _fail(self, what):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def _timed(self, op, fn, *args):
        tr = self.tracer
        start = time.perf_counter()
        if tr is None:
            result = fn(*args)
        else:
            tr.op = op
            try:
                result = tr.call(f"pipeline.{op.split(':')[0]}", fn, *args)
            finally:
                tr.op = None
        return result, time.perf_counter() - start

    def run(self, index, problem, expect=None):
        """Fit and predict one problem; returns the predicted labels, or
        None when an operation failed."""
        p, tag = problem, f"{self.wl.name}[{index}]"
        self.attempted += 1
        op = f"fit:{self.attempted}"
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                model, elapsed = self._timed(op, pipeline.fit, p.src, p.tgt_u, p.tgt_l, self.wl.cfg)
        except Exception as exc:    # a failed fit is counted, the run goes on
            self._fail(f"{tag} fit raised {type(exc).__name__}: {exc}")
            return None
        self.fit_s.append(elapsed)
        self.warnings.update(w.category.__name__ for w in caught)
        if self.tracer is not None:
            self.tracer.counts[op]["pipeline.warnings"] += len(caught)
        faults = check_model(model, p)
        if faults:
            self._fail(f"{tag} fit: {'; '.join(faults)}")

        self.attempted += 1
        try:
            labels, elapsed = self._timed(f"predict:{self.attempted}", pipeline.predict,
                                          model, p.src, p.tgt_u, p.tgt_l)
        except Exception as exc:
            self._fail(f"{tag} predict raised {type(exc).__name__}: {exc}")
            return None
        self.predict_s.append(elapsed)
        faults = check_labels(labels, p, model, self.tmp_dir)
        if expect is not None and not np.array_equal(labels, expect):
            faults.append("a refit of the same problem predicted other labels")
        if faults:
            self._fail(f"{tag} predict: {'; '.join(faults)}")
            return None
        return labels


def check_model(model, p):
    faults = []
    if not (np.all(np.isfinite(model.A)) and np.all(np.isfinite(model.B))):
        faults.append("A or B is not finite")
    if not landmark.check_feasible(model.weights, p.src.labels, model.pseudo_labels):
        faults.append("landmark weights are infeasible")
    return faults


def check_labels(labels, p, model, tmp_dir):
    labels = np.asarray(labels)
    n_u = p.tgt_u.shape[1]
    if labels.shape != (n_u,):
        return [f"predicted {labels.shape} labels for {n_u} samples"]
    if labels.min() < 0 or labels.max() >= p.num_classes:
        return [f"labels outside [0, {p.num_classes})"]
    with tempfile.TemporaryDirectory(dir=tmp_dir) as tmp:
        path = os.path.join(tmp, "model.lpjt")
        dataio.save_model(path, model)
        reloaded = pipeline.predict(dataio.load_model(path), p.src, p.tgt_u, p.tgt_l)
    if not np.array_equal(reloaded, labels):
        return ["the saved and reloaded model predicts other labels"]
    return []


def setup(wl, seed):
    """Generate the run's problems and warm up on a toy problem."""
    problems = [wl.make(seed, i, wl.n_per_class) for i in range(wl.problems)]
    warm = wl.make(seed, wl.problems, wl.toy_per_class)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pipeline.predict(pipeline.fit(warm.src, warm.tgt_u, warm.tgt_l, wl.cfg),
                         warm.src, warm.tgt_u, warm.tgt_l)
    return problems


def one_pass(client, problems):
    """Fit and predict every problem once; returns the accuracies."""
    accuracy, labels = [], []
    for i, p in enumerate(problems):
        pred = client.run(i, p)
        labels.append(pred)
        if pred is not None:
            accuracy.append(pipeline.evaluate(pred, p.truth))
    return accuracy, labels


def run(wl, seed, seconds, trace, import_s=0.0):
    """One benchmark run; returns (result dict, report lines)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        problems = None     # free the previous round's data before the next
        start = time.perf_counter()
        problems = setup(wl, seed)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    client = Client(wl, OUT_DIR)
    start = time.perf_counter()
    accuracy, first = one_pass(client, problems)
    if not trace:
        # cycle through the problems again while another one fits in time
        per_problem = (time.perf_counter() - start) / len(problems)
        i = 0
        while time.perf_counter() - start + per_problem <= seconds:
            k = i % len(problems)
            client.run(k, problems[k], expect=first[k])
            i += 1
    report = [
        f"# workload {wl.name} seed {seed}: {len(problems)} problems, "
        f"{len(client.fit_s)} fits, {len(client.predict_s)} predicts, "
        f"failed {client.failed}/{client.attempted}",
    ]
    if client.warnings:
        report.append(f"# warnings {dict(client.warnings)}")
    report += [f"# error {e}" for e in client.errors]
    correct = client.failed == 0 and len(accuracy) == len(problems)

    if trace:
        tr = tracer.Tracer()
        traced = Client(wl, OUT_DIR, tr)
        with tr:
            one_pass(traced, problems)
        client.attempted += traced.attempted
        client.failed += traced.failed
        correct = correct and traced.failed == 0
        report += [f"# error {e}" for e in traced.errors]
        metrics = tracer.layer_metrics(tr, wl.cfg.hyper.T)
        untraced, traced_s = med(client.fit_s), med(traced.fit_s)
        metrics.update({
            "pipeline.fit_untraced_s": untraced,
            "pipeline.fit_traced_s": traced_s,
            "pipeline.trace_overhead_s": traced_s - untraced,
        })
        path = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
        tr.dump(path, {"workload": wl.name, "seed": seed, "machine": machine_facts(),
                       "warnings": dict(traced.warnings)})
        report.append(f"# spans written to {path.relative_to(ROOT)}")
        units = {name: tracer.unit(name) for name in metrics}
    else:
        metrics = {
            "fit_s": med(client.fit_s),
            "predict_s": med(client.predict_s),
            "accuracy": statistics.fmean(accuracy) if accuracy else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    for name, value in metrics.items():
        report.append(f"{name:40s} {value:14.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, report


def med(values):
    # no values only when every operation failed, which fails the run
    return statistics.median(values) if values else 0.0


def _blas_threads():
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    found = {}
    for pkg, symbol in (("numpy", "scipy_openblas_get_num_threads64_"),
                        ("scipy", "scipy_openblas_get_num_threads")):
        mod = importlib.import_module(pkg)
        libs = glob.glob(os.path.join(os.path.dirname(mod.__file__), os.pardir,
                                      f"{pkg}.libs", "libscipy_openblas*"))
        try:
            fn = getattr(ctypes.CDLL(libs[0]), symbol)
        except (IndexError, OSError, AttributeError):
            found[pkg] = None
            continue
        fn.restype = ctypes.c_int
        found[pkg] = fn()
    return found


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
    }

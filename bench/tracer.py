"""Spans and counts around calls into the lpjt modules, recorded from
outside the library by swapping module attributes for timing wrappers.

Every library function that `fit` reaches through a module attribute or a
module global can be wrapped this way: `pipeline.fit` calls
`graph.build_penalty_graph`, `graph.scatter_matrices` calls its own global
`build_intrinsic_graph`, and both resolve the name at call time. Spans are
kept in memory; `dump` writes them once at the end.
"""

import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

from lpjt import eigsolve, graph, labelprop, landmark, mmd, pipeline
from lpjt.core import as_features

LAYERS = ("landmark", "graph", "distance", "labelprop", "eigsolve", "mmd", "pipeline")


class Tracer:
    """Span recorder. A span is (id, name, start, end, parent, op); spans of
    one fit or predict call share the op id, e.g. 'fit:3'."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)      # op -> name -> value
        self.maxima = defaultdict(dict)         # op -> name -> value
        self.minima = defaultdict(dict)
        self.op = None
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        span = [sid, name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
                self.op]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1):
        self.counts[self.op][name] += value

    def keep_max(self, name, value):
        self.maxima[self.op][name] = max(self.maxima[self.op].get(name, value), value)

    def keep_min(self, name, value):
        self.minima[self.op][name] = min(self.minima[self.op].get(name, value), value)

    # -- instrumentation ---------------------------------------------------

    def wrap(self, module, attr, name, before=None, inner=None, after=None):
        """Replace module.attr by a wrapper that records span `name`.

        `inner(orig, *args, **kwargs)` replaces the plain call inside the
        span; `before(args)` and `after(args, result)` record counts.
        """
        orig = getattr(module, attr)
        run = functools.partial(inner, orig) if inner else orig

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self.op is None:     # outside a fit or predict: not recorded
                return orig(*args, **kwargs)
            if before:
                before(args)
            result = self.call(name, run, *args, **kwargs)
            if after:
                after(args, result)
            return result

        self._patches.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def count_calls(self, module, attr, name):
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.count(name)
            return orig(*args, **kwargs)

        self._patches.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def install(self):
        """Wrap the public functions `fit` and `predict` reach, per module."""
        self.wrap(landmark, "build_qp", "landmark.build_qp")
        self.wrap(landmark, "project_feasible", "landmark.project_feasible")
        self.wrap(landmark, "solve_qp", "landmark.solve_qp", inner=self._solve_qp)
        self.count_calls(landmark, "_project", "landmark.project_calls")
        for attr in ("build_intrinsic_graph", "build_penalty_graph"):
            self.wrap(graph, attr, f"graph.{attr}", after=self._zero_degree)
        self.wrap(graph, "scatter_matrices", "graph.scatter_matrices")
        for module in (graph, labelprop, pipeline):
            self.wrap(module, "cdist", "distance.cdist", before=self._cdist_flops)
        self.wrap(labelprop, "classify", "labelprop.classify", after=self._classify)
        self.wrap(eigsolve, "assemble_problem", "eigsolve.assemble_problem",
                  after=self._eig_dim)
        self.wrap(eigsolve, "solve", "eigsolve.solve")
        for attr in ("build_coeffs", "assemble_M", "mmd_distance"):
            self.wrap(mmd, attr, f"mmd.{attr}")
        self.wrap(pipeline, "_span_basis", "pipeline._span_basis")

    def uninstall(self):
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- count hooks -------------------------------------------------------

    def _solve_qp(self, orig, *args, full_output=False, **kwargs):
        weights, info = orig(*args, full_output=True, **kwargs)
        self.count("landmark.qp_iterations", info["iterations"])
        self.count("landmark.qp_converged", int(info["converged"]))
        return (weights, info) if full_output else weights

    def _zero_degree(self, args, G):
        self.count("graph.zero_degree_nodes", int(np.count_nonzero(G.W.sum(axis=1) == 0.0)))

    def _cdist_flops(self, args):
        XA, XB = np.asarray(args[0]), np.asarray(args[1])
        self.count("distance.cdist.gflop_computed", 3e-9 * XA.shape[0] * XB.shape[0] * XA.shape[1])

    def _classify(self, args, labels):
        train, test = args[0], args[1]
        self.keep_max("labelprop.joint_n", train.n + as_features(test).n)
        self.keep_min("labelprop.min_pred_classes", int(np.unique(labels).size))

    def _eig_dim(self, args, problem):
        self.keep_max("eigsolve.dim", problem.LHS.shape[0])

    # -- output ------------------------------------------------------------

    def dump(self, path, extra):
        rows = [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": op}
            for sid, name, start, end, parent, op in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({**extra, "spans": rows}, fh)


def self_times(spans):
    """Per span id: duration minus the durations of its direct children."""
    own = {sid: end - start for sid, _, start, end, _, _ in spans}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(tracer, T):
    """Per-layer metrics from a traced pass, as means per fit (per predict
    for the predict-path classify figures)."""
    own = self_times(tracer.spans)
    fit_ops = sorted({op for *_, op in tracer.spans if op.startswith("fit:")})
    predict_ops = sorted({op for *_, op in tracer.spans if op.startswith("predict:")})
    self_s = defaultdict(float)         # (kind, name) -> seconds
    calls = Counter()
    for sid, name, start, end, parent, op in tracer.spans:
        kind = op.split(":")[0]
        self_s[kind, name] += own[sid]
        calls[kind, name] += 1
    nf, npr = max(len(fit_ops), 1), max(len(predict_ops), 1)
    # self times of all spans in a fit add up to its root span
    fit_total = sum(end - start for _, name, start, end, _, _ in tracer.spans
                    if name == "pipeline.fit")
    counts = Counter()
    for op in fit_ops:
        counts.update(tracer.counts[op])

    def fit_self(name):
        return self_s["fit", name] / nf

    def fit_calls(name):
        return calls["fit", name] / nf

    layer_s = defaultdict(float)
    for (kind, name), value in self_s.items():
        if kind == "fit":
            layer_s[name.split(".")[0]] += value

    solves = calls["fit", "eigsolve.solve"]
    qp_calls = calls["fit", "landmark.solve_qp"]
    m = {
        "landmark.solve_qp.calls": fit_calls("landmark.solve_qp"),
        "landmark.solve_qp.self_s": fit_self("landmark.solve_qp"),
        "landmark.build_qp.self_s": fit_self("landmark.build_qp"),
        "landmark.project_feasible.self_s": fit_self("landmark.project_feasible"),
        "landmark.qp_iterations": counts["landmark.qp_iterations"] / nf,
        "landmark.qp_converged_frac": counts["landmark.qp_converged"] / max(qp_calls, 1),
        "landmark.project_calls": counts["landmark.project_calls"] / nf,
    }
    for fn in ("build_intrinsic_graph", "build_penalty_graph", "scatter_matrices"):
        m[f"graph.{fn}.calls"] = fit_calls(f"graph.{fn}")
        m[f"graph.{fn}.self_s"] = fit_self(f"graph.{fn}")
    m["graph.zero_degree_nodes"] = counts["graph.zero_degree_nodes"] / nf
    m["distance.cdist.calls"] = fit_calls("distance.cdist")
    m["distance.cdist.s"] = fit_self("distance.cdist")
    m["distance.cdist.gflop_computed"] = counts["distance.cdist.gflop_computed"] / nf
    m["labelprop.classify.calls"] = fit_calls("labelprop.classify")
    m["labelprop.classify.self_s"] = fit_self("labelprop.classify")
    m["labelprop.classify.predict_calls"] = calls["predict", "labelprop.classify"] / npr
    m["labelprop.classify.predict_self_s"] = self_s["predict", "labelprop.classify"] / npr
    m["labelprop.joint_n"] = max(tracer.maxima[op].get("labelprop.joint_n", 0) for op in fit_ops)
    m["labelprop.min_pred_classes"] = min(
        tracer.minima[op].get("labelprop.min_pred_classes", 0) for op in fit_ops)
    m["eigsolve.assemble_problem.self_s"] = fit_self("eigsolve.assemble_problem")
    m["eigsolve.solve.calls"] = fit_calls("eigsolve.solve")
    m["eigsolve.solve.self_s"] = fit_self("eigsolve.solve")
    m["eigsolve.dim"] = max(tracer.maxima[op].get("eigsolve.dim", 0) for op in fit_ops)
    for fn in ("build_coeffs", "assemble_M", "mmd_distance"):
        m[f"mmd.{fn}.self_s"] = fit_self(f"mmd.{fn}")
    m["pipeline.self_s"] = fit_self("pipeline.fit")
    m["pipeline._span_basis.self_s"] = fit_self("pipeline._span_basis")
    m["pipeline.rollbacks"] = (solves - T * len(fit_ops)) / nf
    m["pipeline.warnings"] = counts["pipeline.warnings"] / nf
    for layer in LAYERS:
        m[f"{layer}.fit_share"] = layer_s[layer] / fit_total if fit_total > 0 else 0.0
    return m


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith(("_frac", "_share")):
        return "fraction"
    return "count"

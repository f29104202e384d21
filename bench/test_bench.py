"""The benchmark's own test: every workload at its warm-up size through the
same code, the metric names and units against BENCHMARK.json, and a broken
output counted as a failure with a nonzero exit."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import client  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lpjt import graph, landmark, pipeline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def toy_workloads(monkeypatch):
    """Every workload at its warm-up size, one problem per run, one set-up.
    The thread variables run.main pins are restored afterwards."""
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    for name, wl in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(
            wl, n_per_class=wl.toy_per_class, problems=1))
    monkeypatch.setattr(client, "SETUP_REPEATS", 1)


def bench(capsys, workload, trace=0, seconds=0):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", str(seconds),
                   "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(out[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_present_with_its_unit(capsys, workload):
    originals = (graph.cdist, graph.build_penalty_graph, landmark._project, pipeline._span_basis)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        rc, result = bench(capsys, workload, trace)
        assert rc == 0 and result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 2
        assert {m["name"]: m["unit"] for m in SPEC[key]} == {
            name: m["unit"] for name, m in result["metrics"].items()}
        assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    # the traced pass leaves the library as it found it
    assert originals == (graph.cdist, graph.build_penalty_graph, landmark._project,
                         pipeline._span_basis)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert sum(m[f"{layer}.fit_share"] for layer in tracer.LAYERS) == pytest.approx(1.0, abs=0.05)
    T = workloads.WORKLOADS[workload].cfg.hyper.T
    assert m["eigsolve.solve.calls"] == T + m["pipeline.rollbacks"]
    if workload == "decaf-4096":
        assert m["labelprop.min_pred_classes"] == 1


def test_benchmark_json_names_its_workloads():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_broken_predictions_fail_the_run(capsys, monkeypatch):
    predict = pipeline.predict
    monkeypatch.setattr(pipeline, "predict", lambda *a: predict(*a) + 3)
    rc, result = bench(capsys, "rotated-small")
    assert rc == 1 and not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 2


def test_infeasible_weights_fail_the_run(capsys, monkeypatch):
    monkeypatch.setattr(landmark, "check_feasible", lambda *a: False)
    rc, result = bench(capsys, "hetero-large")
    assert rc == 1 and result["failed"] == 1 and result["attempted"] == 2


def test_cycling_rechecks_refits(capsys):
    rc, result = bench(capsys, "rotated-small", seconds=1)
    assert rc == 0 and result["attempted"] > 2


def test_self_times_subtract_children():
    spans = [[0, "pipeline.fit", 0.0, 10.0, None, "fit:1"],
             [1, "graph.scatter_matrices", 1.0, 5.0, 0, "fit:1"],
             [2, "distance.cdist", 2.0, 3.0, 1, "fit:1"],
             [3, "labelprop.classify", 6.0, 9.0, 0, "fit:1"]]
    assert tracer.self_times(spans) == {0: 3.0, 1: 3.0, 2: 1.0, 3: 3.0}


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rotated-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

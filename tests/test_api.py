"""The package's public surface, and the independence of the test oracles
from it."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import lpjt

PUBLIC = [
    "FeatureMatrix", "Hyperparams", "LabeledDataset", "SubspaceModel", "TrainTrace",
    "unit_normalize", "validate_pair", "zscore_normalize",
    "EigProblem", "EigSolution", "SolverError", "assemble_problem", "solve",
    "LandmarkWeights", "QpInstance", "build_qp", "solve_qp",
    "classify",
    "MmdBlocks", "MmdCoeffs", "assemble_M",
    "FitConfig", "evaluate", "fit", "predict", "transform",
]

# the references only the tests call, now in tests/oracles.py, by old module
MOVED = {
    "graph": ["pairwise_sqdist", "knn_heat_graph"],
    "labelprop": ["propagate", "PropagationResult", "similarity_matrix"],
    "mmd": ["marginal_coeffs", "conditional_coeffs", "mmd_value"],
    "landmark": ["project_box_mean"],
}


def test_oracles_import_only_numpy_scipy_and_the_standard_library():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    allowed = {"numpy", "scipy"} | set(sys.stdlib_module_names)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import has level > 0 and may have no module name
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert [name for name in imported if name.split(".")[0] not in allowed] == []


def test_public_names_pinned_and_resolved():
    assert lpjt.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(lpjt, name) is not None, name


@pytest.mark.parametrize("module", sorted(MOVED))
def test_moved_names_gone(module):
    mod = importlib.import_module(f"lpjt.{module}")
    for name in MOVED[module]:
        assert not hasattr(mod, name), f"lpjt.{module}.{name}"
        assert not hasattr(lpjt, name), f"lpjt.{name}"
    if module == "landmark":
        for name in ("Bq", "K_ss", "K_uu", "K_su"):
            assert not hasattr(mod.QpInstance, name), f"QpInstance.{name}"

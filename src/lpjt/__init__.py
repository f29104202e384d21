"""Locality-preserving joint transfer: domain adaptation that couples
feature-level distribution matching with sample-level landmark selection,
keeps neighborhood structure intact via graph regularization, and labels
the target domain by propagation in the learned subspace."""

from .core import (
    FeatureMatrix,
    FitConfig,
    Hyperparams,
    LabeledDataset,
    SubspaceModel,
    TrainTrace,
    unit_normalize,
    validate_pair,
    zscore_normalize,
)
from .eigsolve import EigProblem, EigSolution, SolverError, assemble_problem, solve
from .landmark import LandmarkWeights, QpInstance, build_qp, solve_qp
from .labelprop import classify
from .mmd import MmdBlocks, MmdCoeffs, assemble_M
from .pipeline import evaluate, fit, predict, transform

__version__ = "0.1.0"

__all__ = [
    "FeatureMatrix",
    "Hyperparams",
    "LabeledDataset",
    "SubspaceModel",
    "TrainTrace",
    "unit_normalize",
    "validate_pair",
    "zscore_normalize",
    "EigProblem",
    "EigSolution",
    "SolverError",
    "assemble_problem",
    "solve",
    "LandmarkWeights",
    "QpInstance",
    "build_qp",
    "solve_qp",
    "classify",
    "MmdBlocks",
    "MmdCoeffs",
    "assemble_M",
    "FitConfig",
    "evaluate",
    "fit",
    "predict",
    "transform",
]

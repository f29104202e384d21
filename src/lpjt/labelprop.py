"""Graph-based label propagation.

Labels diffuse over a normalized similarity graph by iterating
Y(t+1) = sigma * S * Y(t) + (1 - sigma) * Y(0), whose fixed point is
(1 - sigma) (I - sigma S)^{-1} Y(0). Used for pseudo-label initialization,
per-iteration refresh, and as the final classifier in the learned subspace.
The k-NN graph is found by an exact k-d tree search in O(n * k) memory,
and S stays sparse from there to the fixed-point solve.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
# unused here; bench/tracer.py wraps labelprop.cdist by name
from scipy.spatial.distance import cdist  # noqa: F401

from . import graph
from .core import FeatureMatrix, Hyperparams, LabeledDataset, as_features


@dataclass(frozen=True)
class PropagationResult:
    soft_labels: np.ndarray     # (n, C) diffusion scores
    hard_labels: np.ndarray     # row argmax, ties to the lowest class index
    iterations_used: int


def similarity_matrix(Z, k: int) -> sp.csr_array:
    """Normalized similarity S = D^{-1/2} W D^{-1/2} of a k-NN heat graph.

    W is `graph.tree_knn_heat_graph`: OR-symmetrized k-NN edges weighted
    with exp(-||z_i - z_j||^2 / 2), found by an exact tree search with no
    n x n distance matrix, bit for bit `graph.knn_heat_graph` over every
    pair but self. S is returned as a
    `scipy.sparse` CSR array with W's sparsity pattern (at most 2k nonzeros
    per row), exactly symmetric. Nodes whose incident weights underflow to
    zero end up with zero rows rather than NaNs.
    """
    Z = as_features(Z)
    n = Z.n
    if n < 2:
        raise ValueError("need at least two samples to build a graph")
    W = graph.tree_knn_heat_graph(Z, k)
    rows = np.repeat(np.arange(n), np.diff(W.indptr))
    deg = np.bincount(rows, weights=W.data, minlength=n)
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0.0, 1.0 / np.sqrt(deg), 0.0)
    # dinv_i * dinv_j first, so that S is exactly symmetric
    W.data *= dinv[rows] * dinv[W.indices]
    return W


def propagate(S, Y0, sigma: float, tol: float = 1e-9, max_iter: int = 1000) -> PropagationResult:
    """Iterate the diffusion to its fixed point.

    Stops when the max-norm update falls below `tol` or after `max_iter`
    sweeps. Y0 holds one-hot rows for labeled samples and zero rows for
    unlabeled ones. S may be dense or `scipy.sparse`.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    S = sp.csr_array(S, dtype=np.float64)
    Y0 = np.asarray(Y0, dtype=np.float64)
    Y = Y0.copy()
    base = (1.0 - sigma) * Y0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        Y_next = sigma * (S @ Y) + base
        delta = np.max(np.abs(Y_next - Y))
        Y = Y_next
        if delta < tol:
            break
    return PropagationResult(
        soft_labels=Y,
        hard_labels=np.argmax(Y, axis=1),
        iterations_used=iterations,
    )


def closed_form(S, Y0, sigma: float) -> np.ndarray:
    """Fixed point (1 - sigma) (I - sigma S)^{-1} Y0 by direct solve.

    S may be dense or `scipy.sparse`; I - sigma S is factored by a sparse
    LU (SuperLU), so a k-NN graph costs about its nonzeros plus fill, not
    n^3.
    """
    S = sp.csc_array(S, dtype=np.float64)
    Y0 = np.asarray(Y0, dtype=np.float64)
    n = S.shape[0]
    lu = splu(sp.identity(n, format="csc") - sigma * S)
    return (1.0 - sigma) * lu.solve(Y0)


def classify(train: LabeledDataset, test, hyper: Hyperparams) -> np.ndarray:
    """Propagate training labels to test samples over a joint graph.

    Both sets must live in the same (sub)space. Returns hard labels for the
    test columns only. A test sample whose scores are all zero (no graph
    path to a labeled sample, or weights that underflowed) gets class 0;
    one RuntimeWarning reports how many did.
    """
    test = as_features(test)
    if train.features.dim != test.dim:
        raise ValueError(
            f"train dimensionality {train.features.dim} != test {test.dim}"
        )
    joint = FeatureMatrix(np.hstack([train.features.data, test.data]))
    S = similarity_matrix(joint, k=hyper.k_w)
    n_train = train.n
    Y0 = np.zeros((joint.n, train.num_classes))
    Y0[np.arange(n_train), train.labels] = 1.0
    # the diffusion fixed point, evaluated directly; identical to iterating
    Y = closed_form(S, Y0, hyper.sigma_lp)[n_train:]
    unreached = np.count_nonzero(~Y.any(axis=1))
    if unreached:
        warnings.warn(
            f"{unreached} of {test.n} test samples have all-zero label scores "
            "(no graph path to a labeled sample) and are given class 0",
            RuntimeWarning,
        )
    return np.argmax(Y, axis=1)

"""Graph-based label propagation.

Labels diffuse over a normalized similarity graph by iterating
Y(t+1) = sigma * S * Y(t) + (1 - sigma) * Y(0), whose fixed point is
(1 - sigma) (I - sigma S)^{-1} Y(0). Used for pseudo-label initialization,
per-iteration refresh, and as the final classifier in the learned subspace.
The k-NN graph is found by an exact k-d tree search in O(n * k) memory
and kept as its list of undirected edges, each weighing S_ij. The
fixed-point solve orders the nodes by reverse Cuthill-McKee, fills the band
of I - sigma S from the edges in that order and factors it by a banded
Cholesky; `similarity_matrix` and `closed_form` are the same path through
a CSR array of S. Scores within a few ulps of their row's maximum tie, and
the lowest class among them wins.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solveh_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee
# unused here; bench/tracer.py wraps labelprop.cdist by name
from scipy.spatial.distance import cdist  # noqa: F401

from . import graph
from .core import Hyperparams, LabeledDataset, _fresh_features, as_features


@dataclass(frozen=True)
class PropagationResult:
    soft_labels: np.ndarray     # (n, C) diffusion scores
    hard_labels: np.ndarray     # row argmax, near ties to the lowest class
    iterations_used: int


# scores this close to their row's maximum, relative to it, tie: a few ulps,
# the rounding by which the solve's order can split equal scores
_TIE_RTOL = 8 * np.finfo(np.float64).eps


def _hard_labels(Y) -> np.ndarray:
    """Row argmax of the scores Y, where scores within `_TIE_RTOL` of the
    row's maximum tie and the lowest class among them wins (class 0 for an
    all-zero row)."""
    top = Y.max(axis=1, keepdims=True)
    return np.argmax(Y >= top - _TIE_RTOL * np.abs(top), axis=1)


def _similarity_edges(Z, k: int):
    """(n, i, j, s): the n samples of Z and the edges i < j of their k-NN
    heat graph W, `graph._knn_edges`, each weighing S_ij of the normalized
    similarity S = D^{-1/2} W D^{-1/2}."""
    Z = as_features(Z)
    n = Z.n
    if n < 2:
        raise ValueError("need at least two samples to build a graph")
    i, j, w = graph._knn_edges(Z, k)
    deg = graph._degrees(i, j, w, n)
    with np.errstate(divide="ignore", over="ignore"):
        dinv = np.where(deg > 0.0, 1.0 / np.sqrt(deg), 0.0)
        scale = dinv[i] * dinv[j]
    # two subnormal degrees overflow that product; there S_ij is formed as
    # exp(log W_ij - (h_i + h_j)) with h = log(deg) / 2
    over = np.flatnonzero(np.isinf(scale))
    if over.size:
        with np.errstate(divide="ignore"):
            h = np.log(deg) / 2.0
            w[over] = np.exp(np.log(w[over]) - (h[i[over]] + h[j[over]]))
        scale[over] = 1.0
    return n, i, j, w * scale


def similarity_matrix(Z, k: int) -> sp.csr_array:
    """Normalized similarity S = D^{-1/2} W D^{-1/2} of a k-NN heat graph.

    W is `graph.tree_knn_heat_graph`: OR-symmetrized k-NN edges weighted
    with exp(-||z_i - z_j||^2 / 2), found by an exact tree search with no
    n x n distance matrix, bit for bit `graph.knn_heat_graph` over every
    pair but self. S is returned as a
    `scipy.sparse` CSR array with W's sparsity pattern (at most 2k nonzeros
    per row), exactly symmetric and finite: the CSR array of the edges
    `classify` solves over. Nodes whose incident weights underflow to zero
    end up with zero rows rather than NaNs.
    """
    n, i, j, s = _similarity_edges(Z, k)
    return graph._csr(i, j, s, n)


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
        hard_labels=_hard_labels(Y),
        iterations_used=iterations,
    )


def _band_solve(n: int, i, j, s, Y0, sigma: float) -> np.ndarray:
    """(1 - sigma) (I - sigma S)^{-1} Y0 for the symmetric n x n S with a
    zero diagonal whose edges i < j weigh s.

    A reverse Cuthill-McKee order of the graph gathers its edges near the
    diagonal (George & Liu, Computer Solution of Large Sparse Positive
    Definite Systems, 1981), the lower band of I - sigma S in that order is
    filled from the edges, and LAPACK pbsv factors and solves it in place:
    O(n * b^2) time and (b + 1) * n numbers for a bandwidth b. Cholesky
    fill stays inside a graph component, so the rows of a component
    without a seed are exactly 0.
    """
    # reverse_cuthill_mckee requires C-contiguous index arrays, as a fresh
    # CSR array has, and breaks its ties in their order: sorted in each row
    order = reverse_cuthill_mckee(graph._csr(i, j, s, n), symmetric_mode=True)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    i, j = rank[i], rank[j]
    offset = np.abs(i - j)
    band = np.zeros((offset.max(initial=0) + 1, n), order="F")
    band[0] = 1.0
    band[offset, np.minimum(i, j)] = -sigma * s
    X = solveh_banded(band, Y0[order], lower=True, overwrite_ab=True,
                      overwrite_b=True, check_finite=False)
    X *= 1.0 - sigma
    return X[rank]


def closed_form(S, Y0, sigma: float) -> np.ndarray:
    """Fixed point (1 - sigma) (I - sigma S)^{-1} Y0 by a banded Cholesky.

    S may be dense or `scipy.sparse`, but must be finite and exactly
    symmetric with a zero diagonal, as every `similarity_matrix` is;
    otherwise ValueError. For such an S with spectral radius at most 1,
    I - sigma S is symmetric positive definite (LAPACK raises if it is
    not). Its edges above the diagonal go to the band solve `classify`
    uses.
    """
    if type(S) is not sp.csr_array or S.dtype != np.float64:
        S = sp.csr_array(S, dtype=np.float64)
    if not S.has_canonical_format:
        S = S.copy()
        S.sum_duplicates()
    Y0 = np.asarray(Y0, dtype=np.float64)
    graph._check_graph(S, "S")
    n = S.shape[0]
    row = np.repeat(np.arange(n), np.diff(S.indptr))
    upper = row < S.indices
    return _band_solve(n, row[upper], S.indices[upper], S.data[upper], Y0, sigma)


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
    joint = _fresh_features(np.hstack([train.features.data, test.data]))
    n_train = train.n
    Y0 = np.zeros((joint.n, train.num_classes))
    Y0[np.arange(n_train), train.labels] = 1.0
    # the diffusion fixed point, evaluated directly; identical to iterating,
    # and bit for bit closed_form(similarity_matrix(joint, k_w), Y0, sigma),
    # whose checks the edges, built symmetric, need not pass
    Y = _band_solve(*_similarity_edges(joint, hyper.k_w), Y0, hyper.sigma_lp)[n_train:]
    unreached = np.count_nonzero(~Y.any(axis=1))
    if unreached:
        warnings.warn(
            f"{unreached} of {test.n} test samples have all-zero label scores "
            "(no graph path to a labeled sample) and are given class 0",
            RuntimeWarning,
        )
    return _hard_labels(Y)

"""Neighborhood graphs and the scatter matrices built from them.

The intrinsic graph connects nearest same-class pairs, the penalty graph
nearest different-class pairs; both are weighted with the heat kernel
exp(-||x_i - x_j||^2 / 2) and symmetrized by OR. Every k-NN graph, label
propagation's included, comes from `knn_heat_graph` given squared
distances, which `fit` computes once per domain. The builder returns a
sparse CSR array and every graph stays sparse. Sandwiching the graph
Laplacian L = D - W between the data, S = X L X^T
= 1/2 sum_ij W_ij (x_i - x_j)(x_i - x_j)^T, turns the graph objective
into a quadratic form in feature space; it is formed from the edges in
O(nnz * d) plus O(n * d^2), never as a dense n x n Laplacian.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .core import Hyperparams, as_features


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric nonnegative weight matrix with a zero diagonal, as CSR."""

    W: sp.csr_array
    degenerate: bool = False    # set when no valid pair existed

    def __post_init__(self):
        W = sp.csr_array(self.W, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("weight matrix must be square")
        if (W != W.T).nnz:
            raise ValueError("weight matrix must be exactly symmetric")
        if np.any(W.diagonal() != 0.0):
            raise ValueError("weight matrix must have a zero diagonal")
        if W.nnz and (W.data.min() < 0.0 or W.data.max() > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        for part in (W.data, W.indices, W.indptr):
            part.setflags(write=False)
        object.__setattr__(self, "W", W)

    @property
    def n(self):
        return self.W.shape[0]


@dataclass(frozen=True)
class ScatterSet:
    """Graph scatter matrices for both domains plus the target covariance.

    S_w_*, S_b_* come from the intrinsic / penalty graphs; S_h_u is the
    (biased, n-scaled) covariance of the target samples.
    """

    S_w_s: np.ndarray
    S_b_s: np.ndarray
    S_w_u: np.ndarray
    S_b_u: np.ndarray
    S_h_u: np.ndarray


def pairwise_sqdist(X) -> np.ndarray:
    """Squared Euclidean distances between all pairs of samples of X."""
    X = as_features(X)
    return cdist(X.data.T, X.data.T, "sqeuclidean")


def knn_heat_graph(sqdist, allowed, k: int) -> sp.csr_array:
    """Heat-kernel weights of a masked k-nearest-neighbor graph, as CSR.

    Row i keeps its min(k, number of allowed pairs) nearest allowed columns,
    ties to the lowest index as a stable sort would order them. The edges
    are OR-symmetrized (an edge exists if either endpoint selected the
    other), the diagonal is cleared and each edge weighted with
    exp(-sqdist / 2). Only the selected pairs are stored.
    """
    sqdist = np.asarray(sqdist, dtype=np.float64)
    n = sqdist.shape[0]
    k = min(max(int(k), 0), n)
    adj = np.zeros((n, n), dtype=bool)
    if k > 0:
        # the one private copy is partitioned in place, so the comparisons
        # below read the distances themselves
        masked = np.where(allowed, sqdist, np.inf)
        masked.partition(k - 1, axis=1)
        kth = masked[:, [k - 1]]
        adj = allowed & (sqdist < kth)
        tied = allowed & (sqdist == kth)
        # rows with more ties at the k-th value than places left keep the
        # lowest-index ones
        take = k - adj.sum(axis=1)
        over = np.flatnonzero(tied.sum(axis=1) > take)
        tied[over] &= np.cumsum(tied[over], axis=1) <= take[over, None]
        adj |= tied
    adj |= adj.T
    np.fill_diagonal(adj, False)
    rows, cols = np.nonzero(adj)
    # exact symmetry: sqdist may differ across the diagonal by rounding
    weights = np.minimum(np.exp(-sqdist[rows, cols] / 2.0),
                         np.exp(-sqdist[cols, rows] / 2.0))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_array((weights, cols, indptr), shape=(n, n))


def _same_label(sqdist, labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.shape[0] != np.shape(sqdist)[0]:
        raise ValueError("labels length must equal the sample count")
    return labels[:, None] == labels[None, :]


def build_intrinsic_graph(sqdist, labels, k_w: int) -> WeightedGraph:
    """Connect each sample to its k_w nearest same-label neighbors.

    `sqdist` holds the squared distances between the samples. k_w is
    clamped per class to the class size minus one.
    """
    same = _same_label(sqdist, labels)
    np.fill_diagonal(same, False)
    return WeightedGraph(knn_heat_graph(sqdist, same, k_w))


def build_penalty_graph(sqdist, labels, k_b: int) -> WeightedGraph:
    """Connect each sample to its k_b nearest different-label neighbors.

    `sqdist` holds the squared distances between the samples. With a single
    class present there are no cross-class pairs; an empty graph flagged
    `degenerate` is returned and a warning is emitted.
    """
    same = _same_label(sqdist, labels)
    if same.all():
        warnings.warn("penalty graph is empty: only one class present")
        return WeightedGraph(sp.csr_array(same.shape), degenerate=True)
    return WeightedGraph(knn_heat_graph(sqdist, ~same, k_b))


def _degrees(G: WeightedGraph) -> np.ndarray:
    # a column matrix on scipy < 1.11
    return np.asarray(G.W.sum(axis=1)).ravel()


def _sandwich(X, G: WeightedGraph) -> np.ndarray:
    """Scatter matrix X (D - W) X^T of graph G over samples X, symmetrized."""
    X = as_features(X).data
    S = (X * _degrees(G)) @ X.T - X @ (G.W @ X.T)
    return (S + S.T) / 2.0


def locality_scatters(X, sqdist, labels, hyper: Hyperparams):
    """(S_w, S_b) of one domain: its intrinsic and penalty graphs sandwiched."""
    return (_sandwich(X, build_intrinsic_graph(sqdist, labels, hyper.k_w)),
            _sandwich(X, build_penalty_graph(sqdist, labels, hyper.k_b)))


def scatter_matrices(X_s, sqdist_s, labels_s, X_u, sqdist_u, pseudo_labels_u,
                     hyper: Hyperparams) -> ScatterSet:
    """Build all four graph scatter matrices and the target covariance.

    Source graphs use the ground-truth labels, target graphs the current
    pseudo labels; `sqdist_*` are the squared distances within each domain
    (`pairwise_sqdist`). S_h_u = X_u (I - 11^T/n_u) X_u^T.
    """
    X_u = as_features(X_u)
    S_w_s, S_b_s = locality_scatters(X_s, sqdist_s, labels_s, hyper)
    S_w_u, S_b_u = locality_scatters(X_u, sqdist_u, pseudo_labels_u, hyper)

    centered = X_u.data - X_u.data.mean(axis=1, keepdims=True)
    S_h_u = centered @ centered.T
    S_h_u = (S_h_u + S_h_u.T) / 2.0
    return ScatterSet(S_w_s=S_w_s, S_b_s=S_b_s, S_w_u=S_w_u, S_b_u=S_b_u, S_h_u=S_h_u)

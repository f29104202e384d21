"""Neighborhood graphs and the scatter matrices built from them.

Three graphs follow one k-nearest-neighbor heat rule, with pairs weighted
exp(-||x_i - x_j||^2 / 2) and symmetrized by OR: the intrinsic graph joins
each sample to its nearest samples of its class, the penalty graph to
those of other classes, label propagation's graph to those of any class.
One exact k-d tree search (Friedman, Bentley & Finkel, ACM TOMS 1977),
`_knn_pairs`, finds all their pairs, over all samples or class by class,
in O(n * k) memory; no n x n distance state is kept across refreshes.
Over a fit, a `_Search` of the target keeps each class's pairs while the
pseudo labels leave its members unchanged.
`_edges` OR-symmetrizes the pairs into undirected edges i < j by one sort
of packed integer keys and weighs each edge once; `_degrees` sums their
weights per node and `_csr` mirrors them into a CSR array by one stable
sort of their rows. Label propagation and the scatters read the edges;
only the public builders wrap them in a `WeightedGraph`, and `fit` calls
neither builder. The test oracle of all three graphs is
`tests/oracles.py`'s `knn_heat_graph`, the rule over a dense distance
matrix and mask. `_scatter` sandwiches the graph Laplacian L = D - W
between the data, S = X L X^T = 1/2 sum_ij W_ij (x_i - x_j)(x_i - x_j)^T,
turning the graph objective into a quadratic form in feature space, from
the edges in O(nnz * d) plus O(n * d^2), never as a dense n x n Laplacian.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree
# unused here; bench/tracer.py wraps graph.cdist by name
from scipy.spatial.distance import cdist  # noqa: F401

from .core import Hyperparams, as_features


def _check_graph(W: sp.csr_array, name: str) -> None:
    """Raise ValueError unless the square CSR array W is finite, exactly
    symmetric and zero on its diagonal, in that order."""
    bad = np.flatnonzero(~np.isfinite(W.data))
    if bad.size:
        rows = np.searchsorted(W.indptr, bad, side="right") - 1
        shown = ", ".join(f"{W.data[b]} at ({r}, {W.indices[b]})"
                          for r, b in zip(rows[:3], bad[:3]))
        raise ValueError(f"{name} must be finite; {bad.size} entries are not: {shown}")
    # W's CSC arrays are the CSR arrays of W.T, so equal arrays show
    # symmetry; only when they differ (explicit zeros without a mirror,
    # say) does the sparse comparison decide
    C = W.tocsc()
    if not all(map(np.array_equal, (W.indptr, W.indices, W.data),
                   (C.indptr, C.indices, C.data))) and (W != W.T).nnz:
        raise ValueError(f"{name} must be exactly symmetric")
    if np.any(W.diagonal() != 0.0):
        raise ValueError(f"{name} must have a zero diagonal")


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric nonnegative weight matrix with a zero diagonal, as CSR."""

    W: sp.csr_array

    def __post_init__(self):
        W = self.W
        if type(W) is not sp.csr_array or W.dtype != np.float64:
            W = sp.csr_array(W, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("weight matrix must be square")
        _check_graph(W, "weight matrix")
        if W.nnz and (W.data.min() < 0.0 or W.data.max() > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        for part in (W.data, W.indices, W.indptr):
            part.setflags(write=False)
        object.__setattr__(self, "W", W)


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


def _edges(Z, rows, cols):
    """The undirected edges (i, j), i < j, of the pairs (rows[k], cols[k])
    of distinct samples of Z, each weighted exp(-||z_i - z_j||^2 / 2).

    Each pair is packed into the key min * n + max, the keys are sorted
    once, and a pair chosen from both ends is kept once, so the edges
    ascend by (i, j); `_pair_sqdist` then runs on exactly those edges.
    """
    n = Z.shape[1]
    key = np.sort(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    i, j = np.divmod(key[np.diff(key, prepend=-1) != 0], n)
    return i, j, np.exp(-_pair_sqdist(Z, i, j) / 2.0)


def _csr(i, j, w, n: int) -> sp.csr_array:
    """The symmetric n x n CSR array that stores each edge (i, j) of
    `_edges`, weighing w, at (i, j) and (j, i); indices come out sorted."""
    rows = np.concatenate([j, i])
    # the edges ascend by (i, j), so each row's mirrors (columns below the
    # diagonal) come first and its edges after them, both ascending; a
    # stable sort by row (a radix sort in 16 bits up to 65536 samples)
    # keeps that order
    order = np.argsort(rows.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_array((np.concatenate([w, w])[order], np.concatenate([i, j])[order], indptr),
                        shape=(n, n))


class _Search:
    """Exact k-NN searches over the samples of one domain X.

    The tree searches a C-order copy of the samples, one per row, scaled
    by an exact power of two so that its squared distances neither
    overflow nor underflow; it is made once. Within a fit a domain's
    samples never change, only the target's pseudo labels do, so one
    state kept over the fit also keeps each class's pairs of each locality
    graph while the class's members are unchanged (the penalty graph's
    refs are their complement); a refresh whose labels did not move
    searches nothing. `_edges` sorts its pairs, so kept pairs give the
    graphs bit for bit.
    """

    def __init__(self, X):
        self.Z = as_features(X).data
        self.shift = -int(np.frexp(max(self.Z.max(initial=0.0), -self.Z.min(initial=0.0)))[1])
        self.scaled = np.ldexp(self.Z.T, self.shift, order="C")
        self._pairs = {}        # (k, same, label) -> (members, pairs)

    def class_pairs(self, labels, label, k: int, same: bool):
        """`_knn_pairs` of the class `label`'s members against its members
        when `same`, else against all other samples."""
        members = np.flatnonzero(labels == label)
        kept = self._pairs.get((k, same, label))
        if kept is not None and np.array_equal(kept[0], members):
            return kept[1]
        refs = members if same else np.flatnonzero(labels != label)
        pairs = _knn_pairs(self, members, refs, k, exclude_self=same)
        self._pairs[k, same, label] = members, pairs
        return pairs


def _knn_pairs(s: _Search, queries, refs, k: int, exclude_self: bool):
    """(rows, cols) pairing each sample of `queries` with its k nearest
    samples of `refs` (k clamped to those available), by an exact k-d tree
    search over the samples of `s`.

    Both index the samples (columns) of s.Z, `refs` in ascending order; with
    `exclude_self`, `queries` is `refs` and no sample pairs with itself.
    Neighbors rank by (squared distance summed per feature in order, as
    `cdist` sums it, index). A query for k + 1 neighbors beyond self
    settles most samples: exactly k refs lie within the sample's k-th
    distance (widened for rounding), and it keeps all k. Only the rest,
    tied at that distance, gather every candidate inside it by a ball
    query and rank them. Memory is O(n * k) plus those ties. Where squared
    distances overflow to inf, the dense oracle keeps the lowest-index
    samples and this search the nearest, so only the pattern of edges that
    weigh 0 either way can differ.
    """
    e = int(exclude_self)
    k = min(max(int(k), 0), refs.size - e)
    if k == 0:
        return np.empty(0, np.intp), np.empty(0, np.intp)
    Z, shift = s.Z, s.shift
    d = Z.shape[0]
    # refs ascend, so n of them are every sample in order
    R = s.scaled if refs.size == s.scaled.shape[0] else s.scaled[refs]
    Q = R if exclude_self else s.scaled[queries]
    tree = cKDTree(R)
    kq = min(k + e + 1, refs.size)
    dist, idx = (a.reshape(-1, kq) for a in tree.query(Q, k=kq))
    # radius of each sample's k nearest refs, widened to cover rounding in
    # either scale: 1e-9 relative, and 2d units of the least subnormal for
    # squares that underflow (capped: with data under 2^-1000 every square
    # underflows, and the radius takes in all samples)
    slack = np.ldexp(2.0 * d, min(2 * shift, 2000) - 1074) + np.ldexp(2.0 * d, -1074)
    radius = np.sqrt(dist[:, k + e - 1] ** 2 * (1.0 + 2e-9) + slack)
    # a sample whose last neighbour found lies outside its radius is
    # settled: exactly k refs lie inside (besides itself, when excluded),
    # and it keeps them all
    done = dist[:, -1] > radius
    # each query's own position among the refs, or -1
    me = np.arange(queries.size) if exclude_self else np.full(queries.size, -1)
    rows, pos = np.nonzero(done[:, None] & (dist <= radius[:, None]) & (idx != me[:, None]))
    cols = idx[rows, pos]
    # any other sample may have more candidates there; the ball query
    # gathers them all
    short = np.flatnonzero(~done)
    if short.size:
        found = tree.query_ball_point(Q[short], radius[short], return_sorted=False)
        tied_rows = np.repeat(short, [len(f) for f in found])
        tied_cols = np.concatenate(found).astype(np.intp)
        other = tied_cols != me[tied_rows]
        tied_rows, tied_cols = tied_rows[other], tied_cols[other]
        # rank these samples' candidates by (squared distance, index), keep k
        sq = _pair_sqdist(Z, queries[tied_rows], refs[tied_cols])
        order = np.lexsort((tied_cols, sq, tied_rows))
        ranked = tied_rows[order]
        keep = order[np.arange(order.size) - np.searchsorted(ranked, ranked) < k]
        rows = np.concatenate([rows, tied_rows[keep]])
        cols = np.concatenate([cols, tied_cols[keep]])
    return queries[rows], refs[cols]


def _pair_sqdist(Z, rows, cols) -> np.ndarray:
    """Squared distances between the sample pairs (rows[i], cols[i]) of Z,
    summed per feature in order, as `cdist` sums them."""
    sq = np.zeros(rows.size)
    with np.errstate(over="ignore"):
        for f in range(Z.shape[0]):
            diff = Z[f, rows] - Z[f, cols]
            sq += diff * diff
    return sq


def _knn_edges(X, k: int):
    """`_edges` of each sample of X with its min(k, n - 1) nearest others
    found by `_knn_pairs`, ties to the lowest index."""
    s = _Search(X)
    everyone = np.arange(s.Z.shape[1])
    return _edges(s.Z, *_knn_pairs(s, everyone, everyone, k, exclude_self=True))


def _class_edges(Z, labels, k: int, same: bool, search):
    """`_edges` of each sample of Z and its k nearest samples of its own
    class but itself when `same`, else of the other classes (none, with a
    warning at every call, when one class is present), searched class by
    class through `search`, a `_Search` of Z."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.shape[0] != Z.shape[1]:
        raise ValueError("labels length must equal the sample count")
    classes = np.unique(labels)
    if not same and classes.size == 1:
        warnings.warn("penalty graph is empty: only one class present")
    pairs = [search.class_pairs(labels, label, k, same) for label in classes]
    return _edges(Z, *map(np.concatenate, zip(*pairs)))


def build_intrinsic_graph(X, labels, k_w: int) -> WeightedGraph:
    """Connect each sample of X to its k_w nearest same-label neighbors,
    k_w clamped per class to the class size minus one."""
    Z = as_features(X).data
    return WeightedGraph(_csr(*_class_edges(Z, labels, k_w, True, _Search(Z)), Z.shape[1]))


def build_penalty_graph(X, labels, k_b: int) -> WeightedGraph:
    """Connect each sample of X to its k_b nearest different-label neighbors;
    with a single class present the graph is empty, with a warning at
    every build."""
    Z = as_features(X).data
    return WeightedGraph(_csr(*_class_edges(Z, labels, k_b, False, _Search(Z)), Z.shape[1]))


def _degrees(i, j, w, n: int) -> np.ndarray:
    """Degree of each of n nodes under the edges i < j weighing w: the sum
    of its row of the symmetric matrix, added in `_csr`'s row order."""
    return np.bincount(np.concatenate([j, i]), np.concatenate([w, w]), n)


def _scatter(Z, i, j, w) -> np.ndarray:
    """Z (D - W) Z^T over the samples (columns) of Z for the graph whose
    edges i < j weigh w, symmetrized."""
    n = Z.shape[1]
    S = (Z * _degrees(i, j, w, n)) @ Z.T - Z @ (_csr(i, j, w, n) @ Z.T)
    return (S + S.T) / 2.0


def locality_scatters(X, labels, hyper: Hyperparams, search=None):
    """(S_w, S_b) of one domain's samples X: the scatters of its intrinsic
    and penalty graphs under `labels`, both searched through `search`, a
    `_Search` of X (a fresh one when None)."""
    search = _Search(X) if search is None else search
    Z = as_features(X).data
    return (_scatter(Z, *_class_edges(Z, labels, hyper.k_w, True, search)),
            _scatter(Z, *_class_edges(Z, labels, hyper.k_b, False, search)))


def scatter_matrices(X_s, labels_s, X_u, pseudo_labels_u, hyper: Hyperparams,
                     search_u=None) -> ScatterSet:
    """Build all four graph scatter matrices and the target covariance.

    Source graphs use the ground-truth labels, target graphs the current
    pseudo labels; each is searched from the domain's samples, the
    target's through `search_u` when given (see `locality_scatters`).
    S_h_u = X_u (I - 11^T/n_u) X_u^T.
    """
    X_u = as_features(X_u)
    S_w_s, S_b_s = locality_scatters(X_s, labels_s, hyper)
    S_w_u, S_b_u = locality_scatters(X_u, pseudo_labels_u, hyper, search_u)

    centered = X_u.data - X_u.data.mean(axis=1, keepdims=True)
    S_h_u = centered @ centered.T
    S_h_u = (S_h_u + S_h_u.T) / 2.0
    return ScatterSet(S_w_s=S_w_s, S_b_s=S_b_s, S_w_u=S_w_u, S_b_u=S_b_u, S_h_u=S_h_u)

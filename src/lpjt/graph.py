"""Neighborhood graphs and the scatter matrices built from them.

The intrinsic graph connects nearest same-class pairs, the penalty graph
nearest different-class pairs; both are weighted with the heat kernel
exp(-||x_i - x_j||^2 / 2) and symmetrized by OR. `fit` computes each
domain's squared distances once, and a `NeighborOrder` ranks every row of
them once; each refresh then reads each sample's first allowed neighbors
off that order, in O(n * k) work when they lie near the front. The
distances and the order (at most 2 bytes a pair up to 65536 samples) are
the only n x n arrays left. Label propagation's graph over all pairs
comes from `tree_knn_heat_graph`, the same rule found by an exact k-d
tree search (Friedman, Bentley & Finkel, ACM TOMS 1977) in O(n * k)
memory. All three builders OR-symmetrize their chosen pairs in `_heat_csr`
by one sort of packed integer keys, and weigh each final edge once.
`knn_heat_graph`, the rule over a dense mask, is the test oracle
of all three builders. Every graph is a sparse CSR array. Sandwiching
the graph Laplacian L = D - W between the data, S = X L X^T
= 1/2 sum_ij W_ij (x_i - x_j)(x_i - x_j)^T, turns the graph objective
into a quadratic form in feature space; it is formed from the edges in
O(nnz * d) plus O(n * d^2), never as a dense n x n Laplacian.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .core import Hyperparams, as_features


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric nonnegative weight matrix with a zero diagonal, as CSR."""

    W: sp.csr_array

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
    # a C-order copy of the samples: on the transposed view scipy's cdist
    # takes a strided path, several times slower at the same result
    P = np.ascontiguousarray(as_features(X).data.T)
    return cdist(P, P, "sqeuclidean")


# entries sorted per pass, so that the sort's temporaries (int64 indices,
# float64 values) stay near 32 KiB each, or one row past 4096 samples;
# blocks of 64 rows raised a fit's peak RSS at 300 samples
ORDER_BLOCK_ENTRIES = 4096


class NeighborOrder:
    """One domain's squared distances and each row's samples ranked by
    (distance, index), computed on first use.

    The distances are fixed for a whole fit and only the labels change, so
    every refresh of the intrinsic and penalty graphs reads each row's first
    allowed samples off this one order. It is stored in the smallest
    unsigned integer type that holds n - 1.
    """

    def __init__(self, sqdist):
        sqdist = np.asarray(sqdist, dtype=np.float64)
        if sqdist.ndim != 2 or sqdist.shape[0] != sqdist.shape[1]:
            raise ValueError("squared distances must form a square matrix")
        self.sqdist = sqdist

    @property
    def n(self) -> int:
        return self.sqdist.shape[0]

    @functools.cached_property
    def order(self) -> np.ndarray:
        return _rank_rows(self.sqdist)


def _rank_rows(sqdist) -> np.ndarray:
    """Column indices of each row sorted by (value, index)."""
    n = sqdist.shape[0]
    order = np.empty((n, n), dtype=np.min_scalar_type(max(n - 1, 0)))
    step = max(1, ORDER_BLOCK_ENTRIES // max(n, 1))
    for lo in range(0, n, step):
        block = sqdist[lo:lo + step]
        idx = block.argsort(axis=1)
        # the default sort may order equal values either way; only rows
        # holding a tie pay for a stable sort
        ranked = np.take_along_axis(block, idx, axis=1)
        tied = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
        if tied.size:
            idx[tied] = block[tied].argsort(axis=1, kind="stable")
        order[lo:lo + step] = idx
    return order


def _heat_csr(rows, cols, n: int, sqdist) -> sp.csr_array:
    """OR-symmetrized CSR graph of the chosen pairs (rows[i], cols[i]), each
    edge weighted exp(-sqdist(rows, cols) / 2).

    The pairs and their mirrors are packed into keys row * n + col, sorted
    once, and a pair chosen from both ends is stored once. `sqdist` then
    gives the squared distances of the final edges (r, c) with r <= c, and
    each mirror takes its edge's weight. Indices come out sorted.
    """
    key = np.sort(np.concatenate([rows * n + cols, cols * n + rows]))
    rows, cols = np.divmod(key[np.diff(key, prepend=-1) != 0], n)
    upper = np.flatnonzero(rows <= cols)
    sq = np.empty(rows.size)
    sq[upper] = sqdist(rows[upper], cols[upper])
    # the pattern is symmetric, so the j-th edge by (column, row) is the
    # mirror of the j-th by (row, column); a stable sort by column (a radix
    # sort in 16 bits up to 65536 samples) orders them so
    mirror = np.argsort(cols.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable")
    sq[mirror[upper]] = sq[upper]
    weights = np.exp(-sq / 2.0)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_array((weights, cols, indptr), shape=(n, n))


def knn_heat_graph(sqdist, allowed, k: int) -> sp.csr_array:
    """Heat-kernel weights of a masked k-nearest-neighbor graph, as CSR.

    Row i keeps its min(k, number of allowed pairs) nearest allowed columns,
    ties to the lowest index as a stable sort would order them. The edges
    are OR-symmetrized (an edge exists if either endpoint selected the
    other), the diagonal is cleared and each edge weighted with
    exp(-sqdist / 2). Only the selected pairs are stored.

    This is the test oracle of `build_intrinsic_graph`, `build_penalty_graph`
    and `tree_knn_heat_graph`; `fit` does not call it.
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


def tree_knn_heat_graph(X, k: int) -> sp.csr_array:
    """`knn_heat_graph` over every pair of samples of X but self, bit for
    bit, found by an exact k-d tree search instead of n x n distances.

    Each sample keeps its min(k, n - 1) nearest others, ties to the lowest
    index; the squared distances are summed per feature in order, as
    `cdist` sums them. A query for k + 2 neighbors settles most samples:
    exactly k others lie within the sample's k-th distance (widened for
    rounding), and it keeps all k. Only the rest, tied at that distance,
    gather every candidate inside it by a ball query and rank them by
    (squared distance, index). Memory is O(n * k) plus those ties. One
    difference: where squared distances overflow to inf the dense rule
    keeps the lowest-index samples and this one the nearest, so only the
    pattern of edges that weigh 0 either way can differ.
    """
    Z = as_features(X).data
    d, n = Z.shape
    k = min(max(int(k), 0), n - 1)
    if k == 0:
        return sp.csr_array((n, n))
    # the tree searches a copy scaled by an exact power of two, so that its
    # squared distances neither overflow nor underflow; in C order, so the
    # tree keeps it rather than copying it again
    shift = -int(np.frexp(np.abs(Z).max())[1])
    P = np.ldexp(Z.T, shift, order="C")
    tree = cKDTree(P)
    kq = min(k + 2, n)
    dist, idx = tree.query(P, k=kq)
    # radius of each sample's k nearest others, widened to cover rounding
    # in either scale: 1e-9 relative, and 2d units of the least subnormal
    # for squares that underflow (capped: with data under 2^-1000 every
    # square underflows, and the radius takes in all samples)
    slack = np.ldexp(2.0 * d, min(2 * shift, 2000) - 1074) + np.ldexp(2.0 * d, -1074)
    radius = np.sqrt(dist[:, k] ** 2 * (1.0 + 2e-9) + slack)
    # a sample whose last neighbour found lies outside its radius is
    # settled: exactly k others lie inside, and it keeps them all
    done = dist[:, -1] > radius
    rows, pos = np.nonzero(done[:, None] & (dist <= radius[:, None])
                           & (idx != np.arange(n)[:, None]))
    cols = idx[rows, pos]
    # any other sample may have more candidates there; the ball query
    # gathers them all
    short = np.flatnonzero(~done)
    if short.size:
        found = tree.query_ball_point(P[short], radius[short], return_sorted=False)
        tied_rows = np.repeat(short, [len(f) for f in found])
        tied_cols = np.concatenate(found)
        other = tied_rows != tied_cols
        tied_rows, tied_cols = tied_rows[other], tied_cols[other]
        # rank these samples' candidates by (squared distance, index), keep k
        order = np.lexsort((tied_cols, _pair_sqdist(Z, tied_rows, tied_cols), tied_rows))
        ranked = tied_rows[order]
        keep = order[np.arange(order.size) - np.searchsorted(ranked, ranked) < k]
        rows = np.concatenate([rows, tied_rows[keep]])
        cols = np.concatenate([cols, tied_cols[keep]])
    return _heat_csr(rows, cols, n, functools.partial(_pair_sqdist, Z))


def _pair_sqdist(Z, rows, cols) -> np.ndarray:
    """Squared distances between the sample pairs (rows[i], cols[i]) of Z,
    summed per feature in order, as `cdist` sums them."""
    sq = np.zeros(rows.size)
    with np.errstate(over="ignore"):
        for f in range(Z.shape[0]):
            diff = Z[f, rows] - Z[f, cols]
            sq += diff * diff
    return sq


def _first_allowed(nbrs: NeighborOrder, codes, need, same: bool):
    """(rows, cols) of each row i's first need[i] allowed samples in the
    neighbor order: those of its own class but itself when `same`, else
    those of another class. need[i] must not exceed what row i allows.

    The order is read in column chunks that double in width, and only for
    the rows still short of neighbors.
    """
    rows = np.flatnonzero(need)
    short = need[rows]
    picked_rows, picked_cols = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    lo, width = 0, int(short.max(initial=0)) + 1
    while rows.size:
        cols = nbrs.order[rows, lo:lo + width]
        if same:
            ok = (np.take(codes, cols) == codes[rows, None]) & (cols != rows[:, None])
        else:
            ok = np.take(codes, cols) != codes[rows, None]
        found = np.count_nonzero(ok, axis=1)
        # only rows that found more than they need rank what they found
        over = np.flatnonzero(found > short)
        if over.size:
            ok[over] &= np.cumsum(ok[over], axis=1, dtype=np.int32) <= short[over, None]
        flat = np.flatnonzero(ok)
        picked_rows.append(rows[flat // ok.shape[1]])
        picked_cols.append(cols.ravel()[flat].astype(np.intp))
        short = short - found
        left = short > 0
        rows, short = rows[left], short[left]
        lo, width = lo + width, 2 * width
    return np.concatenate(picked_rows), np.concatenate(picked_cols)


def _label_classes(nbrs: NeighborOrder, labels):
    """Each sample's class code and class size."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.shape[0] != nbrs.n:
        raise ValueError("labels length must equal the sample count")
    _, codes, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    return codes, sizes[codes]


def _order_graph(nbrs: NeighborOrder, codes, need, same: bool) -> WeightedGraph:
    """The heat graph of `_first_allowed`'s pairs."""
    rows, cols = _first_allowed(nbrs, codes, need, same)
    D = nbrs.sqdist
    # the larger squared distance of the two directions, so the smaller
    # weight, as `knn_heat_graph` takes it
    return WeightedGraph(_heat_csr(rows, cols, nbrs.n,
                                   lambda r, c: np.maximum(D[r, c], D[c, r])))


def build_intrinsic_graph(nbrs: NeighborOrder, labels, k_w: int) -> WeightedGraph:
    """Connect each sample to its k_w nearest same-label neighbors.

    `nbrs` holds the squared distances between the samples. k_w is clamped
    per class to the class size minus one.
    """
    codes, sizes = _label_classes(nbrs, labels)
    return _order_graph(nbrs, codes, np.minimum(max(int(k_w), 0), sizes - 1), same=True)


def build_penalty_graph(nbrs: NeighborOrder, labels, k_b: int) -> WeightedGraph:
    """Connect each sample to its k_b nearest different-label neighbors.

    `nbrs` holds the squared distances between the samples. With a single
    class present there are no cross-class pairs; an empty graph is
    returned and a warning is emitted.
    """
    codes, sizes = _label_classes(nbrs, labels)
    if np.all(sizes == nbrs.n):
        warnings.warn("penalty graph is empty: only one class present")
        return WeightedGraph(sp.csr_array((nbrs.n, nbrs.n)))
    return _order_graph(nbrs, codes, np.minimum(max(int(k_b), 0), nbrs.n - sizes),
                        same=False)


def _degrees(G: WeightedGraph) -> np.ndarray:
    # a column matrix on scipy < 1.11
    return np.asarray(G.W.sum(axis=1)).ravel()


def _sandwich(X, G: WeightedGraph) -> np.ndarray:
    """Scatter matrix X (D - W) X^T of graph G over samples X, symmetrized."""
    X = as_features(X).data
    S = (X * _degrees(G)) @ X.T - X @ (G.W @ X.T)
    return (S + S.T) / 2.0


def locality_scatters(X, nbrs: NeighborOrder, labels, hyper: Hyperparams):
    """(S_w, S_b) of one domain: its intrinsic and penalty graphs sandwiched."""
    return (_sandwich(X, build_intrinsic_graph(nbrs, labels, hyper.k_w)),
            _sandwich(X, build_penalty_graph(nbrs, labels, hyper.k_b)))


def scatter_matrices(X_s, nbrs_s: NeighborOrder, labels_s, X_u, nbrs_u: NeighborOrder,
                     pseudo_labels_u, hyper: Hyperparams) -> ScatterSet:
    """Build all four graph scatter matrices and the target covariance.

    Source graphs use the ground-truth labels, target graphs the current
    pseudo labels; `nbrs_*` hold the squared distances within each domain
    (`pairwise_sqdist`). S_h_u = X_u (I - 11^T/n_u) X_u^T.
    """
    X_u = as_features(X_u)
    S_w_s, S_b_s = locality_scatters(X_s, nbrs_s, labels_s, hyper)
    S_w_u, S_b_u = locality_scatters(X_u, nbrs_u, pseudo_labels_u, hyper)

    centered = X_u.data - X_u.data.mean(axis=1, keepdims=True)
    S_h_u = centered @ centered.T
    S_h_u = (S_h_u + S_h_u.T) / 2.0
    return ScatterSet(S_w_s=S_w_s, S_b_s=S_b_s, S_w_u=S_w_u, S_b_u=S_b_u, S_h_u=S_h_u)

"""Independent references for LPJT's numeric steps, used only by the tests.

Each function recomputes what a library step computes by the plain dense
formula. This module imports only numpy, scipy and the standard library
(`tests/test_api.py` pins that), so it shares no code with `lpjt` and a
fault there cannot reach the reference it is checked against. None of
these functions checks its inputs: the library's entry points do that.

- Graphs: `pairwise_sqdist` and `knn_heat_graph`, the masked k-NN heat
  rule over a dense distance matrix, the reference of every locality and
  propagation graph and of the scatters built from them.
- Label propagation: `propagate`, the diffusion iterated to its fixed
  point.
- MMD: `marginal_coeffs` and `conditional_coeffs`, the dense n x n
  coefficient matrices H of M = X H X^T, and `mmd_value`, the
  landmark-weighted MMD by explicit sums.
- Landmark QP: `project_box_mean`, one group's projection by bisection,
  and `K_ss`, `K_uu`, `K_su` and `Bq`, the dense blocks of a
  `landmark.QpInstance`'s Hessian.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

# -- graphs ----------------------------------------------------------------


def pairwise_sqdist(X) -> np.ndarray:
    """Squared Euclidean distances between all pairs of samples (columns)
    of X."""
    # a C-order copy of the samples: on the transposed view scipy's cdist
    # takes a strided path, several times slower at the same result
    P = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    return cdist(P, P, "sqeuclidean")


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


# -- label propagation -----------------------------------------------------


@dataclass(frozen=True)
class PropagationResult:
    soft_labels: np.ndarray     # (n, C) diffusion scores
    hard_labels: np.ndarray     # row argmax, ties to the lowest class
    iterations_used: int


def propagate(S, Y0, sigma: float, tol: float = 1e-9, max_iter: int = 1000) -> PropagationResult:
    """Iterate Y(t+1) = sigma * S * Y(t) + (1 - sigma) * Y(0) to its fixed
    point (1 - sigma) (I - sigma S)^{-1} Y(0).

    Stops when the max-norm update falls below `tol` or after `max_iter`
    sweeps. Y0 holds one-hot rows for labeled samples and zero rows for
    unlabeled ones. S may be dense or `scipy.sparse`; sigma lies in (0, 1).
    """
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
    return PropagationResult(soft_labels=Y, hard_labels=np.argmax(Y, axis=1),
                             iterations_used=iterations)


# -- MMD -------------------------------------------------------------------


def _weights(alpha, beta):
    return (np.asarray(alpha, dtype=np.float64).ravel(),
            np.asarray(beta, dtype=np.float64).ravel())


def marginal_coeffs(alpha, beta, delta):
    """Coefficient matrices (H_s, H_u, H_su) of the weighted marginal mean
    discrepancy."""
    alpha, beta = _weights(alpha, beta)
    n_s, n_u = alpha.size, beta.size
    H_sm = np.outer(alpha, alpha) / (delta**2 * n_s**2)
    H_um = np.outer(beta, beta) / (delta**2 * n_u**2)
    H_sum = np.outer(alpha, beta) / (delta**2 * n_s * n_u)
    return H_sm, H_um, H_sum


def conditional_coeffs(alpha, beta, labels_s, pseudo_labels_u, delta, num_classes):
    """Per-class coefficient matrices scattered to global sample positions.

    A class contributes only when it has members in both domains; a class
    in one domain only is skipped with a warning and leaves zero blocks
    behind.
    """
    alpha, beta = _weights(alpha, beta)
    labels_s = np.asarray(labels_s, dtype=np.int64).ravel()
    labels_u = np.asarray(pseudo_labels_u, dtype=np.int64).ravel()
    n_s, n_u = alpha.size, beta.size
    H_sc = np.zeros((n_s, n_s))
    H_uc = np.zeros((n_u, n_u))
    H_suc = np.zeros((n_s, n_u))
    for c in range(num_classes):
        si, ui = np.flatnonzero(labels_s == c), np.flatnonzero(labels_u == c)
        if not (si.size and ui.size):
            if si.size or ui.size:
                warnings.warn(f"class {c} missing from one domain; skipped")
            continue
        a, b = alpha[si], beta[ui]
        H_sc[np.ix_(si, si)] += np.outer(a, a) / (delta**2 * si.size**2)
        H_sc[si, si] += a * a / (delta**2 * si.size)
        H_uc[np.ix_(ui, ui)] += np.outer(b, b) / (delta**2 * ui.size**2)
        H_uc[ui, ui] += b * b / (delta**2 * ui.size)
        H_suc[np.ix_(si, ui)] += 2.0 * np.outer(a, b) / (delta**2 * si.size * ui.size)
    return H_sc, H_uc, H_suc


def mmd_value(X_s, X_u, A, B, alpha, beta, labels_s, pseudo_labels_u, delta):
    """The weighted marginal and conditional MMD, (E_MG, E_CD), by explicit
    sums over the embedded samples A^T X_s and B^T X_u; it never forms a
    coefficient matrix."""
    Zs = np.asarray(A, dtype=np.float64).T @ np.asarray(X_s, dtype=np.float64)
    Zu = np.asarray(B, dtype=np.float64).T @ np.asarray(X_u, dtype=np.float64)
    alpha, beta = _weights(alpha, beta)
    labels_s = np.asarray(labels_s, dtype=np.int64).ravel()
    labels_u = np.asarray(pseudo_labels_u, dtype=np.int64).ravel()
    n_s, n_u = Zs.shape[1], Zu.shape[1]

    diff = (Zs * alpha).sum(axis=1) / (delta * n_s) - (Zu * beta).sum(axis=1) / (delta * n_u)
    e_mg = float(diff.dot(diff))

    e_cd = 0.0
    for c in np.intersect1d(np.unique(labels_s), np.unique(labels_u)):
        si = np.flatnonzero(labels_s == c)
        ui = np.flatnonzero(labels_u == c)
        Zsc = Zs[:, si] * alpha[si]
        Zuc = Zu[:, ui] * beta[ui]
        diff_c = Zsc.sum(axis=1) / (delta * si.size) - Zuc.sum(axis=1) / (delta * ui.size)
        e_cd += float(diff_c.dot(diff_c))
        pair = Zsc[:, :, None] - Zuc[:, None, :]
        e_cd += float((pair**2).sum()) / (delta**2 * si.size * ui.size)
    return e_mg, e_cd


# -- landmark QP -----------------------------------------------------------


def project_box_mean(x, delta):
    """Euclidean projection of x onto {v in [0,1]^m : mean(v) = delta}.

    Shifts every coordinate by a common offset found by bisection, then
    clips; a final correction on the interior coordinates makes the mean
    exact to machine precision.
    """
    x = np.asarray(x, dtype=np.float64)
    m = x.size
    if delta <= 0.0:
        return np.zeros(m)
    if delta >= 1.0:
        return np.ones(m)
    target = delta * m
    lo = -float(x.max()) - 1.0
    hi = 1.0 - float(x.min()) + 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.clip(x + mid, 0.0, 1.0).sum() < target:
            lo = mid
        else:
            hi = mid
    v = np.clip(x + 0.5 * (lo + hi), 0.0, 1.0)
    free = (v > 0.0) & (v < 1.0)
    if free.any():
        v[free] += (target - v.sum()) / free.sum()
        v = np.clip(v, 0.0, 1.0)
    return v


def K_ss(qp) -> np.ndarray:
    """The source block F_s^T F_s + diag(diag_s) of a QP instance's Hessian."""
    return qp.F_s.T @ qp.F_s + np.diag(qp.diag_s)


def K_uu(qp) -> np.ndarray:
    """The target block F_u^T F_u + diag(diag_u)."""
    return qp.F_u.T @ qp.F_u + np.diag(qp.diag_u)


def K_su(qp) -> np.ndarray:
    """The cross block F_s^T diag(cross) F_u."""
    return (qp.F_s * qp.cross[:, None]).T @ qp.F_u


def Bq(qp) -> np.ndarray:
    """The dense Hessian [[K_ss, -K_su], [-K_su^T, K_uu]] of E = 1/2 z^T Bq z
    over z = (alpha; beta)."""
    cross = K_su(qp)
    return np.block([[K_ss(qp), -cross], [-cross.T, K_uu(qp)]])

"""Landmark-weighted MMD terms between one source and one target domain,
and their feature-space blocks.

The marginal term compares the weighted domain means, the conditional term
compares class-wise weighted means and additionally penalizes the pairwise
spread between same-class samples across domains. Both admit an equivalent
quadratic form

    E = tr(A^T M_ss A) + tr(B^T M_uu B) - 2 tr(A^T M_su B)

with M = X H X^T for sample-indexed coefficient matrices H. Every H is a
sum of rank-one mean differences plus a per-sample diagonal, so
`assemble_M` forms the blocks from weighted domain and class sums and
(X diag(w)) X^T in O(d^2 n), never building an n x n matrix. The
references live in `tests/oracles.py`: `marginal_coeffs` and
`conditional_coeffs` build the dense H, and `mmd_value` evaluates the
literal sums, independent of both paths so each can check the other.

`_class_rule` decides, for `assemble_M`, `mmd_distance` and
`landmark.build_qp` alike, which classes the conditional term compares
(those with members in both domains) and what each sample's weight w is
divided by. In a domain of n samples, n_c of them in class c, w enters the
domain mean as w / (delta n), class c's mean as w / (delta n_c) and its
spread as w^2 / (delta^2 n_c), on c's members only. Class means meet
across domains with cross weight 2, paired with the -2 coupling above, and
the domain means with 1; the equality with the oracles' `mmd_value` pins
every constant. `_mean_factors` turns those counts and weights into the
weighted mean columns, read by `assemble_M` for the blocks and by
`mmd_distance` for the trace value.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .core import as_features


@dataclass(frozen=True)
class MmdCoeffs:
    """The landmark weights, classes and delta that define the MMD terms.

    `classes` holds the source's and the target's counts from
    `_class_rule`: one column for the domain mean, then one per class
    present in both domains, the only classes the conditional term
    compares. No n x n coefficient matrix is kept: `assemble_M` forms the
    blocks from these directly.
    """

    alpha: np.ndarray
    beta: np.ndarray
    delta: float
    classes: tuple


@dataclass(frozen=True)
class MmdBlocks:
    """Feature-space blocks M_ss, M_uu (symmetric) and the cross block M_su."""

    M_ss: np.ndarray
    M_uu: np.ndarray
    M_su: np.ndarray

    @property
    def M_us(self):
        return self.M_su.T


def _check_weights(alpha, beta, delta):
    alpha = np.asarray(alpha, dtype=np.float64).ravel()
    beta = np.asarray(beta, dtype=np.float64).ravel()
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    for name, w in (("alpha", alpha), ("beta", beta)):
        if not np.all((w >= 0.0) & (w < np.inf)):
            raise ValueError(f"{name} entries must be finite and nonnegative")
    return alpha, beta


def _check_labels(alpha, beta, labels_s, pseudo_labels_u):
    labels_s = np.asarray(labels_s, dtype=np.int64).ravel()
    labels_u = np.asarray(pseudo_labels_u, dtype=np.int64).ravel()
    if labels_s.size != alpha.size or labels_u.size != beta.size:
        raise ValueError("label vectors must match weight vectors")
    return labels_s, labels_u


def _class_rule(labels_s, labels_u, num_classes=None):
    """The classes the MMD compares and each sample's counts.

    Returns (members, counts_s, counts_u). members[c] holds the (source,
    target) indices of class c < num_classes (default: one past the largest
    label). counts_s is n_s x (1 + K) for the K classes in both domains, in
    class order: column 0 holds n_s, column j + 1 holds n_c on the j-th
    such class's members and inf elsewhere, so that a weight divided by it
    vanishes off the class. counts_u likewise.
    """
    if num_classes is None:
        num_classes = int(max(labels_s.max(), labels_u.max())) + 1
    members = [(np.flatnonzero(labels_s == c), np.flatnonzero(labels_u == c))
               for c in range(num_classes)]
    shared = [pair for pair in members if pair[0].size and pair[1].size]
    counts = []
    for side, n in enumerate((labels_s.size, labels_u.size)):
        N = np.full((n, 1 + len(shared)), np.inf)
        N[:, 0] = n
        for j, pair in enumerate(shared):
            N[pair[side], j + 1] = pair[side].size
        counts.append(N)
    return members, counts[0], counts[1]


def build_coeffs(alpha, beta, labels_s, pseudo_labels_u, delta, num_classes) -> MmdCoeffs:
    """Validate and collect what defines both MMD terms; builds no matrix.
    A class in one domain only is skipped with a warning."""
    alpha, beta = _check_weights(alpha, beta, delta)
    labels_s, labels_u = _check_labels(alpha, beta, labels_s, pseudo_labels_u)
    members, counts_s, counts_u = _class_rule(labels_s, labels_u, num_classes)
    for c, (si, ui) in enumerate(members):
        if bool(si.size) != bool(ui.size):
            warnings.warn(f"class {c} missing from one domain; skipped")
    return MmdCoeffs(alpha=alpha, beta=beta, delta=delta, classes=(counts_s, counts_u))


def _mean_factors(X, w, counts, delta):
    """One domain's weighted-mean columns and per-sample spread weights.

    Column j of the returned d x counts.shape[1] matrix sums the columns of
    X w / (delta counts[:, j]), the domain mean for j = 0 and a class mean
    after it. The returned vector holds w^2 / (delta^2 n_c) on the
    compared classes' samples and 0 elsewhere.
    """
    spread = counts[:, 1:].min(axis=1, initial=np.inf)
    return X @ (w[:, None] / (delta * counts)), w**2 / (delta**2 * spread)


def assemble_M(X_s, X_u, coeffs: MmdCoeffs) -> MmdBlocks:
    """The blocks M = X H X^T, formed from weighted means in O(d^2 n).

    With S, U the weighted-mean columns of each domain (domain mean first,
    then one per shared class) and w the per-sample diagonal weights:
    M_ss = S S^T + X_s diag(w_s) X_s^T, M_uu likewise, and
    M_su = S diag(1, 2, ..., 2) U^T.
    """
    Xs = as_features(X_s).data
    Xu = as_features(X_u).data
    if coeffs.alpha.size != Xs.shape[1] or coeffs.beta.size != Xu.shape[1]:
        raise ValueError("coefficient shapes do not match sample counts")
    counts_s, counts_u = coeffs.classes
    S, w_s = _mean_factors(Xs, coeffs.alpha, counts_s, coeffs.delta)
    U, w_u = _mean_factors(Xu, coeffs.beta, counts_u, coeffs.delta)
    M_ss = S @ S.T + (Xs * w_s) @ Xs.T
    M_uu = U @ U.T + (Xu * w_u) @ Xu.T
    cross = np.full(S.shape[1], 2.0)
    cross[0] = 1.0
    return MmdBlocks(
        M_ss=(M_ss + M_ss.T) / 2.0,
        M_uu=(M_uu + M_uu.T) / 2.0,
        M_su=(S * cross) @ U.T,
    )


def mmd_distance(Z_s, Z_u, labels_s, labels_u, alpha=None, beta=None, delta=1.0):
    """Divergence between embedded domains: squared distance of the
    (landmark-weighted) domain means plus the class-wise mean distances
    over classes present on both sides, the squared Frobenius norm of the
    difference of the two domains' `_mean_factors` columns.

    With the default uniform weights this is the plain mean discrepancy.
    Zero when the embedded domains coincide; recorded per iteration as the
    trace `mmd` entry.
    """
    Zs = np.asarray(Z_s, dtype=np.float64)
    Zu = np.asarray(Z_u, dtype=np.float64)
    alpha, beta = _check_weights(np.ones(Zs.shape[1]) if alpha is None else alpha,
                                 np.ones(Zu.shape[1]) if beta is None else beta, delta)
    labels_s, labels_u = _check_labels(alpha, beta, labels_s, labels_u)
    if (alpha.size, beta.size) != (Zs.shape[1], Zu.shape[1]):
        raise ValueError("weight vectors must match the sample counts")
    _, counts_s, counts_u = _class_rule(labels_s, labels_u)
    diff = (_mean_factors(Zs, alpha, counts_s, delta)[0]
            - _mean_factors(Zu, beta, counts_u, delta)[0])
    return float(np.vdot(diff, diff))

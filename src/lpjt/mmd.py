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
(X diag(w)) X^T in O(d^2 n), never building an n x n matrix;
`marginal_coeffs` and `conditional_coeffs` build the dense H as the
reference. `mmd_value` evaluates the literal sums and is kept independent
of both paths so each can check the other. Constants follow the convention
that the cross-class block carries a built-in factor 2, paired with the -2
coupling above; the explicit-sum equality pins every constant.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .core import as_features


@dataclass(frozen=True)
class MmdCoeffs:
    """The landmark weights, classes and delta that define the MMD terms.

    `classes` holds the (source, target) sample indices of each class
    present in both domains, the only classes the conditional term
    compares. No n x n coefficient matrix is kept: `assemble_M` forms the
    blocks from these directly, and `marginal_coeffs` /
    `conditional_coeffs` rebuild the dense matrices for reference.
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
    if delta <= 0:
        raise ValueError("delta must be positive")
    if alpha.size and alpha.min() < 0 or beta.size and beta.min() < 0:
        raise ValueError("weights must be nonnegative")
    return alpha, beta


def marginal_coeffs(alpha, beta, delta):
    """Coefficient matrices of the weighted marginal mean discrepancy."""
    alpha, beta = _check_weights(alpha, beta, delta)
    n_s, n_u = alpha.size, beta.size
    H_sm = np.outer(alpha, alpha) / (delta**2 * n_s**2)
    H_um = np.outer(beta, beta) / (delta**2 * n_u**2)
    H_sum = np.outer(alpha, beta) / (delta**2 * n_s * n_u)
    return H_sm, H_um, H_sum


def _check_labels(alpha, beta, labels_s, pseudo_labels_u):
    labels_s = np.asarray(labels_s, dtype=np.int64).ravel()
    labels_u = np.asarray(pseudo_labels_u, dtype=np.int64).ravel()
    if labels_s.size != alpha.size or labels_u.size != beta.size:
        raise ValueError("label vectors must match weight vectors")
    return labels_s, labels_u


def _shared_classes(labels_s, labels_u, num_classes):
    """(source, target) indices of each class present in both domains.

    A class present in one domain only is skipped with a warning.
    """
    shared = []
    for c in range(num_classes):
        si = np.flatnonzero(labels_s == c)
        ui = np.flatnonzero(labels_u == c)
        if si.size and ui.size:
            shared.append((si, ui))
        elif si.size != ui.size:
            warnings.warn(f"class {c} missing from one domain; skipped")
    return tuple(shared)


def conditional_coeffs(alpha, beta, labels_s, pseudo_labels_u, delta, num_classes):
    """Per-class coefficient matrices scattered to global sample positions.

    A class contributes only when it has members in both domains; empty
    classes are skipped with a warning and leave zero blocks behind.
    """
    alpha, beta = _check_weights(alpha, beta, delta)
    labels_s, labels_u = _check_labels(alpha, beta, labels_s, pseudo_labels_u)
    n_s, n_u = alpha.size, beta.size
    H_sc = np.zeros((n_s, n_s))
    H_uc = np.zeros((n_u, n_u))
    H_suc = np.zeros((n_s, n_u))
    for si, ui in _shared_classes(labels_s, labels_u, num_classes):
        a, b = alpha[si], beta[ui]
        H_sc[np.ix_(si, si)] += np.outer(a, a) / (delta**2 * si.size**2)
        H_sc[si, si] += a * a / (delta**2 * si.size)
        H_uc[np.ix_(ui, ui)] += np.outer(b, b) / (delta**2 * ui.size**2)
        H_uc[ui, ui] += b * b / (delta**2 * ui.size)
        H_suc[np.ix_(si, ui)] += 2.0 * np.outer(a, b) / (delta**2 * si.size * ui.size)
    return H_sc, H_uc, H_suc


def build_coeffs(alpha, beta, labels_s, pseudo_labels_u, delta, num_classes) -> MmdCoeffs:
    """Validate and collect what defines both MMD terms; builds no matrix."""
    alpha, beta = _check_weights(alpha, beta, delta)
    labels_s, labels_u = _check_labels(alpha, beta, labels_s, pseudo_labels_u)
    return MmdCoeffs(alpha=alpha, beta=beta, delta=delta,
                     classes=_shared_classes(labels_s, labels_u, num_classes))


def _mean_factors(X, w, groups, delta):
    """One domain's weighted-mean columns and per-sample diagonal weights.

    Column 0 of the returned d x (1 + len(groups)) matrix is the mean of
    the columns of X w / delta over the domain, column j + 1 their mean over
    the samples in groups[j]. The returned vector holds w_i^2 / (delta^2 n_c)
    for the samples of those groups and 0 elsewhere.
    """
    n = w.size
    E = np.zeros((n, 1 + len(groups)))
    E[:, 0] = w / (delta * n)
    diag = np.zeros(n)
    for j, idx in enumerate(groups):
        E[idx, j + 1] = w[idx] / (delta * idx.size)
        diag[idx] = w[idx] ** 2 / (delta**2 * idx.size)
    return X @ E, diag


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
    S, w_s = _mean_factors(Xs, coeffs.alpha, [si for si, _ in coeffs.classes], coeffs.delta)
    U, w_u = _mean_factors(Xu, coeffs.beta, [ui for _, ui in coeffs.classes], coeffs.delta)
    M_ss = S @ S.T + (Xs * w_s) @ Xs.T
    M_uu = U @ U.T + (Xu * w_u) @ Xu.T
    cross = np.full(S.shape[1], 2.0)
    cross[0] = 1.0
    return MmdBlocks(
        M_ss=(M_ss + M_ss.T) / 2.0,
        M_uu=(M_uu + M_uu.T) / 2.0,
        M_su=(S * cross) @ U.T,
    )


def mmd_value(X_s, X_u, A, B, alpha, beta, labels_s, pseudo_labels_u, delta):
    """Evaluate the weighted marginal and conditional MMD by explicit sums.

    Returns (E_MG, E_CD). This is the reference path: it never touches the
    coefficient matrices, so it can serve as an oracle for them.
    """
    Xs = as_features(X_s).data
    Xu = as_features(X_u).data
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    alpha, beta = _check_weights(alpha, beta, delta)
    labels_s = np.asarray(labels_s, dtype=np.int64).ravel()
    labels_u = np.asarray(pseudo_labels_u, dtype=np.int64).ravel()
    n_s, n_u = Xs.shape[1], Xu.shape[1]

    Zs = A.T @ Xs    # (d, n_s) embedded source
    Zu = B.T @ Xu

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


def mmd_distance(Z_s, Z_u, labels_s, labels_u, alpha=None, beta=None, delta=1.0):
    """Divergence between embedded domains: squared distance of the
    (landmark-weighted) domain means plus the class-wise mean distances
    over classes present on both sides.

    With the default uniform weights this is the plain mean discrepancy.
    Zero when the embedded domains coincide; recorded per iteration as the
    trace `mmd` entry.
    """
    Zs = np.asarray(Z_s, dtype=np.float64)
    Zu = np.asarray(Z_u, dtype=np.float64)
    labels_s = np.asarray(labels_s, dtype=np.int64).ravel()
    labels_u = np.asarray(labels_u, dtype=np.int64).ravel()
    alpha = np.ones(Zs.shape[1]) if alpha is None else np.asarray(alpha, dtype=np.float64)
    beta = np.ones(Zu.shape[1]) if beta is None else np.asarray(beta, dtype=np.float64)
    Zs = Zs * alpha
    Zu = Zu * beta
    diff = Zs.sum(axis=1) / (delta * alpha.size) - Zu.sum(axis=1) / (delta * beta.size)
    total = float(diff.dot(diff))
    for c in np.intersect1d(np.unique(labels_s), np.unique(labels_u)):
        si = labels_s == c
        ui = labels_u == c
        diff_c = Zs[:, si].sum(axis=1) / (delta * si.sum()) - Zu[:, ui].sum(axis=1) / (delta * ui.sum())
        total += float(diff_c.dot(diff_c))
    return total


"""Assembly and solution of the trace-ratio objective as a generalized
symmetric-definite eigenproblem LHS p = lambda RHS p.

The constraint side (RHS) collects everything the objective minimizes: the
MMD blocks, the intrinsic-graph scatters, the target projection norm and,
in homogeneous mode, the A~B coupling. The numerator side (LHS) collects
what it maximizes: penalty-graph scatters and the target variance. The
top-d eigenvectors stack to P = [A; B].

The problem is assembled over whatever features the blocks were built
from. When a domain has more features than samples, `pipeline.fit` first
maps it onto an orthonormal basis of its sample span, so the problem is at
most (n_s + n_u)-dimensional and the solution maps back exactly.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import Hyperparams
from .graph import ScatterSet
from .mmd import MmdBlocks


class SolverError(RuntimeError):
    """Numeric failure of the eigenproblem: non-finite matrices or a failed
    decomposition, which carries a condition-number estimate of RHS."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


@dataclass(frozen=True)
class EigProblem:
    LHS: np.ndarray
    RHS: np.ndarray
    eps_used: float = 0.0


@dataclass(frozen=True)
class EigSolution:
    P: np.ndarray
    eigenvalues: np.ndarray


def _sym(M):
    return (M + M.T) / 2.0


def _ridge(RHS_raw, hyper: Hyperparams):
    dim = RHS_raw.shape[0]
    if hyper.eps_reg is not None:
        return hyper.eps_reg
    return max(1e-6 * np.trace(RHS_raw) / dim, 1e-12)


def assemble_problem(M: MmdBlocks, S: ScatterSet, hyper: Hyperparams,
                     homogeneous: bool = False) -> EigProblem:
    """Stack the MMD blocks and scatter matrices into the eigenproblem.

    The cross blocks enter the constraint side with a minus sign so that
    tr([A^T B^T] RHS [A; B]) equals E_MG + E_CD + gamma * locality
    + mu * ||B||^2 (plus ridge and optional coupling).
    """
    d_s = M.M_ss.shape[0]
    d_t = M.M_uu.shape[0]
    if M.M_su.shape != (d_s, d_t):
        raise ValueError("cross block shape does not match diagonal blocks")
    if S.S_w_s.shape[0] != d_s or S.S_w_u.shape[0] != d_t:
        raise ValueError("scatter matrices do not match the MMD blocks")
    g, mu = hyper.gamma, hyper.mu
    dim = d_s + d_t

    RHS = np.zeros((dim, dim))
    RHS[:d_s, :d_s] = M.M_ss + g * S.S_w_s
    RHS[d_s:, d_s:] = M.M_uu + g * S.S_w_u + mu * np.eye(d_t)
    RHS[:d_s, d_s:] = -M.M_su
    RHS[d_s:, :d_s] = -M.M_us

    if homogeneous and d_s == d_t:
        couple = hyper.lambda_couple
        if couple is None:
            couple = 0.1 * np.trace(RHS) / dim
        eye = couple * np.eye(d_s)
        RHS[:d_s, :d_s] += eye
        RHS[d_s:, d_s:] += eye
        RHS[:d_s, d_s:] -= eye
        RHS[d_s:, :d_s] -= eye

    if not np.all(np.isfinite(RHS)):
        raise SolverError("constraint-side matrix contains non-finite entries")
    eps = _ridge(RHS, hyper)
    RHS = _sym(RHS) + eps * np.eye(dim)

    LHS = np.zeros((dim, dim))
    LHS[:d_s, :d_s] = g * S.S_b_s
    LHS[d_s:, d_s:] = g * S.S_b_u + mu * S.S_h_u
    if not np.all(np.isfinite(LHS)):
        raise SolverError("objective-side matrix contains non-finite entries")
    return EigProblem(LHS=_sym(LHS), RHS=RHS, eps_used=eps)


def solve(problem: EigProblem, d: int) -> EigSolution:
    """Top-d generalized eigenpairs, eigenvalues descending.

    Columns of P are RHS-orthonormal. The sign of each column is fixed by
    making its largest-magnitude entry positive, which keeps repeated runs
    reproducible (the objective is sign-invariant).
    """
    n = problem.LHS.shape[0]
    if d > n:
        raise ValueError(f"requested {d} eigenvectors from a {n}-dim problem")
    try:
        vals, vecs = scipy.linalg.eigh(
            problem.LHS, problem.RHS, subset_by_index=(n - d, n - 1)
        )
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        cond = float(np.linalg.cond(problem.RHS))
        raise SolverError(
            f"generalized eigendecomposition failed (cond(RHS)~{cond:.2e})",
            cond=cond,
        ) from exc
    vals = vals[::-1]
    vecs = vecs[:, ::-1].copy()
    for j in range(vecs.shape[1]):
        lead = np.argmax(np.abs(vecs[:, j]))
        if vecs[lead, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return EigSolution(P=vecs, eigenvalues=vals)


def split_projection(P, d_s: int, d_t: int):
    """Split the stacked eigenvector matrix into (A, B)."""
    P = np.asarray(P, dtype=np.float64)
    if P.shape[0] != d_s + d_t:
        raise ValueError(f"expected {d_s + d_t} rows, got {P.shape[0]}")
    return P[:d_s], P[d_s:]


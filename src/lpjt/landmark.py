"""Sample-weight optimization: pick landmarks by solving a constrained QP.

With the projections held fixed, the transfer objective reduces to
1/2 z^T Bq z over z = (alpha; beta) with Bq = [[K_ss, -K_su], [-K_su^T, 0]],
subject to box bounds [0, 1] and per-class mean constraints mean(w) = delta
in each domain. Bq is kept in factored form: K_ss is a diagonal plus
F_s^T F_s and K_su = F_s^T F_u, where the factors are scaled copies of the
embedded data with r = d * (1 + shared classes) rows, so the weight step
stores O(r * n) numbers and every product with Bq costs O(r * n).

The zero lower-right block makes Bq indefinite, so the solver runs one burst
of projected gradient descent with exact per-group projection onto
{[0,1]^m, mean = delta}, then alternating exact coordinate passes (a linear
program in beta, a convex QP in alpha by accelerated projected gradient) to
a fixed point. Classes present in a single domain keep their weights pinned
at delta.

A projection is a per-group dual shift tau. Within the burst and within one
alpha pass, each projection starts from the previous one's shifts and takes
at most NEWTON_STEPS Newton steps on them, O(m) and without a sort; when a
group's active set has not settled by then, a sorted sweep over all
breakpoints finds the shifts instead.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# solve_qp's limits. Bursts of 50 steps end recorded QPs at other stationary
# points than bursts of 100; the passes reach their fixed point there within
# 2-6 rounds, so POLISH_ROUNDS only caps a slow tail
BURST_STEPS = 100
BURST_TOL = 1e-9
POLISH_ROUNDS = 50
POLISH_TOL = 1e-10
# Newton steps a carried projection shift gets before the sorted sweep
NEWTON_STEPS = 2


@dataclass(frozen=True)
class LandmarkWeights:
    """Per-sample weights for both domains, finite entries in [0, 1]."""

    alpha: np.ndarray
    beta: np.ndarray
    delta: float

    def __post_init__(self):
        alpha = np.ascontiguousarray(self.alpha, dtype=np.float64).ravel()
        beta = np.ascontiguousarray(self.beta, dtype=np.float64).ravel()
        for name, w in (("alpha", alpha), ("beta", beta)):
            if not np.isfinite(w).all():
                raise ValueError(f"{name} entries must be finite")
            if w.size and (w.min() < -1e-12 or w.max() > 1.0 + 1e-12):
                raise ValueError(f"{name} entries must lie in [0, 1]")
        alpha.setflags(write=False)
        beta.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def stacked(self):
        return np.concatenate([self.alpha, self.beta])


def uniform_weights(n_s: int, n_u: int, delta: float) -> LandmarkWeights:
    """The uniform feasible point alpha = beta = delta * 1."""
    return LandmarkWeights(np.full(n_s, delta), np.full(n_u, delta), delta)


class _ProjectionMeta(NamedTuple):
    """Per-instance constants of `_project` for one set of groups."""

    act: np.ndarray          # free coordinates, group by group
    gid: np.ndarray          # group of each free coordinate
    targets: np.ndarray      # delta * group size
    pinned: np.ndarray       # coordinates pinned at delta
    ev_gid: np.ndarray       # group of each breakpoint event, smallest uint dtype
    slope_delta: np.ndarray  # +1 where a coordinate starts rising, -1 where it saturates
    counts: np.ndarray       # events per group
    starts: np.ndarray       # first event of each group
    first: np.ndarray        # first free coordinate of each group


@dataclass(frozen=True)
class QpInstance:
    """Quadratic program data in factored form, plus the per-class bookkeeping.

    The blocks of Bq are never stored densely: K_ss = F_s^T F_s + diag(diag_s)
    and K_su = F_s^T F_u, with F_s (r x n_s) and F_u (r x n_u) for
    r = d * (1 + number of classes present in both domains). Products with
    Bq, K_ss, K_su and K_su^T cost O(r * n). The dense `Bq`, `K_ss` and `K_su`
    are built lazily for inspection and tests; the solver never touches them.

    `groups` lists (global indices, free) per class and domain, where pinned
    groups (class in one domain only) are not free.
    """

    F_s: np.ndarray
    F_u: np.ndarray
    diag_s: np.ndarray
    delta: float
    groups: tuple

    @property
    def n_s(self):
        return self.F_s.shape[1]

    @property
    def n_u(self):
        return self.F_u.shape[1]

    def kss_matvec(self, a):
        """K_ss @ a."""
        return self.F_s.T @ (self.F_s @ a) + self.diag_s * a

    def ksu_matvec(self, b):
        """K_su @ b."""
        return self.F_s.T @ (self.F_u @ b)

    def ksu_rmatvec(self, a):
        """K_su^T @ a."""
        return self.F_u.T @ (self.F_s @ a)

    def matvec(self, z):
        """Bq @ z for z = (alpha; beta)."""
        a, b = z[: self.n_s], z[self.n_s:]
        p = self.F_s @ a
        top = self.F_s.T @ (p - self.F_u @ b) + self.diag_s * a
        return np.concatenate([top, -(self.F_u.T @ p)])

    @cached_property
    def norm_bq(self):
        """Power-iteration estimate of ||Bq||_2."""
        return _spectral_norm_estimate(self.matvec, self.n_s + self.n_u)

    @cached_property
    def norm_kss(self):
        """Power-iteration estimate of ||K_ss||_2."""
        return _spectral_norm_estimate(self.kss_matvec, self.n_s)

    @cached_property
    def K_ss(self):
        return self.F_s.T @ self.F_s + np.diag(self.diag_s)

    @cached_property
    def K_su(self):
        return self.F_s.T @ self.F_u

    @cached_property
    def Bq(self):
        n_s = self.n_s
        Bq = np.zeros((n_s + self.n_u, n_s + self.n_u))
        Bq[:n_s, :n_s] = self.K_ss
        Bq[:n_s, n_s:] = -self.K_su
        Bq[n_s:, :n_s] = -self.K_su.T
        return Bq

    def _projection_meta(self, source_only):
        free, pinned = [], []
        for idx, both in self.groups:
            if source_only and idx[0] >= self.n_s:
                continue
            (free if both else pinned).append(idx)
        if free:
            act = np.concatenate(free)
            gid = np.concatenate([np.full(idx.size, g) for g, idx in enumerate(free)])
            sizes = np.array([idx.size for idx in free], dtype=np.float64)
        else:
            act = np.zeros(0, dtype=np.int64)
            gid = np.zeros(0, dtype=np.int64)
            sizes = np.zeros(0)
        pin = np.concatenate(pinned) if pinned else np.zeros(0, dtype=np.int64)
        counts = (2 * sizes).astype(np.int64)
        first = (np.cumsum(sizes) - sizes).astype(np.int64)
        # numpy radix-sorts integers of 16 bits or fewer
        ev_gid = np.concatenate([gid, gid]).astype(np.min_scalar_type(max(sizes.size - 1, 0)))
        return _ProjectionMeta(
            act=act, gid=gid, targets=self.delta * sizes, pinned=pin, ev_gid=ev_gid,
            slope_delta=np.concatenate([np.ones(act.size), -np.ones(act.size)]),
            counts=counts, starts=2 * first, first=first,
        )

    @cached_property
    def _meta_all(self):
        return self._projection_meta(False)

    @cached_property
    def _meta_source(self):
        return self._projection_meta(True)


def build_qp(Z_s, Z_u, labels_s, pseudo_labels_u, delta, num_classes=None) -> QpInstance:
    """Factored coefficient matrices of the weight subproblem from embedded data.

    K_ss[i, j] multiplies alpha_i * alpha_j and aggregates the marginal and
    (same-class) conditional contributions; K_su likewise for
    alpha_i * beta_j. Gradients of 1/2 z^T Bq z match the alpha-gradient of
    the weighted MMD exactly. The factors are scaled copies of Z_s and Z_u:
    one row block for the marginal term and one per class present in both
    domains, zero outside that class's samples; the class blocks' own
    diagonal term goes to diag_s.
    """
    Z_s = np.asarray(Z_s, dtype=np.float64)
    Z_u = np.asarray(Z_u, dtype=np.float64)
    labels_s = np.asarray(labels_s, dtype=np.int64).ravel()
    labels_u = np.asarray(pseudo_labels_u, dtype=np.int64).ravel()
    if delta <= 0:
        raise ValueError("delta must be positive")
    n_s, n_u = Z_s.shape[1], Z_u.shape[1]
    if labels_s.size != n_s or labels_u.size != n_u:
        raise ValueError("label vectors must match the sample counts")
    if num_classes is None:
        num_classes = int(max(labels_s.max(), labels_u.max())) + 1

    scale = np.sqrt(2.0) / delta
    blocks_s = [(scale / n_s) * Z_s]
    blocks_u = [(scale / n_u) * Z_u]
    diag_s = np.zeros(n_s)
    sq_norms = np.einsum("ij,ij->j", Z_s, Z_s)
    groups = []
    for c in range(num_classes):
        si = np.flatnonzero(labels_s == c)
        ui = np.flatnonzero(labels_u == c)
        if si.size == 0 and ui.size == 0:
            raise ValueError(f"class {c} is absent from both domains")
        both = si.size > 0 and ui.size > 0
        if both:
            block_s = np.zeros_like(Z_s)
            block_s[:, si] = (scale / si.size) * Z_s[:, si]
            block_u = np.zeros_like(Z_u)
            block_u[:, ui] = (2.0 * scale / ui.size) * Z_u[:, ui]
            blocks_s.append(block_s)
            blocks_u.append(block_u)
            diag_s[si] = 2.0 * sq_norms[si] / (delta**2 * si.size)
        if si.size:
            groups.append((si, both))
        if ui.size:
            groups.append((n_s + ui, both))
    return QpInstance(
        F_s=np.vstack(blocks_s), F_u=np.vstack(blocks_u), diag_s=diag_s,
        delta=delta, groups=tuple(groups),
    )


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


def _project(z, qp: QpInstance, source_only: bool = False, shift=None):
    """Project onto the feasible polytope, every group in one pass.

    Returns the projection and the per-group dual shift tau (None when no
    group is free to shift), for the next call in the same loop to pass back
    as `shift`. sum(clip(x + tau, 0, 1))
    is piecewise linear in tau with breakpoints at -x_i (a coordinate starts
    rising) and 1 - x_i (it saturates). From a carried shift, Newton's method
    on tau (Cominetti, Mascarenhas & Silva, Math. Prog. Comp. 2014) lands on
    the crossing segment in O(m) when the shift moved only a little. Without
    one, or when any group has no interior coordinate or its active set
    still moves after NEWTON_STEPS steps, one segmented sorted sweep locates
    the segment. Either way the result is that of per-group bisection,
    without the iteration loop.
    """
    meta = qp._meta_source if source_only else qp._meta_all
    act, gid, targets = meta.act, meta.gid, meta.targets
    out = z.copy()
    if meta.pinned.size:
        out[meta.pinned] = qp.delta
    if act.size == 0:
        return out, None
    delta = qp.delta
    if delta <= 0.0:
        out[act] = 0.0
        return out, None
    if delta >= 1.0:
        out[act] = 1.0
        return out, None
    x = z[act]
    tau = None if shift is None else _newton_shift(x, meta, shift)
    if tau is None:
        tau = _sweep_shift(x, meta)

    # clip, then put the rounding error of the group sums on the interior
    v = np.clip(x + tau[gid], 0.0, 1.0)
    interior = (v > 0.0) & (v < 1.0)
    sums = np.bincount(gid, weights=v, minlength=targets.size)
    n_int = np.add.reduceat(interior, meta.first, dtype=np.int64)
    corr = np.where(n_int > 0, (targets - sums) / np.maximum(n_int, 1), 0.0)
    # adding corr * 0 leaves the bound coordinates bit for bit
    v += corr[gid] * interior
    out[act] = np.clip(v, 0.0, 1.0)
    return out, tau


def _newton_shift(x, meta, tau):
    """Newton steps on sum(clip(x + tau, 0, 1)) = target from a carried shift.

    Each step sorts every coordinate into at 0, interior or at 1, and solves
    that linear piece: tau = (target - #at 1 - sum of interior x) / #interior.
    Returns the shifts once no group's sorting changes at the new tau, or
    None when a group has no interior coordinate or NEWTON_STEPS run out.
    """
    gid, first = meta.gid, meta.first
    y = x + tau[gid]
    low, high = y <= 0.0, y >= 1.0
    for _ in range(NEWTON_STEPS):
        interior = ~(low | high)
        n_int = np.add.reduceat(interior, first, dtype=np.int64)
        if not n_int.all():
            return None
        # on this piece sum(clip(y)) = #at 1 + sum of interior (x + tau)
        tau = tau + (meta.targets - np.add.reduceat(np.clip(y, 0.0, 1.0), first)) / n_int
        y = x + tau[gid]
        new_low, new_high = y <= 0.0, y >= 1.0
        if (new_low == low).all() and (new_high == high).all():
            return tau
        low, high = new_low, new_high
    return None


def _sweep_shift(x, meta):
    """Per-group shift by one segmented sweep over the sorted breakpoints."""
    targets, counts, starts = meta.targets, meta.counts, meta.starts
    # events sorted by group, then by breakpoint; equal breakpoints add only
    # exact zeros to the sweep, so their order does not matter
    bp = np.concatenate([-x, 1.0 - x])
    order = np.argsort(bp)
    order = order[np.argsort(meta.ev_gid[order], kind="stable")]
    bp, slope_delta = bp[order], meta.slope_delta[order]

    # within-group cumulative slope right after each event
    cums = np.cumsum(slope_delta)
    slope_after = cums - np.repeat(cums[starts] - slope_delta[starts], counts)
    # within-group value of sum(clip) at each breakpoint
    contrib = np.empty_like(bp)
    contrib[1:] = slope_after[:-1] * (bp[1:] - bp[:-1])
    contrib[starts] = 0.0
    v_at = np.cumsum(contrib)
    v_at -= np.repeat(v_at[starts], counts)
    # the sum is nondecreasing in tau, so the crossing segment starts at the
    # last event whose value does not exceed the target
    below = np.where(v_at <= np.repeat(targets, counts), np.arange(bp.size), -1)
    k = np.maximum.reduceat(below, starts)
    slope_k = slope_after[k]
    return bp[k] + np.where(slope_k > 0, targets - v_at[k], 0.0) / np.where(
        slope_k > 0, slope_k, 1.0
    )


def project_feasible(qp: QpInstance, weights: LandmarkWeights) -> LandmarkWeights:
    """Project weights onto the instance's feasible polytope.

    Used to warm-start a solve when the class grouping changed (pseudo
    labels move between iterations, so a previously feasible point may
    violate the new per-class means).
    """
    z, _ = _project(weights.stacked(), qp)
    return LandmarkWeights(z[: qp.n_s], z[qp.n_s:], qp.delta)


def _objective(qp: QpInstance, z):
    return 0.5 * float(z @ qp.matvec(z))


def _spectral_norm_estimate(matvec, n):
    v = np.ones(n) / np.sqrt(n)
    for _ in range(30):
        w = matvec(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(np.linalg.norm(matvec(v)))


def _greedy_linear_min(coef, delta, m):
    """Minimize coef . v over {v in [0,1]^m : sum v = delta * m}.

    Fills the budget greedily in ascending coef order, ties by index: the
    k-th smallest gets clip(delta * m - k, 0, 1).
    """
    v = np.empty(m)
    v[np.argsort(coef, kind="stable")] = np.clip(delta * m - np.arange(m), 0.0, 1.0)
    return v


def _alpha_pass(qp: QpInstance, z, lin, step):
    """Accelerated projected gradient on the convex alpha subproblem.

    Minimizes 1/2 a^T K_ss a + lin . a over the source groups' polytope with
    FISTA momentum (Beck & Teboulle 2009). A step that does not lower the
    objective ends the pass, keeping the better point, so the value never
    rises.
    """
    n_s = qp.n_s
    a = z[:n_s].copy()
    Ka = qp.kss_matvec(a)
    f_a = 0.5 * a @ Ka + lin @ a
    y, Ky = a, Ka
    t = 1.0
    full = z.copy()
    shift = None
    for _ in range(100):
        full[:n_s] = y - step * (Ky + lin)
        proj, shift = _project(full, qp, source_only=True, shift=shift)
        a_new = proj[:n_s]
        Ka_new = qp.kss_matvec(a_new)
        f_new = 0.5 * a_new @ Ka_new + lin @ a_new
        if f_new > f_a - 1e-12 * max(abs(f_a), 1e-30):
            return a_new if f_new < f_a else a
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        mom = (t - 1.0) / t_next
        y = a_new + mom * (a_new - a)
        Ky = Ka_new + mom * (Ka_new - Ka)
        a, Ka, f_a, t = a_new, Ka_new, f_new, t_next
    return a


def _alternating_polish(qp: QpInstance, z, trace):
    """Exact coordinate passes, linear in beta and convex quadratic in alpha,
    until a round improves neither; returns the point and whether that
    fixed point was reached."""
    n_s = qp.n_s
    L = qp.norm_kss
    f = _objective(qp, z)
    for _ in range(POLISH_ROUNDS):
        f_round = f
        # beta enters linearly: minimize (-K_su^T alpha) . beta per group
        coef = -qp.ksu_rmatvec(z[:n_s])
        cand = z.copy()
        for idx, both in qp.groups:
            if not both or idx[0] < n_s:
                continue
            local = idx - n_s
            cand[idx] = _greedy_linear_min(coef[local], qp.delta, idx.size)
        f_cand = _objective(qp, cand)
        if f_cand < f - POLISH_TOL * max(abs(f), 1e-30):
            z, f = cand, f_cand
            trace.append(f)
        # alpha subproblem is convex: solve it to tolerance
        if L > 0.0:
            cand = z.copy()
            cand[:n_s] = _alpha_pass(qp, z, -qp.ksu_matvec(z[n_s:]), 1.0 / L)
            f_cand = _objective(qp, cand)
            if f_cand < f - POLISH_TOL * max(abs(f), 1e-30):
                z, f = cand, f_cand
                trace.append(f)
        if f == f_round:
            return z, True
    return z, False


def solve_qp(qp: QpInstance, init: LandmarkWeights | None = None, full_output=False):
    """Minimize 1/2 z^T Bq z over the feasible weight polytope.

    One projected-gradient burst from `init` (default: the uniform feasible
    point), backtracking from a 1/||Bq||_2 step, then alternating exact
    passes until a round makes no improvement. `converged` reports that
    fixed point and `iterations` the burst's steps. Uses only the
    instance's factored products. The returned point is always feasible
    and its objective never exceeds the initial one. Deterministic given init.
    """
    if init is None:
        init = uniform_weights(qp.n_s, qp.n_u, qp.delta)
    z = init.stacked()
    if z.size != qp.n_s + qp.n_u:
        raise ValueError("init size does not match the QP")
    feas, _ = _project(z, qp)
    if np.max(np.abs(feas - z)) > 1e-6:
        raise ValueError("init is not feasible")
    z = feas

    f = _objective(qp, z)
    trace = [f]
    # delta 0 or 1 pins every weight, and Bq = 0 makes every point optimal
    if qp.delta >= 1.0 or qp.delta <= 0.0 or qp.norm_bq <= 0.0:
        return _finalize(qp, z, trace, True, 0, full_output)

    g = qp.matvec(z)
    shift = None
    for iters in range(1, BURST_STEPS + 1):
        t = 1.0 / qp.norm_bq
        for _ in range(40):
            z_new, shift = _project(z - t * g, qp, shift=shift)
            step_vec = z_new - z
            g_new = qp.matvec(z_new)
            f_new = 0.5 * float(z_new @ g_new)
            slack = 1e-12 * max(abs(f), 1.0e-30)
            if f_new <= f + g @ step_vec + step_vec @ step_vec / (2.0 * t) + slack:
                break
            t /= 2.0
        else:
            break
        rel_drop = (f - f_new) / max(abs(f), 1e-30)
        z, f, g = z_new, f_new, g_new
        trace.append(f)
        if rel_drop < BURST_TOL:
            break
    # the beta subproblem is a per-group linear program and the alpha
    # subproblem is convex, so exact passes cut through the shallow valley
    # the plain gradient crawls along
    z, converged = _alternating_polish(qp, z, trace)
    if not converged:
        warnings.warn(f"weight solver's alternating passes hit their {POLISH_ROUNDS}-round "
                      "cap; returning best feasible point")
    return _finalize(qp, z, trace, converged, iters, full_output)


def _finalize(qp, z, trace, converged, iters, full_output=False):
    weights = LandmarkWeights(
        alpha=np.clip(z[: qp.n_s], 0.0, 1.0),
        beta=np.clip(z[qp.n_s:], 0.0, 1.0),
        delta=qp.delta,
    )
    if not full_output:
        return weights
    info = {
        "objective_trace": np.asarray(trace),
        "converged": converged,
        "iterations": iters,
    }
    return weights, info


def check_feasible(weights: LandmarkWeights, labels_s, labels_u, atol=1e-8) -> bool:
    """True when every weight is finite and in [0, 1] and every per-class mean
    matches delta for classes in both domains."""
    labels_s = np.asarray(labels_s).ravel()
    labels_u = np.asarray(labels_u).ravel()
    for w in (weights.alpha, weights.beta):
        # NaN fails every comparison, so it would pass the bound checks
        if not np.isfinite(w).all():
            return False
        if w.size and (w.min() < -atol or w.max() > 1 + atol):
            return False
    for c in np.intersect1d(np.unique(labels_s), np.unique(labels_u)):
        if abs(weights.alpha[labels_s == c].mean() - weights.delta) > atol:
            return False
        if abs(weights.beta[labels_u == c].mean() - weights.delta) > atol:
            return False
    return True

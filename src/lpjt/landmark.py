"""Sample-weight optimization: pick landmarks by solving a convex QP.

With the projections held fixed, the landmark-weighted MMD of
`mmd.mmd_value`, E = E_MG + E_CD, is the quadratic E = 1/2 z^T Bq z over
z = (alpha; beta) with Bq = [[K_ss, -K_su], [-K_su^T, K_uu]]. Every term of
E is a sum of squares, so Bq is positive semidefinite and the QP convex.
The weights minimize E subject to box bounds [0, 1] and per-class mean
constraints mean(w) = delta in each domain, as in landmark selection (Gong,
Grauman & Sha, ICML 2013). Classes present in a single domain keep their
weights pinned at delta.

Bq is kept in factored form: K_ss = F_s^T F_s + diag(diag_s),
K_uu = F_u^T F_u + diag(diag_u) and K_su = F_s^T diag(cross) F_u, where the
factors are scaled copies of the embedded data with r = d * (1 + shared
classes) rows and `cross` is 1 on the marginal rows and 2 on the class rows.
The weight step stores O(r * n) numbers and every product with Bq costs
O(r * n).

The solver is one accelerated projected gradient (FISTA) with exact
per-group projection onto {[0,1]^m, mean = delta}. A projection is a
per-group dual shift tau; each starts from the previous one's shifts and
takes at most NEWTON_STEPS Newton steps on them, O(m) and without a sort;
when a group's active set has not settled by then, a sorted sweep over all
breakpoints finds the shifts instead.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# solve_qp's step cap and the relative drop of E that ends it
MAX_STEPS = 500
REL_TOL = 1e-9
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
    """Per-instance constants of `_project`."""

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

    The blocks of Bq are never stored densely: K_ss = F_s^T F_s + diag(diag_s),
    K_uu = F_u^T F_u + diag(diag_u) and K_su = F_s^T diag(cross) F_u, with
    F_s (r x n_s) and F_u (r x n_u) for r = d * (1 + number of classes
    present in both domains). A product with Bq costs O(r * n). The dense
    `Bq`, `K_ss`, `K_uu` and `K_su` are built lazily for inspection and
    tests; the solver never touches them.

    `groups` lists (global indices, free) per class and domain, where pinned
    groups (class in one domain only) are not free.
    """

    F_s: np.ndarray
    F_u: np.ndarray
    cross: np.ndarray
    diag_s: np.ndarray
    diag_u: np.ndarray
    delta: float
    groups: tuple

    @property
    def n_s(self):
        return self.F_s.shape[1]

    @property
    def n_u(self):
        return self.F_u.shape[1]

    def matvec(self, z):
        """Bq @ z for z = (alpha; beta)."""
        a, b = z[: self.n_s], z[self.n_s:]
        p = self.F_s @ a
        q = self.F_u @ b
        top = self.F_s.T @ (p - self.cross * q) + self.diag_s * a
        bottom = self.F_u.T @ (q - self.cross * p) + self.diag_u * b
        return np.concatenate([top, bottom])

    def tangent(self, v):
        """v projected onto the directions the constraints leave free: zero
        sum within each free group, zero on pinned coordinates."""
        meta = self._meta
        out = np.zeros_like(v)
        if meta.act.size:
            x = v[meta.act]
            out[meta.act] = x - (np.add.reduceat(x, meta.first) / (meta.counts // 2))[meta.gid]
        return out

    @cached_property
    def norm_tangent(self):
        """Power-iteration estimate, from below, of ||P Bq P||_2 for P =
        `tangent`. Feasible points differ only along those directions, so
        this is the curvature that bounds a projected step; pinned weights,
        which can curve E far more, do not shorten it."""
        # a generic start: the all-ones vector has no component there
        start = self.tangent(np.random.default_rng(0).standard_normal(self.n_s + self.n_u))
        return _spectral_norm_estimate(lambda v: self.tangent(self.matvec(v)), start)

    @cached_property
    def K_ss(self):
        return self.F_s.T @ self.F_s + np.diag(self.diag_s)

    @cached_property
    def K_uu(self):
        return self.F_u.T @ self.F_u + np.diag(self.diag_u)

    @cached_property
    def K_su(self):
        return (self.F_s * self.cross[:, None]).T @ self.F_u

    @cached_property
    def Bq(self):
        return np.block([[self.K_ss, -self.K_su], [-self.K_su.T, self.K_uu]])

    @cached_property
    def _meta(self):
        """Constants of `_project`, built on first use."""
        none = np.zeros(0, dtype=np.int64)
        free = [idx for idx, both in self.groups if both]
        pin = np.concatenate([none, *(idx for idx, both in self.groups if not both)])
        act = np.concatenate([none, *free])
        sizes = np.array([idx.size for idx in free], dtype=np.float64)
        gid = np.repeat(np.arange(sizes.size), sizes.astype(np.int64))
        counts = (2 * sizes).astype(np.int64)
        first = (np.cumsum(sizes) - sizes).astype(np.int64)
        # numpy radix-sorts integers of 16 bits or fewer
        ev_gid = np.concatenate([gid, gid]).astype(np.min_scalar_type(max(sizes.size - 1, 0)))
        return _ProjectionMeta(
            act=act, gid=gid, targets=self.delta * sizes, pinned=pin, ev_gid=ev_gid,
            slope_delta=np.concatenate([np.ones(act.size), -np.ones(act.size)]),
            counts=counts, starts=2 * first, first=first,
        )


def build_qp(Z_s, Z_u, labels_s, pseudo_labels_u, delta, num_classes=None) -> QpInstance:
    """Factored coefficient matrices of the weight subproblem from embedded data.

    1/2 z^T Bq z equals `mmd.mmd_value`'s E_MG + E_CD at the same weights,
    embeddings and labels. The factors are scaled copies of Z_s and Z_u:
    one row block for the marginal term and one per class present in both
    domains, zero outside that class's samples. A class's cross-domain
    pairs enter its mean difference and its pairwise spread, hence the
    cross weight 2 on its rows; the pairwise spread's per-sample terms
    go to diag_s and diag_u.
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
    diag_u = np.zeros(n_u)
    sq_norms_s = np.einsum("ij,ij->j", Z_s, Z_s)
    sq_norms_u = np.einsum("ij,ij->j", Z_u, Z_u)
    groups = []
    for c in range(num_classes):
        si = np.flatnonzero(labels_s == c)
        ui = np.flatnonzero(labels_u == c)
        if si.size == 0 and ui.size == 0:
            raise ValueError(f"class {c} is absent from both domains")
        both = si.size > 0 and ui.size > 0
        if both:
            for Z, idx, blocks, diag, sq_norms in ((Z_s, si, blocks_s, diag_s, sq_norms_s),
                                                   (Z_u, ui, blocks_u, diag_u, sq_norms_u)):
                block = np.zeros_like(Z)
                block[:, idx] = (scale / idx.size) * Z[:, idx]
                blocks.append(block)
                diag[idx] = 2.0 * sq_norms[idx] / (delta**2 * idx.size)
        if si.size:
            groups.append((si, both))
        if ui.size:
            groups.append((n_s + ui, both))
    d = Z_s.shape[0]
    cross = np.full(len(blocks_s) * d, 2.0)
    cross[:d] = 1.0
    return QpInstance(
        F_s=np.vstack(blocks_s), F_u=np.vstack(blocks_u), cross=cross,
        diag_s=diag_s, diag_u=diag_u, delta=delta, groups=tuple(groups),
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


def _project(z, qp: QpInstance, shift=None):
    """Project onto the feasible polytope, every group in one pass.

    Returns the projection and the per-group dual shift tau (None when no
    group is free to shift), for the solver's next call to pass back as
    `shift`. sum(clip(x + tau, 0, 1)) is piecewise linear in tau with
    breakpoints at -x_i (a coordinate starts rising) and 1 - x_i (it
    saturates). From a carried shift, Newton's method
    on tau (Cominetti, Mascarenhas & Silva, Math. Prog. Comp. 2014) lands on
    the crossing segment in O(m) when the shift moved only a little. Without
    one, or when any group has no interior coordinate or its active set
    still moves after NEWTON_STEPS steps, one segmented sorted sweep locates
    the segment. Either way the result is that of per-group bisection,
    without the iteration loop.
    """
    meta = qp._meta
    act, gid, targets = meta.act, meta.gid, meta.targets
    out = z.copy()
    if meta.pinned.size:
        out[meta.pinned] = qp.delta
    if act.size == 0:
        return out, None
    if not 0.0 < qp.delta < 1.0:
        out[act] = min(max(qp.delta, 0.0), 1.0)
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


def _spectral_norm_estimate(matvec, v):
    for _ in range(30):
        w = matvec(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(np.linalg.norm(matvec(v)))


def solve_qp(qp: QpInstance, init: LandmarkWeights | None = None, full_output=False):
    """Minimize E = 1/2 z^T Bq z over the feasible weight polytope.

    Accelerated projected gradient (FISTA; Beck & Teboulle, SIAM J. Imaging
    Sci. 2009) from `init` (default: the uniform feasible point) with step
    1 / `norm_tangent`, restarted from the last accepted point whenever a
    step raises E (O'Donoghue & Candes, Found. Comput. Math. 2015). That
    norm is a power-iteration estimate from below, so a step can be too
    long for the descent guarantee: a plain step, without momentum, that
    raises E halves the step length. `converged` reports that an accepted step
    lowered E by at most REL_TOL relative, within MAX_STEPS gradient steps;
    `iterations` counts those steps, and `objective_trace` holds E at init
    and after each accepted step. Uses only the instance's factored
    products. The returned point is always feasible and its E never exceeds
    that of init. Deterministic given init.
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

    g = qp.matvec(z)
    f = 0.5 * float(z @ g)
    trace = [f]
    # delta 0 or 1 pins every weight, and without curvature along the free
    # directions every feasible point is optimal
    if qp.delta >= 1.0 or qp.delta <= 0.0 or qp.norm_tangent <= 0.0:
        return _finalize(qp, z, trace, True, 0, full_output)

    step = 1.0 / qp.norm_tangent
    y, g_y, t, mom = z, g, 1.0, 0.0
    shift = None
    converged = False
    for iters in range(1, MAX_STEPS + 1):
        z_new, shift = _project(y - step * g_y, qp, shift=shift)
        g_new = qp.matvec(z_new)
        f_new = 0.5 * float(z_new @ g_new)
        if f_new > f:
            if mom == 0.0:
                step /= 2.0
            y, g_y, t, mom = z, g, 1.0, 0.0
            continue
        converged = f - f_new <= REL_TOL * abs(f)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        mom = (t - 1.0) / t_next
        # Bq is linear, so the momentum point's gradient needs no product
        y = z_new + mom * (z_new - z)
        g_y = g_new + mom * (g_new - g)
        z, g, f, t = z_new, g_new, f_new, t_next
        trace.append(f)
        if converged:
            break
    if not converged:
        warnings.warn(f"weight solver hit its {MAX_STEPS}-step cap; "
                      "returning best feasible point")
    return _finalize(qp, z, trace, converged, iters, full_output)


def _finalize(qp, z, trace, converged, iters, full_output=False):
    weights = LandmarkWeights(
        alpha=np.clip(z[: qp.n_s], 0.0, 1.0),
        beta=np.clip(z[qp.n_s:], 0.0, 1.0),
        delta=qp.delta,
    )
    if not full_output:
        return weights
    return weights, {"objective_trace": np.asarray(trace), "converged": converged,
                     "iterations": iters}


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

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
K_uu = F_u^T F_u + diag(diag_u) and K_su = F_s^T diag(cross) F_u, with
r = d * (1 + shared classes) rows in F_s and F_u, so the weight step stores
O(r * n) numbers and every product with Bq costs O(r * n).

The solver is an exact active-set method. Each step minimizes E exactly on
one face of the polytope: weights at 0 or 1 are held, and the free weights
of each group share one multiplier for its mean. The face solve eliminates
the free weights through the diagonal. The rest is one square system of
2 * (d + 1) unknowns per shared class, for its class rows and its two
multipliers, and one d x d system for the marginal rows that couple the
classes. A step therefore costs O(n * d^2) and forms no r x r or n x n
matrix.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import _freeze
from .mmd import _class_rule

# solve_qp's cap on active-set steps
MAX_STEPS = 500


@dataclass(frozen=True)
class LandmarkWeights:
    """Per-sample weights for both domains, finite entries in [0, 1]."""

    alpha: np.ndarray
    beta: np.ndarray
    delta: float

    def __post_init__(self):
        alpha, beta = _freeze(self.alpha).ravel(), _freeze(self.beta).ravel()
        for name, w in (("alpha", alpha), ("beta", beta)):
            if not np.isfinite(w).all():
                raise ValueError(f"{name} entries must be finite")
            if w.size and (w.min() < -1e-12 or w.max() > 1.0 + 1e-12):
                raise ValueError(f"{name} entries must lie in [0, 1]")
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


class _FaceMeta(NamedTuple):
    """Per-instance constants of `_face_min`, padded to the largest free group."""

    dinv: np.ndarray    # 1 / diagonal of Bq on the free groups' coordinates, 0 where it is 0
    zero: np.ndarray    # free groups' coordinates whose diagonal is 0
    pad: np.ndarray     # each free group's positions in `act`, padded with act.size
    Y: np.ndarray       # per free group: class rows, ones, signed marginal rows
    held: np.ndarray    # marginal rows times the pinned weights
    omega: np.ndarray   # per shared class: the inverse cross weights on its class rows
    dc: int             # class rows per shared class


@dataclass(frozen=True)
class QpInstance:
    """Quadratic program data in the module's factored form, plus the
    per-class bookkeeping. The dense `Bq`, `K_ss`, `K_uu` and `K_su` are
    built lazily for inspection and tests; the solver never touches them.

    The rows with cross weight 1 are the marginal rows and come first. The
    others hold d rows per class present in both domains, in class order,
    each zero outside that class's samples.

    `groups` lists (global indices, free) per class and domain, where pinned
    groups (class in one domain only) are not free. The free groups come in
    pairs, source then target of one shared class.
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

    @cached_property
    def _face(self):
        """Constants of `_face_min`, built on first use."""
        act, first = self._meta.act, self._meta.first
        diag = np.concatenate([self.diag_s, self.diag_u])[act]
        dm = int(np.count_nonzero(self.cross == 1.0))
        nb = first.size // 2
        dc = (self.cross.size - dm) // nb
        sizes = np.diff(np.append(first, act.size))
        pad = np.full((first.size, sizes.max()), act.size)
        pad[np.arange(pad.shape[1]) < sizes[:, None]] = np.arange(act.size)
        # each group's columns in its own domain's factor; padding reads
        # column 0, and `_face_min` gives it zero weight
        local = np.append(act - np.where(act < self.n_s, 0, self.n_s), 0)[pad]
        # per group: its class's rows, a row of ones, the marginal rows
        rows = np.hstack([dm + np.arange(nb)[:, None] * dc + np.arange(dc),
                          np.tile(np.arange(dm), (nb, 1))])
        Y = np.empty((first.size, dc + 1 + dm, pad.shape[1]))
        for side, (F, sign) in enumerate(((self.F_s, 1.0), (self.F_u, -1.0))):
            V = F[rows[:, :, None], local[side::2, None, :]]
            Y[side::2, :dc] = V[:, :dc]
            Y[side::2, dc + 1:] = sign * V[:, dc:]
        Y[:, dc] = 1.0
        pinned = np.full(self.n_s + self.n_u, self.delta)
        pinned[act] = 0.0
        held = self.F_s[:dm] @ pinned[:self.n_s] - self.F_u[:dm] @ pinned[self.n_s:]
        # a class row with cross weight c adds [[1, -c], [-c, 1]] between its
        # source and target copies; its inverse enters the class's system
        c = self.cross[dm:dm + nb * dc].reshape(nb, dc)
        k, q = np.arange(dc), dc + 1
        omega = np.zeros((nb, 2 * q, 2 * q))
        omega[:, k, k] = omega[:, q + k, q + k] = 1.0 / (1.0 - c * c)
        omega[:, k, q + k] = omega[:, q + k, k] = c / (1.0 - c * c)
        return _FaceMeta(
            dinv=np.divide(1.0, diag, out=np.zeros_like(diag), where=diag > 0.0),
            zero=diag == 0.0, pad=pad, Y=Y, held=held, omega=omega, dc=dc,
        )


def build_qp(Z_s, Z_u, labels_s, pseudo_labels_u, delta, num_classes=None) -> QpInstance:
    """Factored coefficient matrices of the weight subproblem from embedded data.

    1/2 z^T Bq z equals `mmd.mmd_value`'s E_MG + E_CD at the same weights,
    embeddings and labels, and Bq is E's Hessian: with the source's counts N
    from `mmd._class_rule`, row block j of F_s is sqrt(2) Z_s / (delta N_j)
    and diag_s holds 2 |z_i|^2 / (delta^2 n_c), by the constants the `mmd`
    module docstring states; F_u and diag_u likewise. A class in neither
    domain, such as one only the labeled targets hold, adds no group.
    """
    Z_s = np.asarray(Z_s, dtype=np.float64)
    Z_u = np.asarray(Z_u, dtype=np.float64)
    labels_s = np.asarray(labels_s, dtype=np.int64).ravel()
    labels_u = np.asarray(pseudo_labels_u, dtype=np.int64).ravel()
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    n_s, n_u = Z_s.shape[1], Z_u.shape[1]
    if labels_s.size != n_s or labels_u.size != n_u:
        raise ValueError("label vectors must match the sample counts")
    members, counts_s, counts_u = _class_rule(labels_s, labels_u, num_classes)

    scale = np.sqrt(2.0) / delta
    F, diag = [], []
    for Z, N in ((Z_s, counts_s), (Z_u, counts_u)):
        # one row block per column of N, so rows of zeros off each class
        F.append(((scale / N.T)[:, None, :] * Z).reshape(-1, Z.shape[1]))
        spread = N[:, 1:].min(axis=1, initial=np.inf)
        diag.append(2.0 * np.einsum("ij,ij->j", Z, Z) / (delta**2 * spread))
    groups = tuple((offset + idx, bool(si.size and ui.size)) for si, ui in members
                   for offset, idx in ((0, si), (n_s, ui)) if idx.size)
    cross = np.where(np.arange(F[0].shape[0]) < Z_s.shape[0], 1.0, 2.0)
    return QpInstance(F_s=F[0], F_u=F[1], cross=cross, diag_s=diag[0], diag_u=diag[1],
                      delta=delta, groups=groups)


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


def _project(z, qp: QpInstance):
    """Project onto the feasible polytope, every group in one pass.

    sum(clip(x + tau, 0, 1)) is piecewise linear in the group's dual shift
    tau, with breakpoints at -x_i (a coordinate starts rising) and 1 - x_i
    (it saturates). One segmented sorted sweep over the breakpoints locates
    the crossing segment of every group, so the result is that of per-group
    bisection without the iteration loop.
    """
    meta = qp._meta
    act, gid, targets = meta.act, meta.gid, meta.targets
    out = z.copy()
    if meta.pinned.size:
        out[meta.pinned] = qp.delta
    if act.size == 0:
        return out
    if not 0.0 < qp.delta < 1.0:
        out[act] = min(max(qp.delta, 0.0), 1.0)
        return out
    x = z[act]
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
    return out


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

    `solve_qp` starts here: pseudo labels move between iterations, so the
    previous weights may violate the new per-class means.
    """
    z = _project(weights.stacked(), qp)
    return LandmarkWeights(z[: qp.n_s], z[qp.n_s:], qp.delta)


def _face_min(qp: QpInstance, low, high):
    """Minimize E over one face of the polytope.

    `low` and `high` mark the free groups' coordinates held at 0 and at 1;
    the rest of each free group is free and keeps the group's sum, and
    pinned weights stay at delta. Returns the face's minimizer and each free
    group's multiplier mu, with (Bq z)_i = mu at every free weight i.

    Bq restricted to the free weights is D + V^T Omega V, D its diagonal
    and V the class rows and the signed marginal rows. With the mean
    constraints as rows of V at Omega = 0, the free weights are
    z = -D^-1 V^T y for the y that solves (V D^-1 V^T + Omega) y = b. That
    system is block diagonal by shared class except for the marginal rows,
    so it is solved through its Schur complement on them. A free weight
    with diagonal 0 has a zero row in Bq: its group's multiplier is 0, and
    such weights share what the group's other free weights leave of its sum.
    """
    meta, face = qp._meta, qp._face
    act, gid, first = meta.act, meta.gid, meta.first
    dc, q, Y = face.dc, face.dc + 1, face.Y
    free = ~(low | high)
    # per free group: the inverse diagonal of its free weights, the values
    # of its held ones
    dv = np.append(np.where(free, face.dinv, 0.0), 0.0)[face.pad]
    hv = np.append(high, 0.0)[face.pad]
    G = (Y * dv[:, None, :]) @ Y.transpose(0, 2, 1)
    S = face.omega.copy()
    S[:, :q, :q] += G[0::2, :q, :q]
    S[:, q:, q:] += G[1::2, :q, :q]
    R = np.concatenate([G[0::2, :q, q:], G[1::2, :q, q:]], axis=1)
    T = np.eye(Y.shape[1] - q) + G[:, q:, q:].sum(axis=0)
    b = np.einsum("gkm,gm->gk", Y, hv)
    c = face.held + b[:, q:].sum(axis=0)
    b = b[:, :q]
    b[:, dc] -= meta.targets
    b = b.reshape(S.shape[:2])
    zero = free & face.zero
    absorb = np.add.reduceat(zero, first, dtype=np.int64) > 0
    if absorb.any():
        # those groups' multipliers are 0 and their sums are left free
        j, e = np.divmod(np.flatnonzero(absorb), 2)
        e = e * q + dc
        S[j, e, :] = S[j, :, e] = 0.0
        S[j, e, e] = 1.0
        R[j, e] = b[j, e] = 0.0

    X = np.linalg.solve(S, np.concatenate([R, b[..., None]], axis=2))
    h = np.linalg.solve(T - np.einsum("jka,jkb->ab", R, X[..., :-1]),
                        c - np.einsum("jka,jk->a", R, X[..., -1]))
    y = (X[..., -1] - X[..., :-1] @ h).reshape(-1, q)
    x = np.zeros(act.size + 1)
    x[face.pad] = dv * np.einsum("gkm,gk->gm", Y, np.hstack([y, np.tile(h, (y.shape[0], 1))]))
    x = high - x[:-1]
    if absorb.any():
        left = meta.targets - np.add.reduceat(np.where(zero, 0.0, x), first)
        x[zero] = (left / np.maximum(np.add.reduceat(zero, first, dtype=np.int64), 1))[gid[zero]]
    z = np.full(qp.n_s + qp.n_u, qp.delta)
    z[act] = x
    return z, -y[:, dc]


def _keep_one_free(low, high, first):
    """Free the first weight of every group that has none free."""
    bare = first[np.add.reduceat(~(low | high), first, dtype=np.int64) == 0]
    low[bare] = high[bare] = False
    return low, high


def solve_qp(qp: QpInstance, init: LandmarkWeights | None = None, full_output=False):
    """Minimize E = 1/2 z^T Bq z over the feasible weight polytope, exactly.

    Primal-dual active-set steps (Hintermüller, Ito & Kunisch, SIAM J.
    Optim. 2002) start from the bounds that the projection of `init` onto
    the polytope touches. `init` is any weights in [0, 1] (default: the
    uniform feasible point), such as the previous solve's answer after the
    pseudo labels moved. Each step minimizes E on the current face
    (`_face_min`), then holds at a bound every free weight that left [0, 1]
    and frees every held weight whose reduced gradient points inward. When
    a pair of active sets repeats, or a step would leave a group without a
    free weight, monotone primal active-set steps (Nocedal & Wright,
    Numerical Optimization, 16.3) finish from the projection of the
    current point: a ratio test holds one more weight at a bound, or a
    feasible face minimizer frees the held weight whose reduced gradient
    most violates its sign.

    `converged` reports that the KKT conditions hold, within MAX_STEPS face
    solves; `iterations` counts them, and `objective_trace` holds E at the
    projected init and at each feasible step point that did not raise it.
    Uses only the instance's factored products. The returned point is the
    last of those points, or the KKT point once converged, so it is always
    feasible and its E never exceeds that of the projected init.
    Deterministic given init.
    """
    if init is None:
        init = uniform_weights(qp.n_s, qp.n_u, qp.delta)
    if init.delta != qp.delta:
        raise ValueError(f"init has delta {init.delta} but the QP has delta {qp.delta}")
    if (init.alpha.size, init.beta.size) != (qp.n_s, qp.n_u):
        raise ValueError("init size does not match the QP")
    z = project_feasible(qp, init).stacked()
    f = 0.5 * float(z @ qp.matvec(z))
    trace = [f]
    meta = qp._meta
    # delta 1 pins every weight
    if meta.act.size == 0 or not 0.0 < qp.delta < 1.0:
        return _finalize(qp, z, trace, True, 0, full_output)

    act, gid, first = meta.act, meta.gid, meta.first
    low, high = _keep_one_free(z[act] <= 0.0, z[act] >= 1.0, first)
    seen = {(low.tobytes(), high.tobytes())}
    best, f_best = z, f
    monotone, released, converged = False, None, False
    for iters in range(1, MAX_STEPS + 1):
        z_face, mu = _face_min(qp, low, high)
        if monotone:
            z, f, released, converged = _monotone_step(qp, z, f, z_face, mu, low, high, released)
            feasible = True
        else:
            free = ~(low | high)
            g = qp.matvec(z_face)
            x, lam = z_face[act], g[act] - mu[gid]
            new_low = np.where(free, x < 0.0, low & (lam >= 0.0))
            new_high = np.where(free, x > 1.0, high & (lam <= 0.0))
            z, f = z_face, 0.5 * float(z_face @ g)
            converged = np.array_equal(new_low, low) and np.array_equal(new_high, high)
            feasible = not (free & (new_low | new_high)).any()
        if converged or (feasible and f <= f_best):
            best, f_best = z, f
            trace.append(f)
        if converged:
            break
        if monotone:
            continue
        key = (new_low.tobytes(), new_high.tobytes())
        if key not in seen and np.add.reduceat(~(new_low | new_high), first, dtype=np.int64).all():
            seen.add(key)
            low, high = new_low, new_high
        else:
            monotone = True
            z = _project(z, qp)
            f = 0.5 * float(z @ qp.matvec(z))
            low, high = _keep_one_free(z[act] <= 0.0, z[act] >= 1.0, first)
    if not converged:
        warnings.warn(f"weight solver hit its {MAX_STEPS}-step cap; "
                      "returning best feasible point")
    return _finalize(qp, best, trace, converged, iters, full_output)


def _monotone_step(qp, z, f, z_face, mu, low, high, released):
    """One primal active-set step from the feasible z, with E = f, toward
    the minimizer z_face of its face.

    A ratio test stops the step at the first bound a free weight reaches and
    holds that weight there; a feasible z_face instead frees the held weight
    whose reduced gradient most violates its sign. Updates `low` and `high`
    in place. Returns the new point, its E, the freed weight with the sign
    its next move must have, and whether z_face satisfies the KKT
    conditions.
    """
    meta = qp._meta
    act, gid, first = meta.act, meta.gid, meta.first
    free = ~(low | high)
    x = z[act]
    p = z_face[act] - x
    # a freed weight that moves back out through its bound was freed on a
    # reduced gradient at rounding level
    if released is not None and p[released[0]] * released[1] <= 0.0:
        return z, f, None, True
    # the only free weight of a group is fixed by its mean, so cannot stop the step
    movable = free & (np.add.reduceat(free, first, dtype=np.int64)[gid] > 1) & (p != 0.0)
    ratio = np.full(p.size, np.inf)
    ratio[movable] = np.where(p[movable] < 0.0, -x[movable], 1.0 - x[movable]) / p[movable]
    k = int(np.argmin(ratio))
    if ratio[k] < 1.0:
        x = np.clip(x + ratio[k] * p, 0.0, 1.0)
        x[k] = float(p[k] > 0.0)
        low[k], high[k] = p[k] < 0.0, p[k] > 0.0
        z = z.copy()
        z[act] = x
        return z, 0.5 * float(z @ qp.matvec(z)), None, False
    g = qp.matvec(z_face)
    lam = g[act] - mu[gid]
    viol = np.where(low, -lam, np.where(high, lam, 0.0))
    k = int(np.argmax(viol))
    if viol[k] <= 0.0:
        return z_face, 0.5 * float(z_face @ g), None, True
    released = (k, 1.0 if low[k] else -1.0)
    low[k] = high[k] = False
    return z_face, 0.5 * float(z_face @ g), released, False


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

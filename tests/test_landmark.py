import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpjt import landmark
from lpjt.landmark import (
    LandmarkWeights,
    QpInstance,
    build_qp,
    check_feasible,
    project_box_mean,
    project_feasible,
    solve_qp,
    uniform_weights,
)
from lpjt.mmd import mmd_value


def random_qp(seed, n_s=8, n_u=6, C=2, d=2, delta=0.5):
    rng = np.random.default_rng(seed)
    Z_s = rng.normal(size=(d, n_s))
    Z_u = rng.normal(size=(d, n_u))
    ys = rng.integers(0, C, n_s); ys[:C] = np.arange(C)
    yu = rng.integers(0, C, n_u); yu[:C] = np.arange(C)
    return build_qp(Z_s, Z_u, ys, yu, delta, C), Z_s, Z_u, ys, yu


class TestProjectBoxMean:
    def test_feasible_point_fixed(self):
        x = np.array([0.2, 0.8, 0.5])
        assert_allclose(project_box_mean(x, 0.5), x, atol=1e-12)

    def test_mean_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(0.5, 2.0, size=rng.integers(1, 9))
            v = project_box_mean(x, 0.3)
            assert abs(v.mean() - 0.3) <= 1e-10
            assert v.min() >= 0.0 and v.max() <= 1.0

    def test_extreme_deltas(self):
        x = np.array([0.4, 0.6])
        assert_allclose(project_box_mean(x, 0.0), [0.0, 0.0])
        assert_allclose(project_box_mean(x, 1.0), [1.0, 1.0])


class TestBuildQp:
    def test_single_sample_single_class(self):
        qp, *_ = random_qp(0, n_s=1, n_u=1, C=1)
        assert [(idx.tolist(), free) for idx, free in qp.groups] == [([0], True), ([1], True)]

    def test_orthogonal_embeddings_zero_cross_block(self):
        Z_s = np.array([[1.0, 1.0], [0.0, 0.0]])
        Z_u = np.array([[0.0, 0.0], [1.0, 1.0]])
        qp = build_qp(Z_s, Z_u, [0, 1], [0, 1], 0.5, 2)
        assert np.all(qp.Bq[:2, 2:] == 0.0)

    def test_lower_right_block_zero(self):
        qp, *_ = random_qp(1)
        assert np.all(qp.Bq[qp.n_s:, qp.n_s:] == 0.0)

    def test_class_absent_everywhere_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="absent"):
            build_qp(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)),
                     [0, 0, 0], [0, 0, 0], 0.5, num_classes=2)

    @pytest.mark.parametrize("seed", range(5))
    def test_alpha_gradient_matches_finite_differences(self, seed):
        qp, Z_s, Z_u, ys, yu = random_qp(seed, n_s=6, n_u=5)
        rng = np.random.default_rng(seed + 10)
        delta = 0.5
        alpha = rng.uniform(0.1, 0.9, 6)
        beta = rng.uniform(0.1, 0.9, 5)
        d = Z_s.shape[0]
        A = np.eye(d)   # embeddings are already projected
        B = np.eye(d)

        def total(a):
            e_mg, e_cd = mmd_value(Z_s, Z_u, A, B, a, beta, ys, yu, delta)
            return e_mg + e_cd

        grad = qp.K_ss @ alpha - qp.K_su @ beta
        h = 1e-6
        for i in range(6):
            e = np.zeros(6); e[i] = h
            fd = (total(alpha + e) - total(alpha - e)) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(fd))


def dense_blocks(Z_s, Z_u, ys, yu, delta, C):
    """K_ss and K_su from the explicit per-class formulas."""
    n_s, n_u = Z_s.shape[1], Z_u.shape[1]
    Gs = Z_s.T @ Z_s
    Gsu = Z_s.T @ Z_u
    K_ss = 2.0 * Gs / (delta**2 * n_s**2)
    K_su = 2.0 * Gsu / (delta**2 * n_s * n_u)
    for c in range(C):
        si = np.flatnonzero(ys == c)
        ui = np.flatnonzero(yu == c)
        if si.size and ui.size:
            K_ss[np.ix_(si, si)] += 2.0 * Gs[np.ix_(si, si)] / (delta**2 * si.size**2)
            K_ss[si, si] += 2.0 * Gs[si, si] / (delta**2 * si.size)
            K_su[np.ix_(si, ui)] += 4.0 * Gsu[np.ix_(si, ui)] / (delta**2 * si.size * ui.size)
    return K_ss, K_su


class TestFactoredOperators:
    @pytest.mark.parametrize("seed", range(20))
    def test_products_match_dense_formulas(self, seed):
        rng = np.random.default_rng(seed)
        C = int(rng.integers(2, 5))
        n_s, n_u = int(rng.integers(C + 1, 40)), int(rng.integers(C + 1, 40))
        d = int(rng.integers(1, 5))
        ys = rng.integers(0, C, n_s); ys[:C] = np.arange(C)
        yu = rng.integers(0, C, n_u); yu[:C] = np.arange(C)
        yu[yu == C - 1] = 0     # the last class is present in the source only
        delta = float(rng.choice([0.3, 0.5, 0.8]))
        Z_s = rng.normal(size=(d, n_s))
        Z_u = rng.normal(size=(d, n_u))
        qp = build_qp(Z_s, Z_u, ys, yu, delta, C)
        K_ss, K_su = dense_blocks(Z_s, Z_u, ys, yu, delta, C)
        a, b = rng.uniform(0, 1, n_s), rng.uniform(0, 1, n_u)
        z = np.concatenate([a, b])

        def close(got, want):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        close(qp.kss_matvec(a), K_ss @ a)
        close(qp.ksu_matvec(b), K_su @ b)
        close(qp.ksu_rmatvec(a), K_su.T @ a)
        close(qp.matvec(z), np.concatenate([K_ss @ a - K_su @ b, -K_su.T @ a]))

        solve_qp(qp, full_output=True)
        assert not {"Bq", "K_ss", "K_su"} & set(vars(qp))


def plain_alpha_pass(qp, z, lin, step):
    """Projected gradient on the alpha subproblem, without momentum."""
    n_s = qp.n_s
    a = z[:n_s].copy()
    f_a = 0.5 * a @ qp.kss_matvec(a) + lin @ a
    for _ in range(100):
        full = z.copy()
        full[:n_s] = a - step * (qp.kss_matvec(a) + lin)
        a_new = landmark._project(full, qp, source_only=True)[0][:n_s]
        f_new = 0.5 * a_new @ qp.kss_matvec(a_new) + lin @ a_new
        if f_new > f_a - 1e-12 * max(abs(f_a), 1e-30):
            return a_new if f_new < f_a else a
        a, f_a = a_new, f_new
    return a


def alpha_pass_instance(seed):
    """One of the 20 fit-sized instances of TestAcceleratedAlphaPass."""
    rng = np.random.default_rng(seed + 100)
    C = int(rng.integers(2, 5))
    qp, *_ = random_qp(seed + 100, n_s=int(rng.integers(100, 160)),
                       n_u=int(rng.integers(100, 160)), C=C,
                       d=int(rng.integers(1, 4)))
    return qp


class TestAcceleratedAlphaPass:
    @pytest.mark.parametrize("seed", range(20))
    def test_reaches_plain_gradient_objective(self, seed, monkeypatch):
        qp = alpha_pass_instance(seed)
        _, fast = solve_qp(qp, full_output=True)
        monkeypatch.setattr(landmark, "_alpha_pass", plain_alpha_pass)
        _, ref = solve_qp(qp, full_output=True)
        f_fast, f_ref = fast["objective_trace"][-1], ref["objective_trace"][-1]
        assert f_fast <= f_ref + 1e-9 * abs(f_ref)


class TestSolveQp:
    def test_one_sample_per_class_fully_determined(self):
        qp, *_ = random_qp(4, n_s=2, n_u=2, C=2)
        w = solve_qp(qp)
        assert_allclose(w.alpha, [0.5, 0.5], atol=1e-8)
        assert_allclose(w.beta, [0.5, 0.5], atol=1e-8)

    def test_identity_quadratic_symmetric_optimum(self):
        # 1/2 (a1^2 + a2^2) s.t. mean = 0.5: optimum at (0.5, 0.5)
        qp = QpInstance(
            F_s=np.zeros((1, 2)),
            F_u=np.zeros((1, 1)),
            diag_s=np.array([1.0, 1.0]),
            delta=0.5,
            groups=((np.array([0, 1]), True), (np.array([2]), True)),
        )
        w = solve_qp(qp)
        assert_allclose(w.alpha, [0.5, 0.5], atol=1e-7)

    def test_delta_one_returns_all_ones(self):
        qp, _, _, ys, yu = random_qp(5, delta=1.0)
        w = solve_qp(qp)
        assert np.all(w.alpha == 1.0) and np.all(w.beta == 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_always_feasible(self, seed):
        qp, _, _, ys, yu = random_qp(seed, n_s=10, n_u=9, C=3)
        w = solve_qp(qp)
        assert check_feasible(w, ys, yu)

    def test_objective_never_worse_than_init(self):
        qp, *_ = random_qp(7)
        init = uniform_weights(qp.n_s, qp.n_u, qp.delta)
        w, info = solve_qp(qp, init, full_output=True)
        f0 = 0.5 * init.stacked() @ qp.Bq @ init.stacked()
        f1 = 0.5 * w.stacked() @ qp.Bq @ w.stacked()
        assert f1 <= f0 + 1e-10

    def test_trace_monotone_nonincreasing(self):
        qp, *_ = random_qp(8, n_s=12, n_u=10, C=3)
        _, info = solve_qp(qp, full_output=True)
        tr = info["objective_trace"]
        assert np.all(np.diff(tr) <= 1e-12)

    def test_deterministic(self):
        qp, *_ = random_qp(9)
        w1 = solve_qp(qp)
        w2 = solve_qp(qp)
        assert np.array_equal(w1.alpha, w2.alpha)
        assert np.array_equal(w1.beta, w2.beta)

    @pytest.mark.parametrize("seed", range(4))
    def test_joint_rescaling_keeps_argmin(self, seed):
        _, Z_s, Z_u, ys, yu = random_qp(seed + 20)
        qp1 = build_qp(Z_s, Z_u, ys, yu, 0.5, 2)
        qp2 = build_qp(3.0 * Z_s, 3.0 * Z_u, ys, yu, 0.5, 2)
        w1, i1 = solve_qp(qp1, full_output=True)
        w2, i2 = solve_qp(qp2, full_output=True)
        assert np.max(np.abs(w1.alpha - w2.alpha)) <= 1e-6
        assert np.max(np.abs(w1.beta - w2.beta)) <= 1e-6
        assert_allclose(i2["objective_trace"][-1], 9.0 * i1["objective_trace"][-1],
                        rtol=1e-6, atol=1e-12)

    def test_infeasible_init_rejected(self):
        qp, *_ = random_qp(11)
        bad = LandmarkWeights(np.ones(qp.n_s), np.zeros(qp.n_u), qp.delta)
        with pytest.raises(ValueError, match="feasible"):
            solve_qp(qp, bad)

    def test_pinned_class_kept_at_delta(self):
        rng = np.random.default_rng(12)
        # class 1 exists only in the source
        Z_s = rng.normal(size=(2, 4))
        Z_u = rng.normal(size=(2, 3))
        qp = build_qp(Z_s, Z_u, [0, 0, 1, 1], [0, 0, 0], 0.5, 2)
        w = solve_qp(qp)
        assert_allclose(w.alpha[2:], 0.5)


def grid_instance(seed):
    """One of the 6 small instances TestGridSearchOracle enumerates, with
    its per-group sizes."""
    rng = np.random.default_rng(seed)
    sizes_s = [int(rng.integers(1, 4)), int(rng.integers(1, 3))]
    sizes_u = [int(rng.integers(1, 3)), int(rng.integers(1, 3))]
    ys = np.repeat([0, 1], sizes_s)
    yu = np.repeat([0, 1], sizes_u)
    Z_s = rng.normal(size=(2, ys.size))
    Z_u = rng.normal(size=(2, yu.size))
    return build_qp(Z_s, Z_u, ys, yu, 0.5, 2), sizes_s, sizes_u


class TestGridSearchOracle:
    def lattice(self, m, delta, step=0.05):
        """All step-quantized points of [0,1]^m with mean delta."""
        ticks = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
        total = round(delta * m / step)
        pts = []
        for combo in itertools.product(range(len(ticks)), repeat=m):
            if sum(combo) == total:
                pts.append([ticks[i] for i in combo])
        return np.asarray(pts)

    def _stack_grids(self, grids):
        """Cartesian product of per-group lattices, one row per combination."""
        out = grids[0]
        for g in grids[1:]:
            out = np.hstack([
                np.repeat(out, g.shape[0], axis=0),
                np.tile(g, (out.shape[0], 1)),
            ])
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_solver_matches_lattice_optimum(self, seed):
        qp, sizes_s, sizes_u = grid_instance(seed)
        delta = qp.delta
        w = solve_qp(qp)
        z = w.stacked()
        solver_obj = 0.5 * z @ qp.Bq @ z

        A_grid = self._stack_grids([self.lattice(m, delta) for m in sizes_s])
        B_grid = self._stack_grids([self.lattice(m, delta) for m in sizes_u])
        quad = 0.5 * np.einsum("ij,jk,ik->i", A_grid, qp.K_ss, A_grid)
        cross = A_grid @ qp.K_su @ B_grid.T
        best = float((quad[:, None] - cross).min())
        assert solver_obj <= best + 1e-4


def six_round_polish(qp, z, tol=1e-10):
    """The alternating passes capped at 6 rounds, as the burst loop ran them."""
    n_s = qp.n_s
    L = qp.norm_kss
    f = landmark._objective(qp, z)
    for _ in range(6):
        improved = False
        coef = -qp.ksu_rmatvec(z[:n_s])
        cand = z.copy()
        for idx, both in qp.groups:
            if both and idx[0] >= n_s:
                cand[idx] = landmark._greedy_linear_min(coef[idx - n_s], qp.delta, idx.size)
        f_cand = landmark._objective(qp, cand)
        if f_cand < f - tol * max(abs(f), 1e-30):
            z, f, improved = cand, f_cand, True
        if L > 0.0:
            cand = z.copy()
            cand[:n_s] = landmark._alpha_pass(qp, z, -qp.ksu_matvec(z[n_s:]), 1.0 / L)
            f_cand = landmark._objective(qp, cand)
            if f_cand < f - tol * max(abs(f), 1e-30):
                z, f, improved = cand, f_cand, True
        if not improved:
            break
    return z, f


def burst_loop_solve_qp(qp, max_iter=500, tol=1e-9):
    """The solver with the outer burst loop: bursts of up to 100 projected-
    gradient steps from the uniform point, each followed by `six_round_polish`,
    until a burst stalls and its passes do not improve. The reference for
    the one-burst `solve_qp`; returns the final objective."""
    z = uniform_weights(qp.n_s, qp.n_u, qp.delta).stacked()
    f = landmark._objective(qp, z)
    iters = 0
    while iters < max_iter:
        burst_end = min(iters + 100, max_iter)
        stalled = False
        g = qp.matvec(z)
        while iters < burst_end:
            iters += 1
            t = 1.0 / qp.norm_bq
            for _ in range(40):
                z_new, _ = landmark._project(z - t * g, qp)
                step_vec = z_new - z
                g_new = qp.matvec(z_new)
                f_new = 0.5 * float(z_new @ g_new)
                slack = 1e-12 * max(abs(f), 1.0e-30)
                if f_new <= f + g @ step_vec + step_vec @ step_vec / (2.0 * t) + slack:
                    break
                t /= 2.0
            else:
                stalled = True
                break
            rel_drop = (f - f_new) / max(abs(f), 1e-30)
            z, f, g = z_new, f_new, g_new
            if rel_drop < tol:
                stalled = True
                break
        f_before = f
        z, f = six_round_polish(qp, z)
        if stalled and f >= f_before - tol * max(abs(f_before), 1e-30):
            break
    return f


class TestOneBurstSolver:
    """One burst, then alternating passes to a fixed point, against the
    burst loop it replaced."""

    @pytest.mark.parametrize("family,seed",
                             [("alpha_pass", s) for s in range(20)]
                             + [("grid", s) for s in range(6)])
    def test_matches_burst_loop_reference(self, family, seed):
        qp = alpha_pass_instance(seed) if family == "alpha_pass" else grid_instance(seed)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, info = solve_qp(qp, full_output=True)
        f_new, f_ref = info["objective_trace"][-1], burst_loop_solve_qp(qp)
        assert f_new <= f_ref + 1e-9 * abs(f_ref)
        assert info["iterations"] <= 100
        assert info["converged"]

    @pytest.mark.parametrize("family,seed",
                             [("alpha_pass", s) for s in range(20)]
                             + [("grid", s) for s in range(6)])
    def test_warm_projections_match_cold_solve(self, family, seed, monkeypatch):
        qp = alpha_pass_instance(seed) if family == "alpha_pass" else grid_instance(seed)[0]
        _, warm = solve_qp(qp, full_output=True)
        cold = landmark._project
        monkeypatch.setattr(landmark, "_project",
                            lambda z, qp, source_only=False, shift=None:
                            cold(z, qp, source_only))
        _, ref = solve_qp(qp, full_output=True)
        assert warm["iterations"] == ref["iterations"]
        tw, tr = warm["objective_trace"], ref["objective_trace"]
        assert tw.shape == tr.shape
        # relative to the trace's scale: traces that cross zero have entries
        # near 0 whose own relative error means nothing
        assert np.max(np.abs(tw - tr)) <= 1e-12 * np.max(np.abs(tr))

    def test_round_cap_warns_and_reports_not_converged(self, monkeypatch):
        qp = alpha_pass_instance(0)
        _, info = solve_qp(qp, full_output=True)
        # the passes improved on the burst, so the fixed point took >= 2 rounds
        assert len(info["objective_trace"]) > info["iterations"] + 1
        monkeypatch.setattr(landmark, "POLISH_ROUNDS", 1)
        with pytest.warns(UserWarning, match="passes hit their 1-round cap"):
            _, capped = solve_qp(qp, full_output=True)
        assert not capped["converged"]
        # the capped run is the uncapped one cut after its first round
        tr = capped["objective_trace"]
        assert np.array_equal(tr, info["objective_trace"][: tr.size])


class TestProjectFeasible:
    def test_projected_point_is_feasible(self):
        qp, _, _, ys, yu = random_qp(13)
        rng = np.random.default_rng(14)
        rough = LandmarkWeights(
            rng.uniform(0, 1, qp.n_s), rng.uniform(0, 1, qp.n_u), qp.delta
        )
        w = project_feasible(qp, rough)
        assert check_feasible(w, ys, yu)

    @pytest.mark.parametrize("seed", range(12))
    def test_sweep_projection_matches_bisection_reference(self, seed):
        rng = np.random.default_rng(seed)
        C = int(rng.integers(1, 4))
        n_s = int(rng.integers(C, 15))
        n_u = int(rng.integers(C, 15))
        ys = rng.integers(0, C, n_s); ys[:C] = np.arange(C)
        yu = rng.integers(0, C, n_u); yu[:C] = np.arange(C)
        delta = float(rng.choice([0.2, 0.5, 0.8]))
        qp = build_qp(rng.normal(size=(2, n_s)), rng.normal(size=(2, n_u)),
                      ys, yu, delta, C)
        rough = LandmarkWeights(
            np.clip(rng.normal(0.5, 1.5, n_s), 0, 1),
            np.clip(rng.normal(0.5, 1.5, n_u), 0, 1),
            delta,
        )
        fast = project_feasible(qp, rough).stacked()
        slow = rough.stacked().copy()
        for idx, both in qp.groups:
            if both:
                slow[idx] = project_box_mean(slow[idx], delta)
            else:
                slow[idx] = delta
        assert np.max(np.abs(fast - slow)) <= 1e-9


class TestNonFiniteWeights:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects(self, bad):
        with pytest.raises(ValueError, match="alpha entries must be finite"):
            LandmarkWeights(np.array([bad, 0.5]), np.array([0.5, 0.5]), 0.5)
        with pytest.raises(ValueError, match="beta entries must be finite"):
            LandmarkWeights(np.array([0.5, 0.5]), np.array([0.5, bad]), 0.5)

    def test_check_feasible_rejects_nan(self):
        # NaN fails every comparison, so it would pass the bound and mean checks
        ok = SimpleNamespace(alpha=np.array([0.5, 0.5]), beta=np.array([0.5, 0.5]), delta=0.5)
        assert check_feasible(ok, [0, 0], [0, 0])
        for name in ("alpha", "beta"):
            bad = SimpleNamespace(**vars(ok))
            setattr(bad, name, np.array([np.nan, 0.5]))
            assert not check_feasible(bad, [0, 0], [0, 0])
            assert not check_feasible(bad, [0, 1], [2, 3])    # no shared class


def lexsort_project(z, qp, source_only=False):
    """`_project` with one np.lexsort over (group, breakpoint), ties kept in
    index order: the reference for the two-pass sort."""
    meta = qp._meta_source if source_only else qp._meta_all
    act, gid, targets = meta.act, meta.gid, meta.targets
    out = z.copy()
    out[meta.pinned] = qp.delta
    if act.size == 0:
        return out
    x = z[act]
    bp = np.concatenate([-x, 1.0 - x])
    slope_delta = np.concatenate([np.ones(x.size), -np.ones(x.size)])
    order = np.lexsort((bp, np.concatenate([gid, gid])))
    bp, slope_delta = bp[order], slope_delta[order]
    counts = 2 * np.bincount(gid, minlength=targets.size)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    cums = np.cumsum(slope_delta)
    slope_after = cums - np.repeat(cums[starts] - slope_delta[starts], counts)
    contrib = np.empty_like(bp)
    contrib[1:] = slope_after[:-1] * (bp[1:] - bp[:-1])
    contrib[starts] = 0.0
    v_at = np.cumsum(contrib)
    v_at -= np.repeat(v_at[starts], counts)
    below = np.where(v_at <= np.repeat(targets, counts), np.arange(bp.size), -1)
    k = np.maximum.reduceat(below, starts)
    slope_k = slope_after[k]
    tau = bp[k] + np.where(slope_k > 0, targets - v_at[k], 0.0) / np.where(
        slope_k > 0, slope_k, 1.0
    )
    v = np.clip(x + tau[gid], 0.0, 1.0)
    interior = (v > 0.0) & (v < 1.0)
    sums = np.bincount(gid, weights=v, minlength=targets.size)
    n_int = np.bincount(gid[interior], minlength=targets.size)
    corr = np.where(n_int > 0, (targets - sums) / np.maximum(n_int, 1), 0.0)
    v[interior] += corr[gid[interior]]
    out[act] = np.clip(v, 0.0, 1.0)
    return out


class TestProjectSort:
    """The argsort-then-stable-group-sort in `_project` is bit-identical to
    a lexsort, including on inputs whose breakpoints tie."""

    @staticmethod
    def instance(rng, C, n_max, one_sided=False):
        n_s, n_u = int(rng.integers(C, n_max)), int(rng.integers(C, n_max))
        ys = rng.integers(0, C, n_s); ys[:C] = np.arange(C)
        yu = rng.integers(0, C, n_u); yu[:C] = np.arange(C)
        if one_sided:
            yu[yu == C - 1] = 0     # one class pinned in the source
        delta = float(rng.choice([0.25, 0.5, 0.75]))
        return build_qp(rng.normal(size=(1, n_s)), rng.normal(size=(1, n_u)),
                        ys, yu, delta, C)

    @staticmethod
    def check(qp, z):
        for source_only in (False, True):
            got, _ = landmark._project(z, qp, source_only)
            assert np.array_equal(got, lexsort_project(z, qp, source_only))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        qp = self.instance(rng, int(rng.integers(2, 6)), 60, one_sided=seed % 2 == 1)
        for _ in range(5):
            self.check(qp, rng.normal(0.5, 1.5, qp.n_s + qp.n_u))

    @pytest.mark.parametrize("seed", range(10))
    def test_quarter_grid_hits_bounds(self, seed):
        rng = np.random.default_rng(seed + 50)
        qp = self.instance(rng, int(rng.integers(1, 5)), 40, one_sided=seed % 2 == 1)
        for _ in range(5):
            self.check(qp, rng.integers(-4, 9, qp.n_s + qp.n_u) / 4.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_more_than_256_groups(self, seed):
        rng = np.random.default_rng(seed + 90)
        qp = self.instance(rng, 140, 420)
        assert qp._meta_all.ev_gid.dtype == np.uint16
        self.check(qp, rng.normal(0.5, 1.5, qp.n_s + qp.n_u))
        self.check(qp, rng.integers(-4, 9, qp.n_s + qp.n_u) / 4.0)


def free_groups(qp, source_only):
    """Indices of the groups `_project` shifts: classes in both domains."""
    return [idx for idx, both in qp.groups
            if both and not (source_only and idx[0] >= qp.n_s)]


class TestWarmProjection:
    """`_project` from a carried shift: Newton steps when the active set
    settles, else the sorted sweep, bit for bit the cold result."""

    @staticmethod
    def count_sweeps(monkeypatch):
        calls = []
        sweep = landmark._sweep_shift
        monkeypatch.setattr(landmark, "_sweep_shift",
                            lambda *a: calls.append(1) or sweep(*a))
        return calls

    @staticmethod
    def check(qp, z, rng, sweeps):
        """Warm from the exact shift of z and from that of a nearby point;
        returns how many of the warm calls skipped the sweep."""
        warm = 0
        for source_only in (False, True):
            _, shift = landmark._project(z, qp, source_only)
            if shift is None:
                continue
            for near in (z, z + 1e-3 * rng.normal(size=z.size)):
                want, _ = landmark._project(near, qp, source_only)
                before = len(sweeps)
                got, _ = landmark._project(near, qp, source_only, shift=shift)
                warm += len(sweeps) == before
                assert np.max(np.abs(got - want)) <= 1e-12
                for idx in free_groups(qp, source_only):
                    assert abs(got[idx].sum() - qp.delta * idx.size) <= 1e-12
        return warm

    @pytest.mark.parametrize("seed", range(10))
    def test_random_inputs_match_sweep(self, seed, monkeypatch):
        sweeps = self.count_sweeps(monkeypatch)
        rng = np.random.default_rng(seed)
        qp = TestProjectSort.instance(rng, int(rng.integers(2, 6)), 60,
                                      one_sided=seed % 2 == 1)
        for _ in range(5):
            self.check(qp, rng.normal(0.5, 1.5, qp.n_s + qp.n_u), rng, sweeps)

    @pytest.mark.parametrize("seed", range(10))
    def test_quarter_grid_hits_bounds(self, seed, monkeypatch):
        sweeps = self.count_sweeps(monkeypatch)
        rng = np.random.default_rng(seed + 50)
        qp = TestProjectSort.instance(rng, int(rng.integers(1, 5)), 40,
                                      one_sided=seed % 2 == 1)
        for _ in range(5):
            self.check(qp, rng.integers(-4, 9, qp.n_s + qp.n_u) / 4.0, rng, sweeps)

    @pytest.mark.parametrize("seed", range(3))
    def test_more_than_256_groups(self, seed, monkeypatch):
        sweeps = self.count_sweeps(monkeypatch)
        rng = np.random.default_rng(seed + 90)
        qp = TestProjectSort.instance(rng, 140, 420)
        self.check(qp, rng.normal(0.5, 1.5, qp.n_s + qp.n_u), rng, sweeps)
        self.check(qp, rng.integers(-4, 9, qp.n_s + qp.n_u) / 4.0, rng, sweeps)

    @pytest.mark.parametrize("seed", range(5))
    def test_fit_sized_groups_skip_the_sweep(self, seed, monkeypatch):
        # classes of 100-200 samples per domain, as in the bench's fits;
        # small groups can have every coordinate at a bound, which falls back
        sweeps = self.count_sweeps(monkeypatch)
        rng = np.random.default_rng(seed + 400)
        C = int(rng.integers(2, 5))
        ys, yu = (np.repeat(np.arange(C), rng.integers(100, 200, C)) for _ in range(2))
        qp = build_qp(rng.normal(size=(1, ys.size)), rng.normal(size=(1, yu.size)),
                      ys, yu, float(rng.choice([0.25, 0.5, 0.75])), C)
        for _ in range(5):
            assert self.check(qp, rng.normal(0.5, 1.0, ys.size + yu.size), rng, sweeps) == 4

    @pytest.mark.parametrize("seed", range(6))
    def test_unsettled_shift_falls_back_to_sweep(self, seed, monkeypatch):
        sweeps = self.count_sweeps(monkeypatch)
        rng = np.random.default_rng(seed + 300)
        qp = TestProjectSort.instance(rng, int(rng.integers(2, 6)), 60,
                                      one_sided=seed % 2 == 1)
        z = rng.normal(0.5, 1.5, qp.n_s + qp.n_u)
        for source_only in (False, True):
            _, exact = landmark._project(z, qp, source_only)
            # every coordinate at 1, every one at 0, and one group at a bound
            # while the others keep their exact shift
            one_group = exact.copy()
            one_group[int(rng.integers(exact.size))] = 10.0
            for shift in (np.full(exact.size, 10.0), np.full(exact.size, -10.0), one_group):
                before = len(sweeps)
                got, _ = landmark._project(z, qp, source_only, shift=shift)
                assert len(sweeps) == before + 1
                assert np.array_equal(got, lexsort_project(z, qp, source_only))


def loop_greedy_linear_min(coef, delta, m):
    """The budget-filling loop: the reference for the vectorized greedy step."""
    budget = delta * m
    v = np.zeros(m)
    for i in np.argsort(coef, kind="stable"):
        take = min(1.0, budget)
        v[i] = take
        budget -= take
        if budget <= 0:
            break
    return v


class TestGreedyLinearMin:
    """`_greedy_linear_min` is bit-identical to the loop, ties included."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed + 200)
        for _ in range(100):
            m = int(rng.integers(1, 40))
            delta = float(rng.choice([0.0, 0.1, 0.25, 0.5, 1 / 3, 0.75, 1.0, rng.uniform()]))
            # integer coefficients tie often; the stable order breaks ties by index
            coef = rng.integers(-3, 4, m).astype(float) if rng.uniform() < 0.5 \
                else rng.normal(size=m)
            got = landmark._greedy_linear_min(coef, delta, m)
            assert np.array_equal(got, loop_greedy_linear_min(coef, delta, m))
            assert np.isclose(got.sum(), delta * m)

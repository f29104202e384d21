import dataclasses
import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpjt import FeatureMatrix, FitConfig, Hyperparams, LabeledDataset, landmark
from lpjt.dataio import synth_hetero_map, synth_rotated
from lpjt.landmark import (
    LandmarkWeights,
    QpInstance,
    build_qp,
    check_feasible,
    project_feasible,
    solve_qp,
    uniform_weights,
)
from lpjt.pipeline import fit
from oracles import Bq, K_ss, K_su, K_uu, mmd_value, project_box_mean


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
        assert np.all(Bq(qp)[:2, 2:] == 0.0)

    def test_half_quadratic_form_equals_mmd_value(self):
        # classes present in one domain only stay out of E_CD and are pinned
        for seed, make in itertools.product(range(25), (mixed_instance, rule_instance)):
            qp, Z_s, Z_u, ys, yu, delta = make(seed)
            rng = np.random.default_rng(seed + 500)
            a, b = rng.uniform(0, 1, qp.n_s), rng.uniform(0, 1, qp.n_u)
            z = np.concatenate([a, b])
            eye = np.eye(Z_s.shape[0])
            e = sum(mmd_value(Z_s, Z_u, eye, eye, a, b, ys, yu, delta))
            assert abs(0.5 * z @ qp.matvec(z) - e) <= 1e-12 * e
            assert abs(0.5 * z @ Bq(qp) @ z - e) <= 1e-12 * e
            eigs = np.linalg.eigvalsh(Bq(qp))
            assert eigs[0] >= -1e-12 * eigs[-1]
            # one group per class and domain with members, in class order,
            # free where the class is in both domains
            shared = set(ys) & set(yu)
            want = [(np.flatnonzero(y == c) + offset, c in shared)
                    for c in range(int(max(ys.max(), yu.max())) + 1)
                    for y, offset in ((ys, 0), (yu, qp.n_s)) if (y == c).any()]
            assert [(idx.tolist(), free) for idx, free in qp.groups] == \
                [(idx.tolist(), free) for idx, free in want]

    def test_class_absent_everywhere_adds_nothing(self):
        # class 1 is in neither domain: the QP is the one of classes 0 and 2
        # alone, relabeled 0 and 1
        rng = np.random.default_rng(3)
        Z_s, Z_u = rng.normal(size=(2, 6)), rng.normal(size=(2, 5))
        ys, yu = np.array([0, 2, 0, 2, 2, 0]), np.array([2, 0, 0, 2, 0])
        got = build_qp(Z_s, Z_u, ys, yu, 0.5, num_classes=3)
        ref = build_qp(Z_s, Z_u, ys // 2, yu // 2, 0.5, num_classes=2)
        for name in ("F_s", "F_u", "cross", "diag_s", "diag_u"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
        assert [(idx.tolist(), free) for idx, free in got.groups] == \
            [(idx.tolist(), free) for idx, free in ref.groups]
        assert got.delta == ref.delta

    @pytest.mark.parametrize("seed", range(5))
    def test_alpha_gradient_matches_finite_differences(self, seed):
        # and the beta gradient: Bq z is the gradient of E in both blocks
        qp, Z_s, Z_u, ys, yu = random_qp(seed, n_s=6, n_u=5)
        rng = np.random.default_rng(seed + 10)
        delta = 0.5
        z = rng.uniform(0.1, 0.9, 11)
        d = Z_s.shape[0]
        A = np.eye(d)   # embeddings are already projected
        B = np.eye(d)

        def total(w):
            e_mg, e_cd = mmd_value(Z_s, Z_u, A, B, w[:6], w[6:], ys, yu, delta)
            return e_mg + e_cd

        grad = qp.matvec(z)
        h = 1e-6
        for i in range(11):
            e = np.zeros(11); e[i] = h
            fd = (total(z + e) - total(z - e)) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(fd))


def dense_blocks(Z_s, Z_u, ys, yu, delta, C):
    """K_ss, K_uu and K_su from the explicit per-class formulas."""
    n_s, n_u = Z_s.shape[1], Z_u.shape[1]
    Gs = Z_s.T @ Z_s
    Gu = Z_u.T @ Z_u
    Gsu = Z_s.T @ Z_u
    K_ss = 2.0 * Gs / (delta**2 * n_s**2)
    K_uu = 2.0 * Gu / (delta**2 * n_u**2)
    K_su = 2.0 * Gsu / (delta**2 * n_s * n_u)
    for c in range(C):
        si = np.flatnonzero(ys == c)
        ui = np.flatnonzero(yu == c)
        if si.size and ui.size:
            K_ss[np.ix_(si, si)] += 2.0 * Gs[np.ix_(si, si)] / (delta**2 * si.size**2)
            K_ss[si, si] += 2.0 * Gs[si, si] / (delta**2 * si.size)
            K_uu[np.ix_(ui, ui)] += 2.0 * Gu[np.ix_(ui, ui)] / (delta**2 * ui.size**2)
            K_uu[ui, ui] += 2.0 * Gu[ui, ui] / (delta**2 * ui.size)
            K_su[np.ix_(si, ui)] += 4.0 * Gsu[np.ix_(si, ui)] / (delta**2 * si.size * ui.size)
    return K_ss, K_uu, K_su


def rule_instance(seed):
    """A random instance with every kind of class the MMD's class rule
    tells apart: classes 0 and 1 shared, 2 in the source only, 3 in the
    target only, 4 in neither domain (as a class only the labeled targets
    hold) and 5 shared with a single member per domain."""
    rng = np.random.default_rng(seed)
    d, delta = int(rng.integers(1, 5)), float(rng.choice([0.3, 0.5, 0.8]))
    ys = rng.permutation(np.append(rng.integers(0, 2, rng.integers(0, 30)), [0, 1, 2, 2, 5]))
    yu = rng.permutation(np.append(rng.integers(0, 2, rng.integers(0, 30)), [0, 1, 3, 3, 5]))
    Z_s, Z_u = rng.normal(size=(d, ys.size)), rng.normal(size=(d, yu.size))
    return build_qp(Z_s, Z_u, ys, yu, delta, 6), Z_s, Z_u, ys, yu, delta


def mixed_instance(seed):
    """A random instance whose last class is present in the source only."""
    rng = np.random.default_rng(seed)
    C = int(rng.integers(2, 5))
    n_s, n_u = int(rng.integers(C + 1, 40)), int(rng.integers(C + 1, 40))
    d = int(rng.integers(1, 5))
    ys = rng.integers(0, C, n_s); ys[:C] = np.arange(C)
    yu = rng.integers(0, C, n_u); yu[:C] = np.arange(C)
    yu[yu == C - 1] = 0
    delta = float(rng.choice([0.3, 0.5, 0.8]))
    Z_s = rng.normal(size=(d, n_s))
    Z_u = rng.normal(size=(d, n_u))
    return build_qp(Z_s, Z_u, ys, yu, delta, C), Z_s, Z_u, ys, yu, delta


class TestFactoredOperators:
    @pytest.mark.parametrize("seed", range(20))
    def test_products_match_dense_formulas(self, seed):
        qp, Z_s, Z_u, ys, yu, delta = mixed_instance(seed)
        K_ss, K_uu, K_su = dense_blocks(Z_s, Z_u, ys, yu, delta, int(ys.max()) + 1)
        rng = np.random.default_rng(seed + 700)
        a, b = rng.uniform(0, 1, qp.n_s), rng.uniform(0, 1, qp.n_u)
        want = np.concatenate([K_ss @ a - K_su @ b, K_uu @ b - K_su.T @ a])
        got = qp.matvec(np.concatenate([a, b]))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        # the solver caches its own constants and forms no dense block
        solve_qp(qp, full_output=True)
        assert set(vars(qp)) == {f.name for f in dataclasses.fields(qp)} | {"_meta", "_face"}


def fit_sized_instance(seed):
    """One of 20 instances with 100-160 samples per domain, as in the bench's fits."""
    rng = np.random.default_rng(seed + 100)
    C = int(rng.integers(2, 5))
    qp, *_ = random_qp(seed + 100, n_s=int(rng.integers(100, 160)),
                       n_u=int(rng.integers(100, 160)), C=C,
                       d=int(rng.integers(1, 4)))
    return qp


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
            cross=np.ones(1),
            diag_s=np.array([1.0, 1.0]),
            diag_u=np.zeros(1),
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
        f0 = 0.5 * init.stacked() @ Bq(qp) @ init.stacked()
        f1 = 0.5 * w.stacked() @ Bq(qp) @ w.stacked()
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

    def test_init_with_another_delta_rejected(self):
        qp, *_ = random_qp(11)
        other = uniform_weights(qp.n_s, qp.n_u, 0.3)
        with pytest.raises(ValueError, match=r"delta 0\.3 .*delta 0\.5"):
            solve_qp(qp, other)

    @pytest.mark.parametrize("seed", range(6))
    def test_infeasible_init_starts_from_its_projection(self, seed):
        qp, _, _, ys, yu, delta = mixed_instance(seed)
        rng = np.random.default_rng(seed + 40)
        inits = (LandmarkWeights(np.ones(qp.n_s), np.zeros(qp.n_u), delta),
                 LandmarkWeights(rng.uniform(0, 1, qp.n_s), rng.uniform(0, 1, qp.n_u), delta))
        for init in inits:
            assert not check_feasible(init, ys, yu)
            w, info = solve_qp(qp, init, full_output=True)
            # the projection is feasible, but projecting it again can move it
            # by rounding, which the KKT point does not see
            ref, ref_info = solve_qp(qp, project_feasible(qp, init), full_output=True)
            assert info["converged"] and ref_info["converged"]
            assert w.stacked().tobytes() == ref.stacked().tobytes()
            assert_allclose(info["objective_trace"][0], ref_info["objective_trace"][0],
                            rtol=1e-12)

    def test_pinned_class_kept_at_delta(self):
        rng = np.random.default_rng(12)
        # class 1 exists only in the source
        Z_s = rng.normal(size=(2, 4))
        Z_u = rng.normal(size=(2, 3))
        qp = build_qp(Z_s, Z_u, [0, 0, 1, 1], [0, 0, 0], 0.5, 2)
        w = solve_qp(qp)
        assert_allclose(w.alpha[2:], 0.5)

    @pytest.mark.parametrize("seed", range(20))
    def test_never_raises_mmd_value(self, seed):
        qp, Z_s, Z_u, ys, yu, delta = mixed_instance(seed)
        rng = np.random.default_rng(seed + 900)
        eye = np.eye(Z_s.shape[0])
        rough = LandmarkWeights(rng.uniform(0, 1, qp.n_s), rng.uniform(0, 1, qp.n_u), delta)
        for init in (uniform_weights(qp.n_s, qp.n_u, delta), project_feasible(qp, rough)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                w, info = solve_qp(qp, init, full_output=True)
            assert info["converged"]
            e0 = sum(mmd_value(Z_s, Z_u, eye, eye, init.alpha, init.beta, ys, yu, delta))
            e1 = sum(mmd_value(Z_s, Z_u, eye, eye, w.alpha, w.beta, ys, yu, delta))
            assert e1 <= e0 * (1 + 1e-12)

    def test_step_cap_warns_and_reports_not_converged(self, monkeypatch):
        qp = fit_sized_instance(0)
        _, info = solve_qp(qp, full_output=True)
        assert info["converged"] and info["iterations"] > 1
        monkeypatch.setattr(landmark, "MAX_STEPS", 1)
        with pytest.warns(UserWarning, match="hit its 1-step cap"):
            _, capped = solve_qp(qp, full_output=True)
        assert not capped["converged"] and capped["iterations"] == 1
        # the capped run is the uncapped one cut after its first step
        tr = capped["objective_trace"]
        assert np.array_equal(tr, info["objective_trace"][: tr.size])


def assert_kkt(qp, weights, rtol=1e-9):
    """The KKT conditions of the weight QP at `weights`, from the dense Bq
    and independent of the solver.

    One multiplier mu per free group must make every interior weight
    stationary, (Bq z)_i = mu, leave weights at 0 a nonnegative reduced
    gradient (Bq z)_i - mu and weights at 1 a nonpositive one. Such a mu
    exists exactly when the largest gradient over the interior weights and
    those at 1 is at most the smallest over the interior weights and those
    at 0. Group means and pinned weights must equal delta.
    """
    z = weights.stacked()
    g = Bq(qp) @ z
    tol = rtol * np.abs(g).max()
    for idx, free in qp.groups:
        w, gi = z[idx], g[idx]
        if not free:
            assert np.all(w == qp.delta)
            continue
        assert abs(w.mean() - qp.delta) <= 1e-10
        inner, at0, at1 = (w > 0.0) & (w < 1.0), w == 0.0, w == 1.0
        assert np.all(inner | at0 | at1)
        if inner.any():
            assert np.ptp(gi[inner]) <= tol
        assert gi[inner | at1].max(initial=-np.inf) <= gi[inner | at0].min(initial=np.inf) + tol


def quiet_fit(Xs, ys, Xt, cfg, tgt_l=None):
    """`fit` on 3 classes without label propagation's warning about
    unreached samples, which these small problems can raise."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"\d+ of \d+ test samples have all-zero",
                                RuntimeWarning)
        return fit(LabeledDataset(FeatureMatrix(Xs), ys, 3), Xt, tgt_l, cfg)


def fit_qps(synth):
    """Every weight QP of a 4-iteration fit on a `synth` problem, 30 per
    class; semisupervised, with 3 labeled targets per class, on
    `synth_hetero_map`, whose domains' feature counts differ."""
    qps = []
    build_qp = landmark.build_qp

    def recording_build(*args):
        qps.append(build_qp(*args))
        return qps[-1]

    Xs, ys, Xt, yt = synth(30, 3, 0)
    tgt_l, cfg = None, FitConfig(hyper=Hyperparams(d=2, T=4))
    if synth is synth_hetero_map:
        hold = np.concatenate([np.flatnonzero(yt == c)[:3] for c in range(3)])
        tgt_l = LabeledDataset(FeatureMatrix(Xt[:, hold]), yt[hold], 3)
        Xt = np.delete(Xt, hold, axis=1)
        cfg = FitConfig(hyper=cfg.hyper, mode="semisupervised")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(landmark, "build_qp", recording_build)
        quiet_fit(Xs, ys, Xt, cfg, tgt_l)
    return qps


class TestKktCertificate:
    """The solver's answers satisfy the KKT conditions of the QP, checked on
    the dense Bq: for a convex QP that is optimality itself."""

    @pytest.mark.parametrize("synth", [synth_rotated, synth_hetero_map])
    def test_every_qp_of_a_fit(self, synth):
        qps = fit_qps(synth)
        assert len(qps) == 4
        for qp in qps:
            w, info = solve_qp(qp, full_output=True)
            assert info["converged"]
            assert_kkt(qp, w)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_and_mixed_instances(self, seed):
        for qp in (random_qp(seed)[0], random_qp(seed, n_s=30, n_u=25, C=3, d=1)[0],
                   mixed_instance(seed)[0]):
            w, info = solve_qp(qp, full_output=True)
            assert info["converged"]
            assert_kkt(qp, w)


def dense_face_min(qp, low, high):
    """`_face_min` from the dense KKT system of the face, by least squares."""
    meta = qp._meta
    free = ~(low | high)
    held = np.full(qp.n_s + qp.n_u, qp.delta)
    held[meta.act] = high
    F = meta.act[free]
    E = (meta.gid[free][None, :] == np.arange(meta.first.size)[:, None]).astype(float)
    H = Bq(qp)
    K = np.block([[H[np.ix_(F, F)], -E.T], [E, np.zeros((E.shape[0],) * 2)]])
    rhs = np.concatenate([-H[F] @ held,
                          meta.targets - np.bincount(meta.gid, held[meta.act], meta.first.size)])
    sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    held[F] = sol[:F.size]
    return held, sol[F.size:]


def pdas_pairs(qp, steps):
    """The active-set pairs of the primal-dual steps from the uniform start,
    each step's update read off the dense Bq; stops once a pair repeats or
    the sets settle."""
    meta, H = qp._meta, Bq(qp)
    low = np.zeros(meta.act.size, dtype=bool)
    high = low.copy()
    pairs = [(low, high)]
    for _ in range(steps):
        z, mu = landmark._face_min(qp, low, high)
        x, lam = z[meta.act], (H @ z)[meta.act] - mu[meta.gid]
        free = ~(low | high)
        low = np.where(free, x < 0, low & (lam >= 0))
        high = np.where(free, x > 1, high & (lam <= 0))
        if any(np.array_equal(low, a) and np.array_equal(high, b) for a, b in pairs):
            break
        pairs.append((low, high))
    return pairs, (low, high)


class TestSolverEdgeCases:
    @pytest.mark.parametrize("seed", range(10))
    def test_face_min_matches_dense_kkt(self, seed):
        qp, *_ = mixed_instance(seed)
        meta = qp._meta
        u = np.random.default_rng(seed + 40).uniform(size=meta.act.size)
        # a face that keeps the first weight of every group free
        u[meta.first] = 0.5
        low, high = u < 0.2, u > 0.85
        z, mu = landmark._face_min(qp, low, high)
        want_z, want_mu = dense_face_min(qp, low, high)
        assert np.max(np.abs(z - want_z)) <= 1e-9
        assert np.max(np.abs(mu - want_mu)) <= 1e-9 * np.max(np.abs(want_mu))

    def test_singular_face(self):
        # with 1-D embeddings every class's block of Bq has a null vector,
        # a_i x_i = b_j y_j for all its pairs, so Bq restricted to the free
        # weights of the uniform start is singular
        qp, *_ = random_qp(13, d=1)
        free = qp._meta.act
        eigs = np.linalg.eigvalsh(Bq(qp)[np.ix_(free, free)])
        assert eigs[0] <= 1e-12 * eigs[-1]
        w, info = solve_qp(qp, full_output=True)
        assert info["converged"]
        assert_kkt(qp, w)

    def test_face_with_many_minimizers(self):
        # +-x in both groups: v = (1/x; 1/y) keeps every mean and Bq v = 0,
        # so E is flat along v on every face that frees these weights
        Z_s, Z_u = np.array([[1.0, -1.0, 2.0, -2.0]]), np.array([[1.0, -1.0]])
        qp = build_qp(Z_s, Z_u, [0, 0, 0, 0], [0, 0], 0.5, 1)
        v = 1.0 / np.concatenate([Z_s[0], Z_u[0]])
        assert np.max(np.abs(Bq(qp) @ v)) <= 1e-12 and v[:4].sum() == v[4:].sum() == 0.0
        w, info = solve_qp(qp, full_output=True)
        assert info["converged"]
        assert_kkt(qp, w)

    def test_group_with_every_weight_past_a_bound(self):
        # the first face of random_qp(12) puts both source weights of class
        # 0 outside [0, 1]; holding both at a bound would leave the group
        # without a free weight
        qp, _, _, ys, yu = random_qp(12)
        meta = qp._meta
        none = np.zeros(meta.act.size, dtype=bool)
        x = landmark._face_min(qp, none, none)[0][qp.groups[0][0]]
        assert qp.groups[0][0].size == 2 and np.all((x < 0.0) | (x > 1.0))
        w, info = solve_qp(qp, full_output=True)
        assert info["converged"]
        assert_kkt(qp, w)
        assert check_feasible(w, ys, yu)

    def test_free_weight_with_zero_diagonal(self):
        # a sample embedded at the origin has a zero row and column in Bq:
        # its group's multiplier must then be 0 or the weight at a bound
        rng = np.random.default_rng(5)
        Z_s, Z_u = rng.normal(size=(2, 9)), rng.normal(size=(2, 7))
        Z_s[:, [0, 4]] = 0.0
        Z_u[:, 1] = 0.0
        ys, yu = np.arange(9) % 2, np.arange(7) % 2
        qp = build_qp(Z_s, Z_u, ys, yu, 0.5, 2)
        assert qp.diag_s[0] == qp.diag_s[4] == qp.diag_u[1] == 0.0
        assert not Bq(qp)[[0, 4, 10]].any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, info = solve_qp(qp, full_output=True)
        assert info["converged"]
        assert_kkt(qp, w)

    @pytest.mark.parametrize("normalize", ["none", "unit"])
    def test_fit_with_an_all_zero_sample(self, normalize):
        Xs, ys, Xt, _ = synth_rotated(30, 3, 0)
        Xs[:, 0] = Xt[:, 5] = 0.0
        with np.errstate(divide="raise", invalid="raise"):
            model = quiet_fit(Xs, ys, Xt,
                              FitConfig(hyper=Hyperparams(d=2, T=3), normalize=normalize))
        assert check_feasible(model.weights, ys, model.pseudo_labels)

    def test_cycling_active_sets_finish_with_monotone_steps(self, monkeypatch):
        # the primal-dual steps on mixed_instance(285) return to an earlier
        # pair of active sets; monotone steps from the projection of the
        # current point finish the solve
        qp, *_ = mixed_instance(285)
        pairs, last = pdas_pairs(qp, 20)
        assert any(np.array_equal(last[0], a) and np.array_equal(last[1], b) for a, b in pairs)
        calls = []
        project = landmark._project
        monkeypatch.setattr(landmark, "_project", lambda *a: calls.append(1) or project(*a))
        w, info = solve_qp(qp, full_output=True)
        # one projection checks the start, one starts the monotone steps
        assert len(calls) == 2
        assert info["converged"]
        assert_kkt(qp, w)

    def test_release_at_rounding_level_ends_the_solve(self):
        # half-integer 1-D embeddings make degenerate faces: the monotone
        # steps free a held weight whose reduced gradient is rounding noise,
        # and the next face minimizer moves it back out through its bound
        Z_s = np.array([[1.0, 0.0, -1.0, 1.0, -0.5, 0.5, 1.0, 0.5, 0.5, 1.0, 0.5, -0.5]])
        Z_u = np.array([[-0.5, 1.0, -1.0, 0.0, 0.5, 0.5, -1.0, -1.0, 1.0, -1.0]])
        ys = np.array([0, 1, 2, 2, 0, 0, 1, 2, 2, 2, 2, 2])
        yu = np.array([0, 1, 2, 2, 0, 2, 0, 0, 1, 2])
        qp = build_qp(Z_s, Z_u, ys, yu, 0.5, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, info = solve_qp(qp, full_output=True)
        assert info["converged"] and info["iterations"] <= 10
        assert_kkt(qp, w)

    def test_delta_one(self):
        # every weight is 1, pinned class included: no step is taken
        _, Z_s, Z_u, ys, yu, _ = mixed_instance(3)
        qp = build_qp(Z_s, Z_u, ys, yu, 1.0, int(ys.max()) + 1)
        assert not all(free for _, free in qp.groups)
        w, info = solve_qp(qp, full_output=True)
        assert np.all(w.stacked() == 1.0)
        assert info["converged"] and info["iterations"] == 0
        assert_kkt(qp, w)


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
        solver_obj = 0.5 * z @ Bq(qp) @ z

        A_grid = self._stack_grids([self.lattice(m, delta) for m in sizes_s])
        B_grid = self._stack_grids([self.lattice(m, delta) for m in sizes_u])
        quad_s = 0.5 * np.einsum("ij,jk,ik->i", A_grid, K_ss(qp), A_grid)
        quad_u = 0.5 * np.einsum("ij,jk,ik->i", B_grid, K_uu(qp), B_grid)
        cross = A_grid @ K_su(qp) @ B_grid.T
        best = float((quad_s[:, None] + quad_u[None, :] - cross).min())
        assert solver_obj <= best + 1e-4


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
    def test_build_qp_rejects_delta(self, bad):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            random_qp(0, delta=bad)

    def test_check_feasible_rejects_nan(self):
        # NaN fails every comparison, so it would pass the bound and mean checks
        ok = SimpleNamespace(alpha=np.array([0.5, 0.5]), beta=np.array([0.5, 0.5]), delta=0.5)
        assert check_feasible(ok, [0, 0], [0, 0])
        for name in ("alpha", "beta"):
            bad = SimpleNamespace(**vars(ok))
            setattr(bad, name, np.array([np.nan, 0.5]))
            assert not check_feasible(bad, [0, 0], [0, 0])
            assert not check_feasible(bad, [0, 1], [2, 3])    # no shared class

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.5, 1.5])
    def test_delta_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\]"):
            LandmarkWeights(np.array([0.5, 0.5]), np.array([0.5, 0.5]), bad)
        # class means 0.2 and 0.8, which no delta matches, pass every mean
        # check against a NaN delta
        weights = SimpleNamespace(alpha=np.array([0.2, 0.8]), beta=np.array([0.5, 0.5]),
                                  delta=bad)
        assert not check_feasible(weights, [0, 1], [0, 1])


def lexsort_project(z, qp):
    """`_project` with one np.lexsort over (group, breakpoint), ties kept in
    index order: the reference for the two-pass sort."""
    meta = qp._meta
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
        got = landmark._project(z, qp)
        assert np.array_equal(got, lexsort_project(z, qp))

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
        assert qp._meta.ev_gid.dtype == np.uint16
        self.check(qp, rng.normal(0.5, 1.5, qp.n_s + qp.n_u))
        self.check(qp, rng.integers(-4, 9, qp.n_s + qp.n_u) / 4.0)


class TestWarmProjection:
    """`_project` of points at or near a feasible one: the warm starts that
    `fit` carries between outer iterations, which a solve projects once,
    and the start of the monotone phase. A projected point is
    kept, the group means are exact, and the solve's answer is a fixed
    point of cold projected-gradient steps."""

    @staticmethod
    def count_sweeps(monkeypatch):
        calls = []
        sweep = landmark._sweep_shift
        monkeypatch.setattr(landmark, "_sweep_shift",
                            lambda *a: calls.append(1) or sweep(*a))
        return calls

    @staticmethod
    def check(qp, z, rng, sweeps):
        """Project z and a nearby point, then re-project both results;
        returns how many sweeps the four projections took."""
        before = len(sweeps)
        near = z + 1e-3 * rng.normal(size=z.size)
        p, q = landmark._project(z, qp), landmark._project(near, qp)
        for x, px in ((z, p), (near, q)):
            assert np.array_equal(px, lexsort_project(x, qp))
            # a projected point is feasible, so projecting it keeps it
            assert np.max(np.abs(landmark._project(px, qp) - px)) <= 1e-12
            for idx, both in qp.groups:
                if both:
                    assert abs(px[idx].sum() - qp.delta * idx.size) <= 1e-12
        # the projection onto a convex set: z - p is normal to it at p
        assert (z - p) @ (q - p) <= 1e-12
        assert np.linalg.norm(p - q) <= np.linalg.norm(z - near) * (1 + 1e-12)
        return len(sweeps) - before

    @pytest.mark.parametrize("seed", range(10))
    def test_random_inputs_match_sweep(self, seed, monkeypatch):
        sweeps = self.count_sweeps(monkeypatch)
        rng = np.random.default_rng(seed)
        qp = TestProjectSort.instance(rng, int(rng.integers(2, 6)), 60,
                                      one_sided=seed % 2 == 1)
        for _ in range(5):
            assert self.check(qp, rng.normal(0.5, 1.5, qp.n_s + qp.n_u), rng, sweeps) == 4

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
        # classes of 100-200 samples per domain, as in the bench's fits: the
        # active-set steps project nothing; only the projection of init
        # sweeps, and the start of a monotone phase would add one more
        sweeps = self.count_sweeps(monkeypatch)
        rng = np.random.default_rng(seed + 400)
        C = int(rng.integers(2, 5))
        ys, yu = (np.repeat(np.arange(C), rng.integers(100, 200, C)) for _ in range(2))
        qp = build_qp(rng.normal(size=(1, ys.size)), rng.normal(size=(1, yu.size)),
                      ys, yu, float(rng.choice([0.25, 0.5, 0.75])), C)
        w, info = solve_qp(qp, full_output=True)
        assert info["converged"] and len(sweeps) <= 2 < info["iterations"]
        assert_kkt(qp, w)
        for _ in range(5):
            self.check(qp, rng.normal(0.5, 1.0, ys.size + yu.size), rng, sweeps)

    @pytest.mark.parametrize("seed", range(6))
    def test_unsettled_shift_falls_back_to_sweep(self, seed, monkeypatch):
        # every coordinate past 1, every one past 0, and one coordinate far
        # out of a feasible point: one sweep each, and the lexsort's answer
        sweeps = self.count_sweeps(monkeypatch)
        rng = np.random.default_rng(seed + 300)
        qp = TestProjectSort.instance(rng, int(rng.integers(2, 6)), 60,
                                      one_sided=seed % 2 == 1)
        n = qp.n_s + qp.n_u
        one_out = landmark._project(rng.normal(0.5, 1.5, n), qp)
        one_out[int(rng.integers(n))] = 10.0
        for z in (np.full(n, 10.0), np.full(n, -10.0), one_out):
            before = len(sweeps)
            got = landmark._project(z, qp)
            assert len(sweeps) == before + 1
            assert np.array_equal(got, lexsort_project(z, qp))

    @pytest.mark.parametrize("family,seed",
                             [("fit_sized", s) for s in range(20)]
                             + [("grid", s) for s in range(6)])
    def test_solve_matches_cold_projections(self, family, seed):
        # z solves min E over the polytope exactly when it is kept by the
        # projected gradient step z -> _project(z - t Bq z) for any t > 0
        qp = fit_sized_instance(seed) if family == "fit_sized" else grid_instance(seed)[0]
        w, info = solve_qp(qp, full_output=True)
        assert info["converged"]
        z, H = w.stacked(), Bq(qp)
        g = H @ z
        L = np.linalg.norm(H, 2)
        for t in (1.0 / L, 10.0 / L):
            assert np.max(np.abs(landmark._project(z - t * g, qp) - z)) <= 1e-12
        # the uniform start, where it is not the answer, is not such a point
        u = uniform_weights(qp.n_s, qp.n_u, qp.delta).stacked()
        if np.max(np.abs(z - u)) > 1e-6:
            gu = H @ u
            assert np.max(np.abs(landmark._project(u - gu / L, qp) - u)) > 1e-6

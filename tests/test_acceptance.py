"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured figure (run with -s to see them inline)."""

import itertools
import os
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from lpjt.core import FeatureMatrix, Hyperparams, LabeledDataset, zscore_normalize
from lpjt.dataio import load_labeled, synth_hetero_map, synth_rotated
from lpjt.eigsolve import EigProblem, assemble_problem, solve
from lpjt.graph import _csr, scatter_matrices
from lpjt.labelprop import _band_solve, _similarity_edges
from lpjt.landmark import build_qp, check_feasible, solve_qp
from lpjt.mmd import assemble_M, build_coeffs
from lpjt.pipeline import FitConfig, _span_basis, evaluate, fit, predict
from oracles import (
    Bq,
    K_ss,
    K_su,
    K_uu,
    conditional_coeffs,
    marginal_coeffs,
    mmd_value,
    propagate,
)


def _passline(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


# -----------------------------------------------------------------------
# 1. MMD trace form vs explicit sums


def test_01_mmd_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        C = int(rng.integers(1, 5))
        n_s = int(rng.integers(C, 31))
        n_u = int(rng.integers(C, 31))
        d_s = int(rng.integers(1, 9))
        d_t = int(rng.integers(1, 9))
        d = int(rng.integers(1, 9))
        X_s = rng.normal(size=(d_s, n_s))
        X_u = rng.normal(size=(d_t, n_u))
        ys = rng.integers(0, C, n_s); ys[:C] = np.arange(C)
        yu = rng.integers(0, C, n_u); yu[:C] = np.arange(C)
        alpha = rng.uniform(0.05, 1.0, n_s)
        beta = rng.uniform(0.05, 1.0, n_u)
        delta = float(rng.uniform(0.2, 1.0))
        A = rng.normal(size=(d_s, d))
        B = rng.normal(size=(d_t, d))
        e_mg, e_cd = mmd_value(X_s, X_u, A, B, alpha, beta, ys, yu, delta)

        def tr_of(H_s, H_u, H_su):
            # M = X H X^T from the dense coefficient matrices
            M_ss, M_uu, M_su = X_s @ H_s @ X_s.T, X_u @ H_u @ X_u.T, X_s @ H_su @ X_u.T
            return (np.trace(A.T @ M_ss @ A) + np.trace(B.T @ M_uu @ B)
                    - 2 * np.trace(A.T @ M_su @ B))

        gap_mg = abs(e_mg - tr_of(*marginal_coeffs(alpha, beta, delta)))
        gap_cd = abs(e_cd - tr_of(*conditional_coeffs(alpha, beta, ys, yu, delta, C)))
        worst = max(worst, gap_mg, gap_cd)
        assert gap_mg <= 1e-8 and gap_cd <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passline(1, f"100 instances, max |trace-sum| = {worst:.2e}, {elapsed:.1f}s")


# -----------------------------------------------------------------------
# 2. generalized eigensolver correctness


def test_02_eigensolver_residuals():
    worst_res, worst_orth = 0.0, 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 61))
        d = int(rng.integers(1, min(n, 7)))
        G = rng.normal(size=(n, n + 3))
        LHS = G @ G.T / n
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        RHS = Q @ np.diag(rng.uniform(0.5, 3.0, n)) @ Q.T
        sol = solve(EigProblem(LHS=LHS, RHS=RHS), d)
        lhs_norm = np.linalg.norm(LHS, 2)
        for j in range(d):
            res = LHS @ sol.P[:, j] - sol.eigenvalues[j] * (RHS @ sol.P[:, j])
            worst_res = max(worst_res, np.linalg.norm(res) / lhs_norm)
        orth = np.max(np.abs(sol.P.T @ RHS @ sol.P - np.eye(d)))
        worst_orth = max(worst_orth, orth)
        assert worst_res <= 1e-6 and worst_orth <= 1e-6
    _passline(2, f"50 pencils, residual {worst_res:.2e}, orthonormality {worst_orth:.2e}")


# -----------------------------------------------------------------------
# 3. landmark QP: feasibility, grid-search oracle, delta = 1


def _lattice(m, delta, step=0.05):
    ticks = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
    total = round(delta * m / step)
    return np.asarray([
        [ticks[i] for i in combo]
        for combo in itertools.product(range(len(ticks)), repeat=m)
        if sum(combo) == total
    ])


def _stack(grids):
    out = grids[0]
    for g in grids[1:]:
        out = np.hstack([np.repeat(out, g.shape[0], axis=0),
                         np.tile(g, (out.shape[0], 1))])
    return out


def test_03_qp_feasibility_and_grid_oracle():
    worst_gap = -np.inf
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sizes_s = [int(rng.integers(1, 4)), int(rng.integers(1, 3))]
        sizes_u = [int(rng.integers(1, 3)), int(rng.integers(1, 4))]
        ys = np.repeat([0, 1], sizes_s)
        yu = np.repeat([0, 1], sizes_u)
        Z_s = rng.normal(size=(2, ys.size))
        Z_u = rng.normal(size=(2, yu.size))
        qp = build_qp(Z_s, Z_u, ys, yu, 0.5, 2)
        w = solve_qp(qp)
        assert check_feasible(w, ys, yu, atol=1e-8)
        z = w.stacked()
        solver_obj = 0.5 * z @ Bq(qp) @ z
        A_grid = _stack([_lattice(m, 0.5) for m in sizes_s])
        B_grid = _stack([_lattice(m, 0.5) for m in sizes_u])
        quad_s = 0.5 * np.einsum("ij,jk,ik->i", A_grid, K_ss(qp), A_grid)
        quad_u = 0.5 * np.einsum("ij,jk,ik->i", B_grid, K_uu(qp), B_grid)
        cross = A_grid @ K_su(qp) @ B_grid.T
        best = float((quad_s[:, None] + quad_u[None, :] - cross).min())
        worst_gap = max(worst_gap, solver_obj - best)
        assert solver_obj <= best + 1e-4

    rng = np.random.default_rng(99)
    qp1 = build_qp(rng.normal(size=(2, 6)), rng.normal(size=(2, 5)),
                   np.arange(6) % 2, np.arange(5) % 2, 1.0, 2)
    w1 = solve_qp(qp1)
    assert np.all(w1.alpha == 1.0) and np.all(w1.beta == 1.0)
    _passline(3, f"20 instances feasible, worst solver-grid gap {worst_gap:.2e}; "
                 "delta=1 pins all weights at 1")


# -----------------------------------------------------------------------
# 4. label propagation fixed point vs closed form


def test_04_label_propagation_closed_form():
    worst = 0.0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 25))
        Z = rng.normal(size=(2, n))
        edges = _similarity_edges(Z, 3)
        S = _csr(*edges[1:], n)
        C = int(rng.integers(2, 5))
        Y0 = np.zeros((n, C))
        labeled = rng.choice(n, size=max(1, n // 3), replace=False)
        Y0[labeled, rng.integers(0, C, labeled.size)] = 1.0
        for sigma in (0.5, 0.9):
            # the iteration against classify's solve over the same edges
            res = propagate(S, Y0, sigma=sigma)
            gap = np.max(np.abs(res.soft_labels - _band_solve(*edges, Y0, sigma)))
            worst = max(worst, gap)
            assert gap <= 1e-6
    _passline(4, f"30 graphs x sigma {{0.5, 0.9}}, max fixed-point gap {worst:.2e}")


# -----------------------------------------------------------------------
# 5 + 7. end-to-end rotated blobs: accuracy gain and shrinking divergence


@pytest.fixture(scope="module")
def rotated_runs():
    runs = []
    start = time.perf_counter()
    for seed in range(20):
        Xs, ys, Xt, yt = synth_rotated(100, 3, seed, angle_deg=30.0)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        model = fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=5)))
        acc = evaluate(predict(model, src, Xt), yt)
        Xs_n, _, _ = zscore_normalize(FeatureMatrix(Xs))
        Xt_n, _, _ = zscore_normalize(FeatureMatrix(Xt))
        base_pred = ys[np.argmin(cdist(Xt_n.data.T, Xs_n.data.T), axis=1)]
        runs.append((acc, evaluate(base_pred, yt), model.trace.mmd))
    return runs, time.perf_counter() - start


def test_05_adaptation_beats_source_only_nn(rotated_runs):
    runs, elapsed = rotated_runs
    gaps = [100 * (acc - base) for acc, base, _ in runs]
    median_gap = float(np.median(gaps))
    assert median_gap >= 10.0
    assert elapsed < 60.0
    _passline(5, f"median gain {median_gap:+.1f}pp over 20 seeds "
                 f"(min {min(gaps):+.1f}), {elapsed:.0f}s")


def test_07_mmd_shrinks_over_iterations(rotated_runs):
    runs, _ = rotated_runs
    shrunk = sum(tr[-1] <= tr[0] for _, _, tr in runs)
    assert shrunk >= 18   # 90% of 20
    _passline(7, f"divergence at iteration 5 <= iteration 1 on {shrunk}/20 seeds")


# -----------------------------------------------------------------------
# 6. heterogeneous problem beats per-domain PCA + 1-NN


def _pca_scores(X, m):
    centered = X - X.mean(axis=1, keepdims=True)
    U, _, _ = np.linalg.svd(centered, full_matrices=False)
    scores = U[:, :m].T @ centered
    std = scores.std(axis=1)
    std[std < 1e-12] = 1.0
    return scores / std[:, None]


def test_06_heterogeneous_beats_pca_nn():
    gaps = []
    for seed in range(20):
        Xs, ys, Xt, yt = synth_hetero_map(60, 3, seed, d_s=10, d_t=3)
        hold = np.concatenate([np.flatnonzero(yt == c)[:3] for c in range(3)])
        rest = np.setdiff1d(np.arange(yt.size), hold)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        tgt_l = LabeledDataset(FeatureMatrix(Xt[:, hold]), yt[hold], 3)
        Xu, yu = Xt[:, rest], yt[rest]
        model = fit(src, Xu, tgt_l,
                    FitConfig(hyper=Hyperparams(d=2, T=5), mode="semisupervised"))
        acc = evaluate(predict(model, src, Xu, tgt_l), yu)
        m = min(Xs.shape[0], Xu.shape[0])
        base_pred = ys[np.argmin(
            cdist(_pca_scores(Xu, m).T, _pca_scores(Xs, m).T), axis=1)]
        gaps.append(100 * (acc - evaluate(base_pred, yu)))
    # without labeled targets a heterogeneous fit has nothing to start the
    # pseudo labels from, and is refused
    Xs, ys, Xt, _ = synth_hetero_map(20, 3, 99, d_s=10, d_t=3)
    with pytest.raises(ValueError, match=r"heterogeneous fits need labeled target samples "
                                         r"\(target_labeled\)"):
        fit(LabeledDataset(FeatureMatrix(Xs), ys, 3), Xt, None,
            FitConfig(hyper=Hyperparams(d=2, T=2)))
    median_gap = float(np.median(gaps))
    assert median_gap >= 5.0
    _passline(6, f"median gain {median_gap:+.1f}pp over 20 seeds "
                 f"(min {min(gaps):+.1f}); unsupervised fit refused")


# -----------------------------------------------------------------------
# 8. the sample-span map reproduces the full feature-space optimum


def test_08_span_map_keeps_primal_optimum():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n_s, n_u, d_s, d_t, C, d = 8, 7, 16, 14, 2, 2
        X_s = rng.normal(size=(d_s, n_s))
        X_u = rng.normal(size=(d_t, n_u))
        ys = rng.integers(0, C, n_s); ys[:C] = np.arange(C)
        yu = rng.integers(0, C, n_u); yu[:C] = np.arange(C)
        alpha = rng.uniform(0.2, 1.0, n_s)
        beta = rng.uniform(0.2, 1.0, n_u)
        hyper = Hyperparams(gamma=0.2, mu=0.3, eps_reg=1e-10)
        coeffs = build_coeffs(alpha, beta, ys, yu, 0.5, C)

        def problem(Xs, Xu):
            scat = scatter_matrices(Xs, ys, Xu, yu, hyper)
            return assemble_problem(assemble_M(Xs, Xu, coeffs), scat, hyper)

        Q_s = _span_basis(FeatureMatrix(X_s))
        Q_u = _span_basis(FeatureMatrix(X_u))
        assert Q_s.shape == (d_s, n_s) and Q_u.shape == (d_t, n_u)
        full = problem(X_s, X_u)
        lam_full = solve(full, d).eigenvalues
        span = solve(problem(Q_s.T @ X_s, Q_u.T @ X_u), d)
        A, B = np.split(span.P, [n_s])
        P = np.vstack([Q_s @ A, Q_u @ B])
        quotient = (np.einsum("ij,ij->j", P, full.LHS @ P)
                    / np.einsum("ij,ij->j", P, full.RHS @ P))
        gap = max(np.max(np.abs(lam_full - span.eigenvalues)),
                  np.max(np.abs(lam_full - quotient))) / max(1.0, lam_full[0])
        worst = max(worst, gap)
        assert gap <= 1e-6
    _passline(8, f"5 instances (d > n), max gap to the full-space optimum {worst:.2e}")


# -----------------------------------------------------------------------
# 10. optional: Office+Caltech DeCAF6 benchmark (user-supplied CSVs)


def test_10_office_caltech_decaf_optional():
    root = os.environ.get("LPJT_OFFICE_CALTECH")
    if not root:
        pytest.skip("set LPJT_OFFICE_CALTECH to a directory with "
                    "caltech.csv and amazon.csv DeCAF6 exports")
    src = load_labeled(os.path.join(root, "caltech.csv"))
    tgt = load_labeled(os.path.join(root, "amazon.csv"))
    hyper = Hyperparams(mu=0.5, gamma=0.01, d=40, T=5)
    cfg = FitConfig(hyper=hyper, normalize="unit+zscore")
    model = fit(src, tgt.features, None, cfg)
    acc = 100 * evaluate(predict(model, src, tgt.features), tgt.labels)
    assert abs(acc - 92.06) <= 2.0
    _passline(10, f"Caltech->Amazon DeCAF6 accuracy {acc:.2f}%")

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpjt.core import Hyperparams
from lpjt.eigsolve import (
    EigProblem,
    SolverError,
    assemble_problem,
    solve,
    split_projection,
)
from lpjt.graph import ScatterSet, scatter_matrices
from lpjt.mmd import MmdBlocks, assemble_M, build_coeffs, mmd_value


def random_spd(rng, n, scale=1.0):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q @ np.diag(rng.uniform(0.5, 2.0, n) * scale) @ Q.T


def random_psd(rng, n):
    G = rng.normal(size=(n, n + 2))
    return G @ G.T / n


def zero_scatter(d_s, d_t):
    z_s, z_t = np.zeros((d_s, d_s)), np.zeros((d_t, d_t))
    return ScatterSet(S_w_s=z_s, S_b_s=z_s, S_w_u=z_t, S_b_u=z_t, S_h_u=z_t)


def instance_for_assembly(seed, n_s=14, n_u=11, d_s=4, d_t=3, C=2):
    rng = np.random.default_rng(seed)
    X_s = rng.normal(size=(d_s, n_s))
    X_u = rng.normal(size=(d_t, n_u))
    ys = rng.integers(0, C, n_s); ys[:C] = np.arange(C)
    yu = rng.integers(0, C, n_u); yu[:C] = np.arange(C)
    alpha = rng.uniform(0.1, 1.0, n_s)
    beta = rng.uniform(0.1, 1.0, n_u)
    return X_s, X_u, ys, yu, alpha, beta


class TestAssemble:
    def test_degenerate_weights_leave_only_ridge(self):
        d_s = d_t = 3
        eps = 1e-4
        hyper = Hyperparams(gamma=0.0, mu=0.0, eps_reg=eps)
        M = MmdBlocks(np.zeros((d_s, d_s)), np.zeros((d_t, d_t)), np.zeros((d_s, d_t)))
        prob = assemble_problem(M, zero_scatter(d_s, d_t), hyper)
        assert_allclose(prob.RHS, eps * np.eye(6))
        assert_allclose(prob.LHS, np.zeros((6, 6)))

    def test_target_variance_enters_objective_side(self):
        d_s = d_t = 2
        hyper = Hyperparams(gamma=0.0, mu=0.7, eps_reg=1e-8)
        M = MmdBlocks(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
        scat = zero_scatter(d_s, d_t)
        scat = ScatterSet(scat.S_w_s, scat.S_b_s, scat.S_w_u, scat.S_b_u, np.eye(2))
        prob = assemble_problem(M, scat, hyper)
        assert_allclose(prob.LHS[2:, 2:], 0.7 * np.eye(2))
        assert_allclose(prob.RHS[2:, 2:], 0.7 * np.eye(2) + 1e-8 * np.eye(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_quadratic_form_composes_module_oracles(self, seed):
        X_s, X_u, ys, yu, alpha, beta = instance_for_assembly(seed)
        rng = np.random.default_rng(seed + 100)
        d_s, d_t, d = X_s.shape[0], X_u.shape[0], 2
        delta, C = 0.5, 2
        hyper = Hyperparams(gamma=0.3, mu=0.2, delta=delta, eps_reg=1e-9)
        scat = scatter_matrices(X_s, ys, X_u, yu, hyper)
        coeffs = build_coeffs(alpha, beta, ys, yu, delta, C)
        blocks = assemble_M(X_s, X_u, coeffs)
        prob = assemble_problem(blocks, scat, hyper)
        A = rng.normal(size=(d_s, d))
        B = rng.normal(size=(d_t, d))
        P = np.vstack([A, B])
        lhs_val = np.trace(P.T @ prob.RHS @ P)
        e_mg, e_cd = mmd_value(X_s, X_u, A, B, alpha, beta, ys, yu, delta)
        locality = np.trace(A.T @ scat.S_w_s @ A) + np.trace(B.T @ scat.S_w_u @ B)
        oracle = (
            e_mg + e_cd
            + hyper.gamma * locality
            + hyper.mu * np.sum(B * B)
            + 1e-9 * np.sum(P * P)
        )
        assert abs(lhs_val - oracle) <= 1e-6 * max(1.0, abs(oracle))

    def test_dimension_mismatch_rejected(self):
        M = MmdBlocks(np.zeros((3, 3)), np.zeros((2, 2)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            assemble_problem(M, zero_scatter(3, 2), Hyperparams())

    def test_non_finite_entries_rejected(self):
        bad = np.full((2, 2), np.inf)
        M = MmdBlocks(bad, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(SolverError, match="finite"):
            assemble_problem(M, zero_scatter(2, 2), Hyperparams())

    def test_non_finite_objective_side_rejected(self):
        M = MmdBlocks(np.eye(2), np.zeros((2, 2)), np.eye(2))
        z = np.zeros((2, 2))
        S = ScatterSet(S_w_s=z, S_b_s=np.full((2, 2), np.inf), S_w_u=z, S_b_u=z, S_h_u=z)
        with pytest.raises(SolverError, match="objective-side.*finite"):
            assemble_problem(M, S, Hyperparams())


class TestSolve:
    def test_identity_pencil(self):
        prob = EigProblem(LHS=np.eye(4), RHS=np.eye(4))
        sol = solve(prob, 2)
        assert_allclose(sol.eigenvalues, [1.0, 1.0])

    def test_diagonal_pencil(self):
        prob = EigProblem(LHS=np.diag([4.0, 1.0]), RHS=np.eye(2))
        sol = solve(prob, 1)
        assert_allclose(sol.eigenvalues, [4.0])
        assert_allclose(np.abs(sol.P[:, 0]), [1.0, 0.0], atol=1e-12)
        assert sol.P[0, 0] > 0   # deterministic sign

    @pytest.mark.parametrize("seed", range(10))
    def test_residual_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 61))
        d = int(rng.integers(1, min(n, 6)))
        LHS = random_psd(rng, n)
        RHS = random_spd(rng, n)
        sol = solve(EigProblem(LHS=LHS, RHS=RHS), d)
        lhs_norm = np.linalg.norm(LHS, 2)
        for j in range(d):
            res = LHS @ sol.P[:, j] - sol.eigenvalues[j] * (RHS @ sol.P[:, j])
            assert np.linalg.norm(res) <= 1e-8 * max(lhs_norm, 1e-30)
        assert_allclose(sol.P.T @ RHS @ sol.P, np.eye(d), atol=1e-6)
        assert sol.eigenvalues.min() >= -1e-8
        assert np.all(np.diff(sol.eigenvalues) <= 1e-12)

    def test_deterministic_runs(self):
        rng = np.random.default_rng(77)
        LHS, RHS = random_psd(rng, 12), random_spd(rng, 12)
        s1 = solve(EigProblem(LHS=LHS, RHS=RHS), 3)
        s2 = solve(EigProblem(LHS=LHS.copy(), RHS=RHS.copy()), 3)
        assert np.array_equal(s1.P, s2.P)

    def test_ridge_halving_barely_moves_eigenvalues(self):
        X_s, X_u, ys, yu, alpha, beta = instance_for_assembly(21)
        hyper = Hyperparams(gamma=0.3, mu=0.2)
        scat = scatter_matrices(X_s, ys, X_u, yu, hyper)
        blocks = assemble_M(X_s, X_u, build_coeffs(alpha, beta, ys, yu, 0.5, 2))
        prob = assemble_problem(blocks, scat, hyper)
        half = Hyperparams(gamma=0.3, mu=0.2, eps_reg=prob.eps_used / 2)
        prob_half = assemble_problem(blocks, scat, half)
        v1 = solve(prob, 2).eigenvalues
        v2 = solve(prob_half, 2).eigenvalues
        assert np.max(np.abs(v1 - v2) / np.abs(v1)) <= 10 * 1e-6

    def test_requesting_too_many_eigenvectors(self):
        with pytest.raises(ValueError):
            solve(EigProblem(LHS=np.eye(2), RHS=np.eye(2)), 3)

    def test_singular_pencil_reports_condition(self):
        from lpjt.eigsolve import SolverError

        with pytest.raises(SolverError, match="cond"):
            solve(EigProblem(LHS=np.eye(3), RHS=np.zeros((3, 3))), 1)


class TestSplit:
    def test_column_split(self):
        A, B = split_projection(np.array([[1.0], [2.0], [3.0]]), 2, 1)
        assert_allclose(A, [[1.0], [2.0]])
        assert_allclose(B, [[3.0]])

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(4, 2))
        B = rng.normal(size=(3, 2))
        A2, B2 = split_projection(np.vstack([A, B]), 4, 3)
        assert_allclose(A2, A)
        assert_allclose(B2, B)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            split_projection(np.ones((4, 1)), 2, 3)


class TestCoupling:
    def test_large_coupling_ties_projections(self):
        X_s, X_u, ys, yu, alpha, beta = instance_for_assembly(31, d_s=4, d_t=4)
        blocks = assemble_M(X_s, X_u, build_coeffs(alpha, beta, ys, yu, 0.5, 2))
        scale = np.linalg.norm(blocks.M_ss, 2)
        hyper = Hyperparams(gamma=0.3, mu=0.2, lambda_couple=1e6 * scale)
        scat = scatter_matrices(X_s, ys, X_u, yu, hyper)
        prob = assemble_problem(blocks, scat, hyper, homogeneous=True)
        A, B = split_projection(solve(prob, 2).P, 4, 4)
        assert np.linalg.norm(A - B) / np.linalg.norm(A) <= 1e-2


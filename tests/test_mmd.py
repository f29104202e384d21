import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lpjt import mmd
from lpjt.mmd import (
    MmdBlocks,
    assemble_M,
    build_coeffs,
    conditional_coeffs,
    marginal_coeffs,
    mmd_distance,
    mmd_value,
)


def random_instance(seed, n_s_max=30, n_u_max=30, d_max=8, c_max=4):
    """A random weighted transfer problem with every class in both domains."""
    rng = np.random.default_rng(seed)
    C = int(rng.integers(1, c_max + 1))
    n_s = int(rng.integers(C, n_s_max + 1))
    n_u = int(rng.integers(C, n_u_max + 1))
    d_s = int(rng.integers(1, d_max + 1))
    d_t = int(rng.integers(1, d_max + 1))
    d = int(rng.integers(1, min(d_s, d_t) + 1))
    X_s = rng.normal(size=(d_s, n_s))
    X_u = rng.normal(size=(d_t, n_u))
    ys = rng.integers(0, C, n_s)
    yu = rng.integers(0, C, n_u)
    ys[:C] = np.arange(C)
    yu[:C] = np.arange(C)
    alpha = rng.uniform(0.05, 1.0, n_s)
    beta = rng.uniform(0.05, 1.0, n_u)
    delta = float(rng.uniform(0.2, 1.0))
    A = rng.normal(size=(d_s, d))
    B = rng.normal(size=(d_t, d))
    return X_s, X_u, A, B, alpha, beta, ys, yu, delta, C


def rule_instance(seed):
    """A random instance with every kind of class the MMD's class rule
    tells apart: C shared classes, class C in the source only, C + 1 in
    the target only, C + 2 in neither domain (as a class only the labeled
    targets hold) and C + 3 shared with a single member per domain."""
    X_s, X_u, A, B, alpha, beta, ys, yu, delta, C = random_instance(seed)
    rng = np.random.default_rng(seed + 200)
    extra_s, extra_u = [C, C, C + 3], [C + 1, C + 1, C + 3]
    X_s = np.hstack([X_s, rng.normal(size=(X_s.shape[0], 3))])
    X_u = np.hstack([X_u, rng.normal(size=(X_u.shape[0], 3))])
    alpha = np.append(alpha, rng.uniform(0.05, 1.0, 3))
    beta = np.append(beta, rng.uniform(0.05, 1.0, 3))
    return X_s, X_u, A, B, alpha, beta, np.append(ys, extra_s), np.append(yu, extra_u), delta, C + 4


def dense_sandwich(X_s, X_u, H_s, H_u, H_su):
    """The blocks M = X H X^T from dense coefficient matrices, symmetrized."""
    M_ss = X_s @ H_s @ X_s.T
    M_uu = X_u @ H_u @ X_u.T
    return MmdBlocks(M_ss=(M_ss + M_ss.T) / 2.0, M_uu=(M_uu + M_uu.T) / 2.0,
                     M_su=X_s @ H_su @ X_u.T)


def trace_form(X_s, X_u, A, B, H_s, H_u, H_su):
    """tr(A^T X H X^T A) + ... - 2 tr(A^T X_s H_su X_u^T B)."""
    M = dense_sandwich(X_s, X_u, H_s, H_u, H_su)
    return (
        np.trace(A.T @ M.M_ss @ A)
        + np.trace(B.T @ M.M_uu @ B)
        - 2.0 * np.trace(A.T @ M.M_su @ B)
    )


class TestMarginalCoeffs:
    def test_uniform_weights_quarter(self):
        H_sm, H_um, H_sum = marginal_coeffs([1.0, 1.0], [1.0, 1.0], 1.0)
        assert_allclose(H_sm, 0.25 * np.ones((2, 2)))
        assert_allclose(H_um, 0.25 * np.ones((2, 2)))
        assert_allclose(H_sum, 0.25 * np.ones((2, 2)))

    def test_zero_alpha_zeroes_blocks(self):
        H_sm, _, H_sum = marginal_coeffs(np.zeros(3), np.ones(2), 0.5)
        assert np.all(H_sm == 0.0) and np.all(H_sum == 0.0)

    def test_rank_one(self):
        rng = np.random.default_rng(1)
        H_sm, _, _ = marginal_coeffs(rng.uniform(0.1, 1, 8), rng.uniform(0.1, 1, 5), 0.5)
        s = np.linalg.svd(H_sm, compute_uv=False)
        assert s[1] <= 1e-10

    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError):
            marginal_coeffs([1.0], [1.0], 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_and_delta_rejected(self, bad):
        # NaN passes a sign check: it fails both `< 0` and `<= 0`
        labels, eye, X = [0, 0], np.eye(1), np.ones((1, 2))
        calls = (
            lambda a, b, delta: marginal_coeffs(a, b, delta),
            lambda a, b, delta: conditional_coeffs(a, b, labels, labels, delta, 1),
            lambda a, b, delta: build_coeffs(a, b, labels, labels, delta, 1),
            lambda a, b, delta: mmd_value(X, X, eye, eye, a, b, labels, labels, delta),
            lambda a, b, delta: mmd_distance(X, X, labels, labels, a, b, delta),
        )
        ok = [0.5, 0.5]
        for call in calls:
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                call(ok, ok, bad)
            with pytest.raises(ValueError, match="alpha entries must be finite"):
                call([bad, 0.5], ok, 0.5)
            with pytest.raises(ValueError, match="beta entries must be finite"):
                call(ok, [0.5, bad], 0.5)


class TestConditionalCoeffs:
    def test_single_sample_class(self):
        delta = 0.7
        H_sc, H_uc, H_suc = conditional_coeffs(
            [delta], [delta], [0], [0], delta, 1
        )
        assert_allclose(H_sc, [[2.0]])
        assert_allclose(H_uc, [[2.0]])
        assert_allclose(H_suc, [[2.0]])

    def test_class_absent_in_target_skipped(self):
        with pytest.warns(UserWarning, match="missing"):
            H_sc, _, H_suc = conditional_coeffs(
                [0.5, 0.5], [0.5], [0, 1], [0], 0.5, 2
            )
        assert np.all(H_suc[1, :] == 0.0)
        assert np.all(H_sc[1, :] == 0.0)

    def test_matches_per_class_loop_oracle(self):
        rng = np.random.default_rng(2)
        C, n_s, n_u = 3, 14, 11
        ys = rng.integers(0, C, n_s); ys[:C] = np.arange(C)
        yu = rng.integers(0, C, n_u); yu[:C] = np.arange(C)
        alpha = rng.uniform(0.1, 1, n_s)
        beta = rng.uniform(0.1, 1, n_u)
        delta = 0.5
        H_sc, H_uc, H_suc = conditional_coeffs(alpha, beta, ys, yu, delta, C)
        ref_sc = np.zeros((n_s, n_s))
        ref_uc = np.zeros((n_u, n_u))
        ref_suc = np.zeros((n_s, n_u))
        for c in range(C):
            si = np.flatnonzero(ys == c)
            ui = np.flatnonzero(yu == c)
            for i in si:
                for j in si:
                    ref_sc[i, j] += alpha[i] * alpha[j] / (delta**2 * len(si) ** 2)
                ref_sc[i, i] += alpha[i] ** 2 / (delta**2 * len(si))
            for i in ui:
                for j in ui:
                    ref_uc[i, j] += beta[i] * beta[j] / (delta**2 * len(ui) ** 2)
                ref_uc[i, i] += beta[i] ** 2 / (delta**2 * len(ui))
            for i in si:
                for j in ui:
                    ref_suc[i, j] += 2 * alpha[i] * beta[j] / (delta**2 * len(si) * len(ui))
        assert np.max(np.abs(H_sc - ref_sc)) <= 1e-12
        assert np.max(np.abs(H_uc - ref_uc)) <= 1e-12
        assert np.max(np.abs(H_suc - ref_suc)) <= 1e-12


class TestAssemble:
    def test_zero_coefficients(self):
        M = dense_sandwich(np.ones((3, 2)), np.ones((3, 2)), *(np.zeros((2, 2)),) * 3)
        assert np.all(M.M_ss == 0) and np.all(M.M_uu == 0) and np.all(M.M_su == 0)

    def test_scalar_case_by_hand(self):
        x_s = 3.0
        H_sm, H_sc = np.array([[0.7]]), np.array([[0.3]])
        M = dense_sandwich(np.array([[x_s]]), np.array([[2.0]]), H_sm + H_sc,
                           np.zeros((1, 1)), np.zeros((1, 1)))
        assert_allclose(M.M_ss, [[x_s**2 * (0.7 + 0.3)]])

    def test_shape_mismatch(self):
        co = build_coeffs(np.full(3, 0.5), np.full(2, 0.5), [0, 0, 0], [0, 0], 0.5, 1)
        with pytest.raises(ValueError):
            assemble_M(np.ones((2, 4)), np.ones((2, 2)), co)

    @pytest.mark.parametrize("seed", range(12))
    def test_factored_matches_dense_views(self, seed):
        # one extra class, present in the source only (even seeds) or in
        # the target only (odd seeds)
        X_s, X_u, _, _, alpha, beta, ys, yu, delta, C = random_instance(seed)
        rng = np.random.default_rng(seed + 100)
        if seed % 2 == 0:
            X_s = np.hstack([X_s, rng.normal(size=(X_s.shape[0], 2))])
            alpha, ys = np.append(alpha, [0.3, 0.8]), np.append(ys, [C, C])
        else:
            X_u = np.hstack([X_u, rng.normal(size=(X_u.shape[0], 2))])
            beta, yu = np.append(beta, [0.3, 0.8]), np.append(yu, [C, C])
        with pytest.warns(UserWarning, match="missing"):
            co = build_coeffs(alpha, beta, ys, yu, delta, C + 1)
            H_sc, H_uc, H_suc = conditional_coeffs(alpha, beta, ys, yu, delta, C + 1)
        H_sm, H_um, H_sum = marginal_coeffs(alpha, beta, delta)
        dense = dense_sandwich(X_s, X_u, H_sm + H_sc, H_um + H_uc, H_sum + H_suc)
        M = assemble_M(X_s, X_u, co)
        for name in ("M_ss", "M_uu", "M_su"):
            ref = getattr(dense, name)
            assert np.max(np.abs(getattr(M, name) - ref)) <= 1e-12 * np.abs(ref).max()

    def test_dense_views_catch_a_broken_class_rule(self, monkeypatch):
        # a rule that drops the first shared class from its members and
        # counts: assemble_M follows it, conditional_coeffs finds its classes
        # itself, so the two must disagree
        rule = mmd._class_rule

        def broken(labels_s, labels_u, num_classes=None):
            members, counts_s, counts_u = rule(labels_s, labels_u, num_classes)
            c = next(c for c, (si, ui) in enumerate(members) if si.size and ui.size)
            members[c] = (np.empty(0, np.intp), np.empty(0, np.intp))
            return members, np.delete(counts_s, 1, axis=1), np.delete(counts_u, 1, axis=1)

        X_s, X_u, _, _, alpha, beta, ys, yu, delta, C = random_instance(3)
        monkeypatch.setattr(mmd, "_class_rule", broken)
        M = assemble_M(X_s, X_u, build_coeffs(alpha, beta, ys, yu, delta, C))
        H_sm, H_um, H_sum = marginal_coeffs(alpha, beta, delta)
        H_sc, H_uc, H_suc = conditional_coeffs(alpha, beta, ys, yu, delta, C)
        dense = dense_sandwich(X_s, X_u, H_sm + H_sc, H_um + H_uc, H_sum + H_suc)
        gap = max(np.abs(getattr(M, name) - getattr(dense, name)).max()
                  for name in ("M_ss", "M_uu", "M_su"))
        assert gap > 1e-6 * np.abs(dense.M_ss).max()

    def test_block_matrix_psd(self):
        X_s, X_u, A, B, alpha, beta, ys, yu, delta, C = random_instance(5)
        co = build_coeffs(alpha, beta, ys, yu, delta, C)
        M = assemble_M(X_s, X_u, co)
        d_s, d_t = X_s.shape[0], X_u.shape[0]
        full = np.zeros((d_s + d_t, d_s + d_t))
        full[:d_s, :d_s] = M.M_ss
        full[d_s:, d_s:] = M.M_uu
        full[:d_s, d_s:] = -M.M_su
        full[d_s:, :d_s] = -M.M_us
        assert np.linalg.eigvalsh(full).min() >= -1e-6


class TestMmdValue:
    def test_identical_domains_zero_marginal(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(3, 8))
        A = rng.normal(size=(3, 2))
        y = rng.integers(0, 2, 8)
        e_mg, _ = mmd_value(X, X, A, A, np.ones(8), np.ones(8), y, y, 1.0)
        assert e_mg <= 1e-20

    def test_single_pair_by_hand(self):
        # one sample per domain, same class, embeddings 1 and 0
        e_mg, e_cd = mmd_value(
            np.array([[1.0]]), np.array([[1.0]]),
            np.array([[1.0]]), np.array([[0.0]]),
            [1.0], [1.0], [0], [0], 1.0,
        )
        assert_allclose(e_cd, 2.0)
        assert_allclose(e_mg, 1.0)

    @pytest.mark.parametrize("make,seed", [
        *(pytest.param(random_instance, seed, id=str(seed)) for seed in range(10)),
        *(pytest.param(rule_instance, seed, id=f"rule-{seed}") for seed in range(10)),
    ])
    def test_matches_trace_form(self, make, seed):
        # and so does the trace form of assemble_M's blocks
        X_s, X_u, A, B, alpha, beta, ys, yu, delta, C = make(seed)
        e_mg, e_cd = mmd_value(X_s, X_u, A, B, alpha, beta, ys, yu, delta)
        H_sm, H_um, H_sum = marginal_coeffs(alpha, beta, delta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)    # one-domain classes
            H_sc, H_uc, H_suc = conditional_coeffs(alpha, beta, ys, yu, delta, C)
            M = assemble_M(X_s, X_u, build_coeffs(alpha, beta, ys, yu, delta, C))
        assert abs(e_mg - trace_form(X_s, X_u, A, B, H_sm, H_um, H_sum)) <= 1e-8
        assert abs(e_cd - trace_form(X_s, X_u, A, B, H_sc, H_uc, H_suc)) <= 1e-8
        got = (np.trace(A.T @ M.M_ss @ A) + np.trace(B.T @ M.M_uu @ B)
               - 2.0 * np.trace(A.T @ M.M_su @ B))
        assert abs(got - (e_mg + e_cd)) <= 1e-12 * (e_mg + e_cd)

    @pytest.mark.parametrize("seed", range(6))
    def test_nonnegative(self, seed):
        X_s, X_u, A, B, alpha, beta, ys, yu, delta, _ = random_instance(seed + 50)
        e_mg, e_cd = mmd_value(X_s, X_u, A, B, alpha, beta, ys, yu, delta)
        assert e_mg >= 0.0 and e_cd >= 0.0


class TestCoeffProperties:
    def test_feasible_weights_annihilate_ones(self):
        rng = np.random.default_rng(6)
        delta = 0.5
        n_s, n_u, C = 12, 9, 3
        ys = np.repeat(np.arange(C), 4)
        yu = np.repeat(np.arange(C), 3)
        alpha = rng.uniform(0.1, 0.9, n_s)
        beta = rng.uniform(0.1, 0.9, n_u)
        for c in range(C):
            alpha[ys == c] += delta - alpha[ys == c].mean()
            beta[yu == c] += delta - beta[yu == c].mean()
        H_sm, H_um, H_sum = marginal_coeffs(alpha, beta, delta)
        top = H_sm @ np.ones(n_s) - H_sum @ np.ones(n_u)
        bottom = -H_sum.T @ np.ones(n_s) + H_um @ np.ones(n_u)
        assert np.max(np.abs(np.concatenate([top, bottom]))) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 10.0), st.integers(0, 2**31 - 1))
    def test_joint_rescaling_leaves_blocks_unchanged(self, c, seed):
        X_s, X_u, A, B, alpha, beta, ys, yu, delta, C = random_instance(seed % 1000)
        base = assemble_M(X_s, X_u, build_coeffs(alpha, beta, ys, yu, delta, C))
        scaled = assemble_M(X_s, X_u, build_coeffs(c * alpha, c * beta, ys, yu, c * delta, C))
        for name in ("M_ss", "M_uu", "M_su"):
            a, b = getattr(base, name), getattr(scaled, name)
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.abs(a).max())


class TestMmdDistance:
    def test_identical_embeddings_zero(self):
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(2, 10))
        y = rng.integers(0, 2, 10)
        assert mmd_distance(Z, Z, y, y) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_class_loop(self, seed):
        X_s, X_u, A, B, alpha, beta, ys, yu, delta, C = rule_instance(seed)
        Z_s, Z_u = A.T @ X_s, B.T @ X_u
        for a, b, dl in ((alpha, beta, delta), (None, None, 1.0)):
            a_, b_ = (np.ones(ys.size), np.ones(yu.size)) if a is None else (a, b)
            ref = 0.0
            for si, ui in [(ys >= 0, yu >= 0)] + [(ys == c, yu == c) for c in range(C)]:
                if si.any() and ui.any():
                    diff = ((Z_s[:, si] * a_[si]).sum(axis=1) / (dl * si.sum())
                            - (Z_u[:, ui] * b_[ui]).sum(axis=1) / (dl * ui.sum()))
                    ref += float(diff @ diff)
            got = mmd_distance(Z_s, Z_u, ys, yu, a, b, dl)
            assert abs(got - ref) <= 1e-12 * ref

    def test_length_mismatch_rejected(self):
        Z, y, w = np.ones((2, 4)), [0, 0, 1, 1], np.full(4, 0.5)
        with pytest.raises(ValueError, match="label vectors must match weight vectors"):
            mmd_distance(Z, Z, y[:3], y)
        with pytest.raises(ValueError, match="label vectors must match weight vectors"):
            mmd_distance(Z, Z, y, y, w, w[:3], 0.5)
        with pytest.raises(ValueError, match="weight vectors must match the sample counts"):
            mmd_distance(Z, Z, y[:3], y, w[:3], w, 0.5)


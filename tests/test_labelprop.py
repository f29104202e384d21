import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from lpjt.core import FeatureMatrix, Hyperparams, LabeledDataset
from lpjt.graph import knn_heat_graph
from lpjt.labelprop import _band_solve, _similarity_edges, classify, propagate, similarity_matrix


def brute_force_any_pair(Z, k):
    """O(n^2) reference: each sample's k nearest other samples, equal
    distances to the lower index, OR-symmetrized."""
    n = Z.shape[1]
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        cand = sorted((j for j in range(n) if j != i),
                      key=lambda j: (np.sum((Z[:, i] - Z[:, j]) ** 2), j))
        for j in cand[:k]:
            adj[i, j] = adj[j, i] = True
    return adj


def dense_similarity(Z, k):
    """The dense builder the tree search replaced: `knn_heat_graph` over
    the full `cdist` matrix, then the D^{-1/2} normalization."""
    n = Z.shape[1]
    W = knn_heat_graph(cdist(Z.T, Z.T, "sqeuclidean"), ~np.eye(n, dtype=bool), k)
    rows = np.repeat(np.arange(n), np.diff(W.indptr))
    deg = np.bincount(rows, weights=W.data, minlength=n)
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0.0, 1.0 / np.sqrt(deg), 0.0)
    W.data *= dinv[rows] * dinv[W.indices]
    return W


def oracle_fixture(kind, n, d):
    """Random, rounded (near ties), duplicated-column or integer-grid
    (exact ties) samples."""
    rng = np.random.default_rng([n, d])
    if kind == "random":
        return rng.normal(size=(d, n))
    if kind == "rounded":
        return np.round(rng.normal(size=(d, n)), 1)
    if kind == "duplicated":
        return np.repeat(rng.normal(size=(d, -(-n // 3))), 3, axis=1)[:, :n]
    return rng.integers(0, 3, size=(d, n)).astype(float)


KINDS = ("random", "rounded", "duplicated", "grid")
ORACLE_CASES = [(n, d, kind, k) for n in (2, 3, 7, 50, 300) for d in (1, 2, 3, 10, 40)
                for kind in KINDS for k in sorted({1, 5, n - 1, n + 3})]
ORACLE_CASES += [(1191, d, kind, k) for d in (2, 10) for kind in KINDS for k in (1, 5)]


def random_similarity(rng, n, k=3):
    Z = rng.normal(size=(2, n))
    return similarity_matrix(Z, k)


def dense_closed_form(S, Y0, sigma):
    """Reference fixed point by a dense LU on the densified graph."""
    A = S.toarray()
    A *= -sigma
    A.flat[::A.shape[0] + 1] += 1.0
    return (1.0 - sigma) * np.linalg.solve(A, Y0)


def edge_solve(Z, k, Y0, sigma):
    """`classify`'s solve: the band solve over the k-NN edges of Z."""
    return _band_solve(*_similarity_edges(Z, k), Y0, sigma)


def random_seeds(rng, n, C=3):
    Y0 = np.zeros((n, C))
    labeled = rng.choice(n, size=max(1, n // 4), replace=False)
    Y0[labeled, rng.integers(0, C, labeled.size)] = 1.0
    return Y0


class TestSimilarityMatrix:
    def test_two_identical_points(self):
        S = similarity_matrix(np.zeros((2, 2)), k=1).toarray()
        assert_allclose(S, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_underflowed_weights_leave_zero_rows(self):
        # distance so large that exp(-d^2/2) underflows to exactly 0
        Z = np.array([[0.0, 60.0]])
        S = similarity_matrix(Z, k=1).toarray()
        assert np.all(S == 0.0)

    def test_subnormal_degrees_keep_s_finite(self):
        # 0 and 1 pair with weight exp(-1/2); 2 and 3, sqrt(1450) apart, with
        # the subnormal exp(-725), so 1 / sqrt(deg) squared overflows there
        Z = np.array([[0.0, 1.0, 100.0, 100.0 + np.sqrt(1450.0)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = similarity_matrix(Z, k=1)
            label = classify(LabeledDataset(FeatureMatrix(Z[:, 2:3]), [1], 2), Z[:, 3:],
                             Hyperparams(k_w=1))
        S = S.toarray()
        assert np.array_equal(S[2:, 2:], [[0.0, 1.0], [1.0, 0.0]])
        # the other component keeps the plain product's entries, bit for bit
        assert np.array_equal(S[:2, :2], dense_similarity(Z[:, :2], 1).toarray())
        assert not S[:2, 2:].any() and not S[2:, :2].any()
        assert label.tolist() == [1]

    def test_zero_weight_edge_between_subnormal_degrees(self):
        # at k=2 the outer samples, 2 * sqrt(1450) apart, pair with weight 0
        # while their degrees are subnormal
        r = np.sqrt(1450.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = similarity_matrix(np.array([[0.0, r, 2.0 * r]]), k=2)
        assert S.nnz == 6
        S = S.toarray()
        assert np.array_equal(S, S.T) and S[0, 2] == 0.0
        assert_allclose(S, [[0.0, 0.5 ** 0.5, 0.0], [0.5 ** 0.5, 0.0, 0.5 ** 0.5],
                            [0.0, 0.5 ** 0.5, 0.0]], rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_spectral_radius_at_most_one(self, seed):
        rng = np.random.default_rng(seed)
        S = random_similarity(rng, 10).toarray()
        assert np.abs(np.linalg.eigvalsh(S)).max() <= 1.0 + 1e-10

    def test_zero_diagonal_and_symmetry(self):
        rng = np.random.default_rng(5)
        S = random_similarity(rng, 12, k=4).toarray()
        assert np.all(np.diagonal(S) == 0.0)
        assert_allclose(S, S.T)

    @pytest.mark.parametrize("k", [1, 2, 4, 30])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["grid", "duplicates"])
    def test_tie_rule_matches_brute_force(self, kind, seed, k):
        # exact distance ties; k = 30 exceeds the 23 candidates per sample
        rng = np.random.default_rng(seed)
        if kind == "grid":
            Z = rng.integers(0, 3, size=(2, 24)).astype(float)
        else:
            Z = np.repeat(rng.integers(-2, 3, size=(2, 8)).astype(float), 3, axis=1)
        assert np.array_equal(similarity_matrix(Z, k).toarray() > 0, brute_force_any_pair(Z, k))

    @pytest.mark.parametrize("n,d,kind,k", ORACLE_CASES)
    def test_tree_search_equals_dense_builder(self, n, d, kind, k):
        Z = oracle_fixture(kind, n, d)
        S, expected = similarity_matrix(Z, k), dense_similarity(Z, k)
        assert np.array_equal(S.indptr, expected.indptr)
        assert np.array_equal(S.indices, expected.indices)
        assert np.array_equal(S.data, expected.data)

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    @pytest.mark.parametrize("kind", KINDS)
    def test_extreme_scales_equal_dense_builder(self, kind, scale):
        # at 1e160 squared distances overflow to inf and at 1e-160 they
        # underflow into subnormals; the tree searches a rescaled copy, so
        # neither raises, and S holds the dense builder's values (where
        # distances overflow, only the pattern of 0 weights may differ)
        Z = oracle_fixture(kind, 300, 2) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = similarity_matrix(Z, 5)
        assert np.array_equal(S.toarray(), dense_similarity(Z, 5).toarray())

    def test_memory_well_below_one_dense_matrix(self):
        n = 2000
        Z = np.random.default_rng(0).normal(size=(2, n))
        tracemalloc.start()
        try:
            similarity_matrix(Z, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an eighth of one n x n float64 array (32 MB)
        assert peak < n * n * 8 / 8

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            similarity_matrix(np.ones((2, 1)), k=1)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_structure(self, seed, k):
        rng = np.random.default_rng(seed)
        n = 40
        S = random_similarity(rng, n, k)
        assert isinstance(S, sp.csr_array)
        assert S.nnz <= 2 * k * n
        assert np.all(S.diagonal() == 0.0)
        assert (S != S.T).nnz == 0


def assert_label_free_rows_zero(S, Y0, Y):
    """Every node of a graph component that holds no labeled node scores
    exactly 0.0."""
    _, comp = connected_components(S.toarray(), directed=False)
    assert np.all(Y[~np.isin(comp, comp[Y0.any(axis=1)])] == 0.0)


class TestClosedForm:
    """`classify`'s band solve over the k-NN edges against `dense_closed_form`
    on the dense builder's graph."""

    @pytest.mark.parametrize("sigma", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("seed,n", [
        *(pytest.param(seed, None, id=str(seed)) for seed in range(6)),
        *(pytest.param(6, n, id=f"{n}-nodes") for n in (600, 1200))])
    def test_matches_dense_solve_on_random_graphs(self, seed, n, sigma):
        # 5 to 79 nodes, or the 600 and 1200 of the bench workloads' graphs
        rng = np.random.default_rng(seed)
        n = n or int(rng.integers(5, 80))
        k = int(rng.integers(1, 6))
        Z = rng.normal(size=(2, n))
        S, Y0 = dense_similarity(Z, k), random_seeds(rng, n)
        Y = edge_solve(Z, k, Y0, sigma)
        assert_allclose(Y, dense_closed_form(S, Y0, sigma), rtol=0, atol=1e-12)
        assert_label_free_rows_zero(S, Y0, Y)

    def test_matches_dense_solve_on_a_wide_band(self):
        # 2000 unit-normalized 40-D samples: their graph keeps a band of
        # about 1000 in reverse Cuthill-McKee order
        rng = np.random.default_rng(11)
        Z = rng.normal(size=(40, 2000))
        Z /= np.linalg.norm(Z, axis=0)
        Y0 = random_seeds(rng, 2000)
        assert_allclose(edge_solve(Z, 5, Y0, 0.9),
                        dense_closed_form(dense_similarity(Z, 5), Y0, 0.9), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,d,kind,k", ORACLE_CASES)
    def test_edge_path_equals_checked_pair(self, n, d, kind, k):
        # classify's solve from the edge list against a dense LU on the dense
        # builder's graph, which shares no code with it
        Z = oracle_fixture(kind, n, d)
        Y0 = random_seeds(np.random.default_rng([n, d, k]), n)
        assert_allclose(edge_solve(Z, k, Y0, 0.9),
                        dense_closed_form(dense_similarity(Z, k), Y0, 0.9), rtol=0, atol=1e-12)

    def test_memory_of_a_1200_node_solve(self):
        rng = np.random.default_rng(15)
        edges = _similarity_edges(rng.normal(size=(2, 1200)), 5)
        Y0 = random_seeds(rng, 1200)
        _band_solve(*edges, Y0, 0.9)
        tracemalloc.start()
        try:
            _band_solve(*edges, Y0, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_disconnected_components(self):
        # three clusters too far apart for any 2-NN edge between them, of 6
        # and of 200 points; the last holds no labeled sample
        for size in (6, 200):
            rng = np.random.default_rng(8)
            Z = np.hstack([rng.normal(size=(2, size)) + 100.0 * c for c in range(3)])
            S = dense_similarity(Z, 2)
            Y0 = np.zeros((3 * size, 2))
            Y0[0, 0] = Y0[size, 1] = 1.0
            Y = edge_solve(Z, 2, Y0, 0.9)
            assert_allclose(Y, dense_closed_form(S, Y0, 0.9), rtol=0, atol=1e-12)
            assert np.all(Y[2 * size:] == 0.0)
            assert np.all(Y[:size, 1] == 0.0) and np.all(Y[size:2 * size, 0] == 0.0)
            assert_label_free_rows_zero(S, Y0, Y)

    def test_underflowed_graph_returns_scaled_seeds(self):
        # every heat weight underflows: S has all-zero rows
        Z = np.array([[0.0, 60.0, 120.0, 180.0]])
        Y0 = np.zeros((4, 2))
        Y0[0, 1] = Y0[2, 0] = 1.0
        Y = edge_solve(Z, 1, Y0, 0.9)
        assert_allclose(Y, dense_closed_form(dense_similarity(Z, 1), Y0, 0.9), rtol=0, atol=1e-12)
        assert_allclose(Y, 0.1 * Y0, rtol=0, atol=1e-12)


class TestPropagate:
    def test_vanishing_sigma_returns_seeds(self):
        rng = np.random.default_rng(0)
        S = random_similarity(rng, 6)
        Y0 = np.zeros((6, 2))
        Y0[np.arange(6), np.arange(6) % 2] = 1.0
        res = propagate(S, Y0, sigma=1e-12)
        assert np.max(np.abs(res.soft_labels - Y0)) <= 1e-10

    def test_disconnected_components_adopt_local_seed(self):
        # two 2-node components, one labeled node each
        Z = np.array([[0.0, 0.1, 50.0, 50.1]])
        S = similarity_matrix(Z, k=1)
        Y0 = np.zeros((4, 2))
        Y0[0, 0] = 1.0
        Y0[2, 1] = 1.0
        res = propagate(S, Y0, sigma=0.9)
        assert res.hard_labels[1] == 0
        assert res.hard_labels[3] == 1

    @pytest.mark.parametrize("sigma", [0.5, 0.9])
    @pytest.mark.parametrize("seed", range(5))
    def test_iterate_matches_closed_form(self, sigma, seed):
        # and so does classify's band solve over the same edges
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(2, 8))
        Y0 = np.zeros((8, 3))
        Y0[np.arange(4), rng.integers(0, 3, 4)] = 1.0
        res = propagate(similarity_matrix(Z, 3), Y0, sigma=sigma)
        assert np.max(np.abs(res.soft_labels - edge_solve(Z, 3, Y0, sigma))) <= 1e-6

    def test_labeled_argmax_stable_on_coherent_graph(self):
        # clustered data: every labeled node's heaviest edge stays in-class
        rng = np.random.default_rng(3)
        Z = np.hstack([rng.normal(size=(2, 8)) * 0.2,
                       rng.normal(size=(2, 8)) * 0.2 + 3.0])
        S = similarity_matrix(Z, k=3)
        labels = np.repeat([0, 1], 8)
        Y0 = np.zeros((16, 2))
        Y0[np.arange(16), labels] = 1.0
        res = propagate(S, Y0, sigma=0.5)
        assert np.array_equal(res.hard_labels, labels)

    def test_monotone_geometric_convergence(self):
        rng = np.random.default_rng(4)
        S = random_similarity(rng, 10)
        sigma = 0.9
        Y0 = np.zeros((10, 2))
        Y0[:5, 0] = 1.0
        Y0[5:, 1] = 1.0
        Y_star = dense_closed_form(S, Y0, sigma)
        Y = Y0.copy()
        for _ in range(30):
            Y_next = sigma * (S @ Y) + (1 - sigma) * Y0
            lhs = np.linalg.norm(Y_next - Y_star)
            rhs = sigma * np.linalg.norm(Y - Y_star) + 1e-12
            assert lhs <= rhs
            Y = Y_next

    def test_sigma_bounds(self):
        with pytest.raises(ValueError):
            propagate(np.eye(2), np.eye(2), sigma=1.0)


class TestClassify:
    def _hyper(self, **kw):
        return Hyperparams(**kw)

    def test_coincident_point_inherits_label(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(2, 10))
        y = rng.integers(0, 2, 10)
        train = LabeledDataset(FeatureMatrix(X), y, 2)
        pred = classify(train, X[:, [3]], self._hyper(k_w=1))
        assert pred[0] == y[3]

    def test_separated_blobs_fully_recovered(self):
        rng = np.random.default_rng(6)
        train_X = np.hstack([rng.normal(size=(2, 10)) * 0.3,
                             rng.normal(size=(2, 10)) * 0.3 + 5.0])
        train_y = np.repeat([0, 1], 10)
        test_X = np.hstack([rng.normal(size=(2, 10)) * 0.3,
                            rng.normal(size=(2, 10)) * 0.3 + 5.0])
        test_y = np.repeat([0, 1], 10)
        train = LabeledDataset(FeatureMatrix(train_X), train_y, 2)
        pred = classify(train, test_X, self._hyper())
        assert np.mean(pred == test_y) == 1.0

    def test_agrees_with_nearest_neighbor_on_blobs(self):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(7)
        train_X = np.hstack([rng.normal(size=(2, 15)) * 0.5,
                             rng.normal(size=(2, 15)) * 0.5 + 4.0])
        train_y = np.repeat([0, 1], 15)
        test_X = np.hstack([rng.normal(size=(2, 15)) * 0.5,
                            rng.normal(size=(2, 15)) * 0.5 + 4.0])
        train = LabeledDataset(FeatureMatrix(train_X), train_y, 2)
        pred = classify(train, test_X, self._hyper())
        nn = train_y[np.argmin(cdist(test_X.T, train_X.T), axis=1)]
        assert np.mean(pred == nn) >= 0.95

    def test_equidistant_tie_breaks_to_lower_class(self):
        train = LabeledDataset(
            FeatureMatrix(np.array([[-1.0, 1.0]])), [1, 0], 2
        )
        pred = classify(train, np.array([[0.0]]), self._hyper(k_w=2))
        assert pred[0] == 0

    @pytest.mark.parametrize("spacing", [0.01, 0.1, 0.3, 1.0, 3.0, 8.0])
    @pytest.mark.parametrize("train_x,train_y", [([-1.0, 1.0], [1, 0]), ([1.0, -1.0], [0, 1])])
    @pytest.mark.parametrize("n_test", [1, 2])
    def test_equidistant_tie_in_either_sample_order(self, n_test, train_x, train_y, spacing):
        # one class on each side of coincident test points: the two scores
        # are equal but for rounding, whose sign depends on the solve's order
        train = LabeledDataset(FeatureMatrix(spacing * np.array([train_x])), train_y, 2)
        pred = classify(train, np.zeros((1, n_test)), self._hyper(k_w=2))
        assert np.array_equal(pred, np.zeros(n_test))

    def test_unreachable_samples_warned(self):
        # the test points are too far for any heat weight to the training
        # points: their scores are all zero and argmax makes them class 0,
        # a class no training sample has
        train = LabeledDataset(FeatureMatrix(np.array([[0.0, 1.0, 2.0]])), [2, 2, 1], 3)
        with pytest.warns(RuntimeWarning, match="2 of 2 test samples"):
            pred = classify(train, np.array([[100.0, 101.0]]), self._hyper())
        assert np.array_equal(pred, [0, 0])

    def test_subnormal_degree_pairs_get_their_labels(self):
        # two components: 0 and 1 joined with weight exp(-1/2), 2 and 3,
        # sqrt(1450) apart, with the subnormal exp(-725), where 1 / sqrt(deg)
        # squared overflows; each test sample takes its component's label
        Z = np.array([[0.0, 1.0, 100.0, 100.0 + np.sqrt(1450.0)]])
        train = LabeledDataset(FeatureMatrix(Z[:, [0, 2]]), [0, 1], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = classify(train, Z[:, [1, 3]], self._hyper(k_w=1))
        assert pred.tolist() == [0, 1]

    def test_memory_well_below_one_dense_matrix(self):
        # 1000 labeled and 1000 test samples: the graph, its edges and the
        # band solve stay in O(n * k) memory
        rng = np.random.default_rng(0)
        train = LabeledDataset(FeatureMatrix(rng.normal(size=(2, 1000))),
                               rng.integers(0, 3, 1000), 3)
        test = rng.normal(size=(2, 1000))
        classify(train, test, self._hyper())
        tracemalloc.start()
        try:
            classify(train, test, self._hyper())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an eighth of one 2000 x 2000 float64 array (32 MB)
        assert peak < 2000 * 2000 * 8 / 8

    def test_dimension_mismatch(self):
        train = LabeledDataset(FeatureMatrix(np.ones((3, 4))), [0, 1, 0, 1], 2)
        with pytest.raises(ValueError):
            classify(train, np.ones((2, 2)), self._hyper())

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist

from lpjt import graph
from lpjt.core import Hyperparams
from lpjt.graph import (
    WeightedGraph,
    build_intrinsic_graph,
    build_penalty_graph,
    knn_heat_graph,
    locality_scatters,
    pairwise_sqdist,
    scatter_matrices,
)


def brute_force_knn(X, k, connects):
    """O(n^2) reference: each sample's k nearest candidates j with
    connects(i, j), equal distances to the lower index, OR-symmetrized."""
    n = X.shape[1]
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        cand = [j for j in range(n) if connects(i, j)]
        cand.sort(key=lambda j: (np.sum((X[:, i] - X[:, j]) ** 2), j))
        for j in cand[:k]:
            adj[i, j] = adj[j, i] = True
    return adj


def brute_force_same_label(X, labels, k):
    return brute_force_knn(X, k, lambda i, j: j != i and labels[j] == labels[i])


def brute_force_diff_label(X, labels, k):
    return brute_force_knn(X, k, lambda i, j: labels[j] != labels[i])


def tie_heavy_instance(kind, seed, n=24):
    """Inputs whose distances tie exactly: points on a small integer grid,
    or every point repeated three times; labels include singleton classes."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        X = rng.integers(0, 3, size=(2, n)).astype(float)
    else:
        X = np.repeat(rng.integers(-2, 3, size=(2, n // 3)).astype(float), 3, axis=1)
    labels = rng.integers(0, 3, n)
    labels[:2] = [3, 4]     # two singleton classes
    return X, labels


TIE_CASES = [(kind, seed, k) for kind in ("grid", "duplicates")
             for seed in range(3) for k in (1, 2, 4, 30)]


class TestKnnHeatGraph:
    @staticmethod
    def dense_heat_graph(sqdist, adj):
        """The dense weighting the sparse builder replaced."""
        W = np.where(adj, np.exp(-sqdist / 2.0), 0.0)
        return np.minimum(W, W.T)

    @pytest.mark.parametrize("mask", ["same", "diff", "any"])
    @pytest.mark.parametrize("kind,seed,k", TIE_CASES)
    def test_csr_equals_dense_formula(self, kind, seed, k, mask):
        X, labels = tie_heavy_instance(kind, seed)
        same = labels[:, None] == labels[None, :]
        off = ~np.eye(labels.size, dtype=bool)
        allowed, connects = {
            "same": (same & off, lambda i, j: j != i and labels[j] == labels[i]),
            "diff": (~same, lambda i, j: labels[j] != labels[i]),
            "any": (off, lambda i, j: j != i),
        }[mask]
        D = pairwise_sqdist(X)
        W = knn_heat_graph(D, allowed, k)
        assert isinstance(W, sp.csr_array) and W.has_canonical_format
        expected = self.dense_heat_graph(D, brute_force_knn(X, k, connects))
        assert W.nnz == np.count_nonzero(expected)
        assert np.array_equal(W.toarray(), expected)

    def test_read_only_sqdist_left_unchanged(self):
        X, labels = tie_heavy_instance("grid", 0)
        D = pairwise_sqdist(X)
        D.setflags(write=False)
        before = D.copy()
        W = knn_heat_graph(D, labels[:, None] != labels[None, :], 4)
        assert np.array_equal(D, before)
        assert W.nnz > 0


class TestTreeKnnHeatGraph:
    """The tree search's edges, as label propagation reads them, against
    their dense oracle, `knn_heat_graph` over `pairwise_sqdist`;
    test_labelprop.py covers them on many more inputs."""

    @staticmethod
    def tree(X, k):
        return graph._csr(*graph._knn_edges(X, k), X.shape[1])

    @staticmethod
    def dense(X, k):
        return knn_heat_graph(pairwise_sqdist(X), ~np.eye(X.shape[1], dtype=bool), k)

    # float16 values on [-4, 4] repeat often, so distances tie and samples
    # coincide; one sample and k = 0 give an empty graph
    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=30),
                      elements=st.floats(-4.0, 4.0, width=16)),
           st.integers(0, 33))
    def test_matches_dense_builder_bit_for_bit(self, X, k):
        W, expected = self.tree(X, k), self.dense(X, k)
        assert isinstance(W, sp.csr_array) and W.has_canonical_format
        assert np.array_equal(W.indptr, expected.indptr)
        assert np.array_equal(W.indices, expected.indices)
        assert np.array_equal(W.data, expected.data)

    def test_overflowed_distances_keep_true_nearest(self):
        # every squared distance overflows to inf and every weight is 0: the
        # dense rule then ties them all and keeps the lowest index, the tree
        # keeps each sample's true nearest
        X = np.array([[0.0, 1.0, 2.0, 10.0]]) * 1e160
        W, expected = self.tree(X, 1), self.dense(X, 1)
        assert np.all(W.data == 0.0) and np.all(expected.data == 0.0)
        assert np.array_equal(W.toarray(), expected.toarray())

        def stored(G):      # (row, column) of every stored entry, zeros included
            coo = G.tocoo()
            return sorted(zip(coo.row.tolist(), coo.col.tolist()))

        assert stored(W) == [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]
        assert stored(expected) == [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)]


def assert_same_csr(W, expected):
    assert isinstance(W, sp.csr_array) and W.has_canonical_format
    assert np.array_equal(W.indptr, expected.indptr)
    assert np.array_equal(W.indices, expected.indices)
    assert np.array_equal(W.data, expected.data)


def assert_builders_match_oracle(X, labels, k):
    """Both builders against `knn_heat_graph` over `pairwise_sqdist`, with
    the same-label mask (diagonal cleared) and the other-label mask, bit for
    bit. Where squared distances overflow, every weight is 0 and the oracle
    ties them all to the lowest index while the builders keep each sample's
    true nearest: there the dense matrices equal the oracle's, and the
    stored pattern equals the oracle's on X scaled by an exact power of two."""
    D = pairwise_sqdist(X)
    same = labels[:, None] == labels[None, :]
    masks = {build_intrinsic_graph: same & ~np.eye(labels.size, dtype=bool),
             build_penalty_graph: ~same}
    if same.all():
        with pytest.warns(UserWarning, match="one class"):
            g = build_penalty_graph(X, labels, k)
        assert g.W.shape == D.shape and g.W.nnz == 0
        del masks[build_penalty_graph]
    for build, allowed in masks.items():
        W, expected = build(X, labels, k).W, knn_heat_graph(D, allowed, k)
        if np.isfinite(D).all():
            assert_same_csr(W, expected)
            continue
        assert np.all(W.data == 0.0) and np.all(expected.data == 0.0)
        assert np.array_equal(W.toarray(), expected.toarray())
        D_scaled = pairwise_sqdist(np.ldexp(X, -540))
        assert np.isfinite(D_scaled).all() and W.has_canonical_format
        scaled = knn_heat_graph(D_scaled, allowed, k)
        assert np.array_equal(W.indptr, scaled.indptr)
        assert np.array_equal(W.indices, scaled.indices)


def order_instance(kind, n, seed=0, d=3):
    """Data of one kind; labels with non-contiguous ids, a class of one
    sample and a class of three (fewer than k + 1 for k = 5)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d, n))
    if kind == "rounded":
        X = np.round(X, 1)
    elif kind == "duplicated":
        X = np.repeat(X[:, :(n + 2) // 3], 3, axis=1)[:, :n]
    elif kind == "grid":
        X = rng.integers(0, 3, size=(d, n)).astype(float)
    elif kind == "overflow":
        X = X * 1e160       # every squared distance overflows to inf
    labels = rng.choice([-4, 3, 17, 1000], size=n)
    labels[:4] = [99, 50, 50, 50][:n]
    return X, labels


ORDER_CASES = [(kind, n, k) for kind in ("random", "rounded", "duplicated", "grid", "overflow")
               for n in (1, 2, 5, 40) for k in sorted({1, 5, n - 1, n + 3})]


class TestOrderBuilders:
    """`build_intrinsic_graph` and `build_penalty_graph` search each class's
    neighbors in the samples; `knn_heat_graph` over the dense masks is their
    oracle."""

    @pytest.mark.parametrize("kind,n,k", ORDER_CASES)
    def test_equal_to_dense_builder(self, kind, n, k):
        X, labels = order_instance(kind, n)
        assert_builders_match_oracle(X, labels, k)

    @pytest.mark.parametrize("kind", ["random", "grid", "overflow"])
    def test_single_class(self, kind):
        X, _ = order_instance(kind, 12)
        for k in (1, 5, 11, 15):
            assert_builders_match_oracle(X, np.full(12, 7), k)

    # float16 values on [-2, 2] repeat often, so distances tie and samples
    # coincide; labels from a few ids give singleton and one-class cases
    @settings(max_examples=80, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=30),
                      elements=st.floats(-2.0, 2.0, width=16)),
           st.integers(0, 33), st.data())
    def test_matches_dense_builder_bit_for_bit(self, X, k, data):
        labels = np.asarray(data.draw(st.lists(st.sampled_from([-1, 2, 5]),
                                               min_size=X.shape[1], max_size=X.shape[1])))
        assert_builders_match_oracle(X, labels, k)

    def test_rejects_mismatched_inputs(self):
        for build in (build_intrinsic_graph, build_penalty_graph):
            with pytest.raises(ValueError, match="labels length"):
                build(np.zeros((1, 3)), [0, 1], 1)

    @pytest.mark.parametrize("build", [
        build_intrinsic_graph, build_penalty_graph,
        lambda X, labels, k: locality_scatters(X, labels, Hyperparams(k_w=k, k_b=k))])
    def test_memory_below_an_eighth_of_a_dense_matrix(self, build):
        n = 2000
        rng = np.random.default_rng(0)
        X, labels = rng.normal(size=(3, n)), rng.integers(0, 10, n)
        tracemalloc.start()
        try:
            build(X, labels, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an eighth of one n x n float64 array (4 MB)
        assert peak < n * n * 8 / 8


class TestPairwiseSqdist:
    @pytest.mark.parametrize("d", [2, 3, 10, 40])
    def test_c_order_copy_gives_the_same_bits(self, d, monkeypatch):
        seen = []

        def checking(XA, XB, metric):
            seen.append(XA.flags.c_contiguous and XB.flags.c_contiguous)
            return cdist(XA, XB, metric)

        monkeypatch.setattr(graph, "cdist", checking)
        X = np.random.default_rng(d).normal(size=(d, 50))
        D = pairwise_sqdist(X)
        assert seen == [True]
        assert np.array_equal(D, cdist(X.T, X.T, "sqeuclidean"))


class TestWeightedGraph:
    @pytest.mark.parametrize("W,match", [
        ([[0.0, 0.5], [0.4, 0.0]], "symmetric"),
        ([[0.1, 0.5], [0.5, 0.0]], "diagonal"),
        ([[0.0, 1.5], [1.5, 0.0]], r"\[0, 1\]"),
        ([[0.0, -0.5], [-0.5, 0.0]], r"\[0, 1\]"),
        ([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0]], "square"),
        ([[0.0, np.nan], [np.nan, 0.0]], "finite; 2 entries are not: nan at"),
        ([[0.0, np.inf], [np.inf, 0.0]], "finite; 2 entries are not: inf at"),
    ])
    def test_sparse_checks_reject(self, W, match):
        for form in (np.array(W), sp.csr_array(np.array(W))):
            with pytest.raises(ValueError, match=match):
                WeightedGraph(form)

    def test_read_only_csr(self):
        g = WeightedGraph(np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert isinstance(g.W, sp.csr_array) and g.W.nnz == 2
        with pytest.raises(ValueError):
            g.W.data[0] = 1.0

    @staticmethod
    def csr(entries, n=3):
        rows, cols, vals = zip(*entries)
        return sp.csr_array((vals, (rows, cols)), shape=(n, n))

    def test_explicit_zeros_without_a_mirror_accepted(self):
        # stored zeros at (0, 2) and (1, 2) but none at (2, 0) or (2, 1):
        # the CSR and CSC arrays differ, the matrix is symmetric
        W = self.csr([(0, 1, 0.5), (1, 0, 0.5), (0, 2, 0.0), (1, 2, 0.0)])
        assert WeightedGraph(W).W.nnz == 4

    @pytest.mark.parametrize("entries", [
        [(0, 1, 0.5), (1, 0, 0.5), (0, 2, 0.3)],
        [(0, 1, 0.5), (1, 0, 0.5), (0, 2, 0.3), (2, 0, 0.0)],
        [(0, 1, 0.5), (1, 0, 0.5 + 2.0 ** -53)],
    ])
    def test_asymmetric_values_rejected(self, entries):
        with pytest.raises(ValueError, match="symmetric"):
            WeightedGraph(self.csr(entries))

    def test_float64_csr_kept_without_a_copy(self):
        W = self.csr([(0, 1, 0.5), (1, 0, 0.5)])
        assert WeightedGraph(W).W is W
        assert not W.data.flags.writeable


class TestIntrinsicGraph:
    def test_two_samples_same_label(self):
        X = np.array([[0.0, 1.0]])
        g = build_intrinsic_graph(X, [0, 0], k_w=1)
        assert_allclose(g.W.toarray()[0, 1], np.exp(-0.5))
        assert g.W.toarray()[0, 0] == 0.0

    def test_two_samples_different_labels(self):
        g = build_intrinsic_graph(np.array([[0.0, 1.0]]), [0, 1], k_w=1)
        assert np.all(g.W.toarray() == 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(2, 6))
        labels = np.array([0, 0, 0, 1, 1, 1])
        g = build_intrinsic_graph(X, labels, k_w=1)
        assert np.array_equal(g.W.toarray() > 0, brute_force_same_label(X, labels, 1))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_random(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(3, 20))
        labels = rng.integers(0, 3, 20)
        g = build_intrinsic_graph(X, labels, k_w=2)
        assert np.array_equal(g.W.toarray() > 0, brute_force_same_label(X, labels, 2))

    @pytest.mark.parametrize("kind,seed,k", TIE_CASES)
    def test_tie_rule_matches_brute_force(self, kind, seed, k):
        # k = 30 exceeds every class's candidate count
        X, labels = tie_heavy_instance(kind, seed)
        D = pairwise_sqdist(X)
        g = build_intrinsic_graph(X, labels, k_w=k)
        adj = brute_force_same_label(X, labels, k)
        assert np.array_equal(g.W.toarray() > 0, adj)
        assert np.array_equal(g.W.toarray()[adj], np.exp(-D[adj] / 2.0))
        assert not g.W.toarray()[:2].any()    # singleton classes stay isolated

    def test_k_clamped_to_class_size(self):
        X = np.array([[0.0, 1.0, 2.0]])
        g = build_intrinsic_graph(X, [0, 0, 0], k_w=10)
        assert np.count_nonzero(g.W.toarray()) > 0   # no crash, edges capped at n_c - 1

    def test_edges_only_within_classes(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(2, 15))
        labels = rng.integers(0, 2, 15)
        g = build_intrinsic_graph(X, labels, k_w=3)
        for i in range(15):
            for j in range(15):
                if g.W.toarray()[i, j] > 0:
                    assert labels[i] == labels[j]


class TestPenaltyGraph:
    def test_two_samples_one_edge(self):
        g = build_penalty_graph(np.array([[0.0, 1.0]]), [0, 1], k_b=1)
        assert g.W.toarray()[0, 1] > 0

    def test_single_class_empty_with_warning(self):
        with pytest.warns(UserWarning, match="one class"):
            g = build_penalty_graph(np.array([[0.0, 1.0]]), [0, 0], k_b=1)
        assert g.W.shape == (2, 2) and g.W.nnz == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(2, 6))
        labels = np.array([0, 1, 0, 1, 0, 1])
        g = build_penalty_graph(X, labels, k_b=1)
        assert np.array_equal(g.W.toarray() > 0, brute_force_diff_label(X, labels, 1))

    @pytest.mark.parametrize("kind,seed,k", TIE_CASES)
    def test_tie_rule_matches_brute_force(self, kind, seed, k):
        # k = 30 exceeds every sample's candidate count
        X, labels = tie_heavy_instance(kind, seed)
        D = pairwise_sqdist(X)
        g = build_penalty_graph(X, labels, k_b=k)
        adj = brute_force_diff_label(X, labels, k)
        assert np.array_equal(g.W.toarray() > 0, adj)
        assert np.array_equal(g.W.toarray()[adj], np.exp(-D[adj] / 2.0))

    def test_edges_only_across_classes(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(2, 15))
        labels = rng.integers(0, 3, 15)
        g = build_penalty_graph(X, labels, k_b=2)
        for i in range(15):
            for j in range(15):
                if g.W.toarray()[i, j] > 0:
                    assert labels[i] != labels[j]


class TestLocalityScatters:
    """`locality_scatters` against the explicit edge sum over the graphs
    of the dense oracle `knn_heat_graph`, with the same-class (diagonal
    cleared) and the other-class masks."""

    @staticmethod
    def edge_sum(X, W):
        """1/2 sum_ij W_ij (x_i - x_j)(x_i - x_j)^T, one pair at a time."""
        W = W.toarray()
        S = np.zeros((X.shape[0], X.shape[0]))
        for i in range(X.shape[1]):
            for j in range(X.shape[1]):
                diff = X[:, i] - X[:, j]
                S += 0.5 * W[i, j] * np.outer(diff, diff)
        return S

    @staticmethod
    def oracle_graphs(X, labels, hyper):
        D = pairwise_sqdist(X)
        same = labels[:, None] == labels[None, :]
        return (knn_heat_graph(D, same & ~np.eye(labels.size, dtype=bool), hyper.k_w),
                knn_heat_graph(D, ~same, hyper.k_b))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["random", "grid", "duplicates"])
    def test_equals_explicit_edge_sum(self, kind, seed):
        if kind == "random":
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(3, 20))
            labels = rng.integers(0, 3, 20)
            labels[0] = 3
        else:
            X, labels = tie_heavy_instance(kind, seed)
        hyper = Hyperparams(k_w=3, k_b=2)
        S_w, S_b = locality_scatters(X, labels, hyper)
        W_w, W_b = self.oracle_graphs(X, labels, hyper)
        # sample 0 is a class of its own: no intrinsic edge, penalty edges
        assert np.diff(W_w.indptr)[0] == 0 and np.diff(W_b.indptr)[0] > 0
        for S, W in ((S_w, W_w), (S_b, W_b)):
            assert W.nnz > 0
            oracle = self.edge_sum(X, W)
            assert np.max(np.abs(S - oracle)) <= 1e-12 * np.abs(oracle).max()

    def test_single_class_has_no_penalty_scatter(self):
        X = np.random.default_rng(5).normal(size=(3, 12))
        labels = np.full(12, 4)
        hyper = Hyperparams(k_w=3, k_b=2)
        oracle = self.edge_sum(X, self.oracle_graphs(X, labels, hyper)[0])
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                S_w, S_b = locality_scatters(X, labels, hyper)
            assert [str(w.message) for w in caught] == \
                ["penalty graph is empty: only one class present"]
            assert np.all(S_b == 0.0)
            assert np.max(np.abs(S_w - oracle)) <= 1e-12 * np.abs(oracle).max()


class TestSearchState:
    """`locality_scatters` through one `_Search` kept over a sequence of
    relabelings gives what a fresh search gives at every step, bit for bit,
    with the same warnings."""

    @staticmethod
    def relabelings():
        rng = np.random.default_rng(3)
        first = rng.integers(0, 3, 40)
        moved = first.copy()
        moved[np.flatnonzero(first == 0)[0]] = 1
        # two samples trade classes 1 and 2: every class keeps its size
        swapped = moved.copy()
        a, b = np.flatnonzero(moved == 1)[0], np.flatnonzero(moved == 2)[0]
        swapped[[a, b]] = [2, 1]
        emptied = np.where(swapped == 2, 0, swapped)
        new_class = emptied.copy()
        new_class[::7] = 4
        one = np.full(40, 1)
        return [("first", first), ("unchanged", first), ("moved", moved),
                ("moved", moved.copy()), ("swapped", swapped), ("emptied", emptied),
                ("new class", new_class), ("one class", one), ("one class", one),
                ("first", first)]

    @staticmethod
    def scatters(*args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            S = locality_scatters(*args)
        return S, [str(w.message) for w in caught]

    @pytest.mark.parametrize("kind", ["random", "grid"])
    def test_equal_to_a_fresh_search_at_every_step(self, kind, monkeypatch):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(3, 40)) if kind == "random" else \
            rng.integers(0, 3, size=(2, 40)).astype(float)
        hyper = Hyperparams(k_w=3, k_b=2)
        searches = []
        knn_pairs = graph._knn_pairs
        monkeypatch.setattr(graph, "_knn_pairs",
                            lambda *a, **kw: searches.append(1) or knn_pairs(*a, **kw))
        search = graph._Search(X)
        previous = None
        for step, labels in self.relabelings():
            searches.clear()
            kept, kept_warned = self.scatters(X, labels, hyper, search)
            kept_searches = len(searches)
            searches.clear()
            fresh, fresh_warned = self.scatters(X, labels, hyper)
            for a, b in zip(kept, fresh):
                assert a.tobytes() == b.tobytes(), step
            assert kept_warned == fresh_warned, step
            if step == "one class":
                assert kept_warned == ["penalty graph is empty: only one class present"]
            if previous is not None and np.array_equal(labels, previous):
                # unchanged labels: every class's pairs kept, searched for nothing
                assert kept_searches == 0
            elif step in ("moved", "swapped"):
                # two classes changed members: the third keeps its
                # intrinsic and penalty pairs
                assert (kept_searches, len(searches)) == (4, 6)
            previous = labels


class TestScatterMatrices:
    def _build(self, seed=6, n_s=12, n_u=12, d_s=4, d_t=4):
        rng = np.random.default_rng(seed)
        X_s = rng.normal(size=(d_s, n_s))
        X_u = rng.normal(size=(d_t, n_u))
        ys = rng.integers(0, 2, n_s)
        yu = rng.integers(0, 2, n_u)
        ys[:2] = [0, 1]
        yu[:2] = [0, 1]
        return X_s, ys, X_u, yu

    def test_centered_data_gives_gram(self):
        rng = np.random.default_rng(13)
        X_u = rng.normal(size=(3, 10))
        X_u -= X_u.mean(axis=1, keepdims=True)
        X_s, ys, _, yu = self._build()
        S = scatter_matrices(X_s, ys, X_u, yu[:10], Hyperparams())
        assert_allclose(S.S_h_u, X_u @ X_u.T, atol=1e-10)

    def test_single_target_sample_zero_covariance(self):
        X_s, ys, _, _ = self._build()
        with pytest.warns(UserWarning):
            S = scatter_matrices(X_s, ys, np.ones((4, 1)), [0], Hyperparams())
        assert_allclose(S.S_h_u, 0.0)

    def test_covariance_against_two_pass_oracle(self):
        rng = np.random.default_rng(14)
        X_u = rng.normal(size=(4, 12))
        X_s, ys, _, yu = self._build()
        S = scatter_matrices(X_s, ys, X_u, yu, Hyperparams())
        mean = X_u.mean(axis=1)
        oracle = sum(
            np.outer(X_u[:, j] - mean, X_u[:, j] - mean) for j in range(12)
        )
        assert np.max(np.abs(S.S_h_u - oracle)) <= 1e-10

    def test_all_symmetric_and_psd(self):
        X_s, ys, X_u, yu = self._build(seed=15)
        S = scatter_matrices(X_s, ys, X_u, yu, Hyperparams())
        for M in (S.S_w_s, S.S_b_s, S.S_w_u, S.S_b_u, S.S_h_u):
            assert np.max(np.abs(M - M.T)) <= 1e-10
            assert np.linalg.eigvalsh(M).min() >= -1e-8

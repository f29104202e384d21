import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist

from lpjt import eigsolve, graph, mmd, pipeline
from lpjt.core import (
    NORMALIZE_MODES,
    FeatureMatrix,
    Hyperparams,
    LabeledDataset,
    SubspaceModel,
    apply_zscore,
    unit_normalize,
    zscore_normalize,
)
from lpjt.dataio import synth_gauss_shift, synth_hetero_map, synth_rotated
from lpjt.landmark import check_feasible
from lpjt.pipeline import FitConfig, _prepare, evaluate, fit, predict, transform


def separated_blobs(seed=0, n=20, gap=8.0):
    rng = np.random.default_rng(seed)
    X = np.hstack([
        rng.normal(size=(2, n)),
        rng.normal(size=(2, n)) + np.array([[gap], [0.0]]),
        rng.normal(size=(2, n)) + np.array([[0.0], [gap]]),
    ])
    y = np.repeat([0, 1, 2], n)
    return X, y


def nn_labels(Xtrain, ytrain, Xtest):
    return ytrain[np.argmin(cdist(Xtest.T, Xtrain.T), axis=1)]


def reference_fit_normalizer(X, mode):
    """The earlier two-step form: normalize X, return it with its state."""
    if mode == "none":
        return X, ("none",)
    if mode == "unit":
        return unit_normalize(X), ("unit",)
    if mode == "zscore":
        Xn, mean, std = zscore_normalize(X)
        return Xn, ("zscore", mean, std)
    Xn, mean, std = zscore_normalize(unit_normalize(X))
    return Xn, ("unit+zscore", mean, std)


def reference_apply_normalizer(X, state):
    mode = state[0]
    if mode == "none":
        return X
    if mode == "unit":
        return unit_normalize(X)
    if mode == "zscore":
        return apply_zscore(X, state[1], state[2])
    return apply_zscore(unit_normalize(X), state[1], state[2])


def lifted_blobs(seed=0, n=5, dim=30):
    """Separated blobs mapped into more features than samples per domain."""
    rng = np.random.default_rng(seed)
    R = rng.normal(size=(dim, 2))
    Xs, ys = separated_blobs(seed, n=n)
    Xt, _ = separated_blobs(seed + 1, n=n)
    Xs = R @ Xs + 0.1 * rng.normal(size=(dim, Xs.shape[1]))
    Xt = R @ (Xt + 0.5) + 0.1 * rng.normal(size=(dim, Xt.shape[1]))
    return Xs, ys, Xt


class TestSharedSteps:
    @pytest.mark.parametrize("mode", NORMALIZE_MODES)
    def test_prepare_matches_reference_normalizers(self, mode):
        Xs, ys, Xt, yt = synth_hetero_map(15, 3, 0)
        # a constant feature takes zscore's zero-deviation branch
        Xt = np.vstack([Xt + 3.0, np.full((1, yt.size), 2.0)])
        hold = np.array([0, 15, 30])
        rest = np.setdiff1d(np.arange(yt.size), hold)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        tgt_l = LabeledDataset(FeatureMatrix(Xt[:, hold]), yt[hold], 3)
        ref_s, _ = reference_fit_normalizer(src.features, mode)
        ref_u, u_state = reference_fit_normalizer(FeatureMatrix(Xt[:, rest]), mode)
        ref_l = reference_apply_normalizer(tgt_l.features, u_state)
        out = _prepare(src, Xt[:, rest], tgt_l, mode)
        for got, ref in zip(out, (ref_s, ref_u, ref_l)):
            assert np.array_equal(got.data, ref.data)
        Xs_u, Xu_u, Xl_u = _prepare(src, Xt[:, rest], None, mode)
        assert np.array_equal(Xs_u.data, ref_s.data)
        assert np.array_equal(Xu_u.data, ref_u.data)
        assert Xl_u is None

    @pytest.mark.parametrize("case", ["rotated", "gauss_shift", "hetero_map", "span_map"])
    def test_pseudo_labels_are_what_predict_returns(self, case):
        # unsupervised: fit's last refresh and predict label the same way
        if case == "rotated":
            Xs, ys, Xt, _ = synth_rotated(30, 3, 0)
        elif case == "gauss_shift":
            Xs, ys, Xt, _ = synth_gauss_shift(30, 3, 1)
        elif case == "hetero_map":
            Xs, ys, Xt, _ = synth_hetero_map(30, 3, 2)
        else:
            Xs, ys, Xt = lifted_blobs()
            assert Xs.shape[0] > Xs.shape[1]
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        model = fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=3)))
        assert np.array_equal(model.pseudo_labels, predict(model, src, Xt))


class TestFitBasics:
    def test_identical_domains_close_the_gap(self):
        X, y = separated_blobs()
        src = LabeledDataset(FeatureMatrix(X), y, 3)
        hyper = Hyperparams(d=2, T=1, mu=0.0, lambda_couple=1e4)
        model = fit(src, X, None, FitConfig(hyper=hyper, homogeneous=True))
        assert model.trace.mmd[-1] <= 1e-6

    def test_homogeneous_flag_warns_when_it_cannot_apply(self):
        cfg = FitConfig(hyper=Hyperparams(d=2, T=1), homogeneous=True)
        Xs, ys, Xt, _ = synth_hetero_map(10, 3, 0)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        with pytest.warns(RuntimeWarning, match="homogeneous=True is ignored"):
            fit(src, Xt, None, cfg)
        # equal feature counts, but more features than samples: the span map
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 9))
        src = LabeledDataset(FeatureMatrix(X), np.repeat([0, 1, 2], 3), 3)
        with pytest.warns(RuntimeWarning, match="homogeneous=True is ignored"):
            fit(src, X + 0.1, None, cfg)

    def test_homogeneous_flag_silent_when_it_applies(self):
        X, y = separated_blobs(n=10)
        src = LabeledDataset(FeatureMatrix(X), y, 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit(src, X + 0.1, None, FitConfig(hyper=Hyperparams(d=2, T=1), homogeneous=True))
        assert not [w for w in caught if "homogeneous" in str(w.message)]

    def test_trace_lengths_match_iterations(self):
        X, y = separated_blobs(n=10)
        src = LabeledDataset(FeatureMatrix(X), y, 3)
        model = fit(src, X + 0.1, None, FitConfig(hyper=Hyperparams(d=2, T=3)))
        assert len(model.trace) == 3
        assert model.trace.mmd.shape == (3,)
        assert model.trace.label_changes.shape == (3,)

    def test_graph_distances_computed_once_per_domain(self, monkeypatch):
        calls = []

        def counting_cdist(*args, **kwargs):
            calls.append(args[0].shape)
            return cdist(*args, **kwargs)

        monkeypatch.setattr(graph, "cdist", counting_cdist)
        Xs, ys, Xt, _ = synth_rotated(20, 3, 0)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=3)))
        assert calls == [(60, 2), (60, 2)]

    def test_refresh_reaches_traced_module_attributes(self, monkeypatch):
        # the bench's mmd.* and graph.* layers wrap these module attributes
        calls = {}

        def counting(module, name):
            orig = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return orig(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((mmd, "build_coeffs"), (mmd, "assemble_M"),
                             (graph, "build_intrinsic_graph"),
                             (graph, "build_penalty_graph"), (eigsolve, "solve")):
            counting(module, name)
        Xs, ys, Xt, _ = synth_rotated(20, 3, 0)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=3)))
        # this fit rolls back: one more solve than iterations
        assert calls["solve"] > 3
        # the MMD blocks: the initial build, one refresh per iteration after
        # the first, one per rollback
        assert calls["build_coeffs"] == calls["assemble_M"] == calls["solve"]
        # the graphs: the source's once, the target's once per iteration; a
        # rollback reuses the previous iteration's
        assert calls["build_intrinsic_graph"] == calls["build_penalty_graph"] == 3 + 1

    def test_rollback_reuses_scatters_built_for_its_labels(self, monkeypatch):
        scats, labels, target = [], [], []
        build_coeffs, assemble_problem = mmd.build_coeffs, eigsolve.assemble_problem
        locality_scatters = graph.locality_scatters

        def recording_coeffs(*args):
            labels.append(args[3])
            return build_coeffs(*args)

        def recording_problem(blocks, scat, *args):
            scats.append(scat)
            return assemble_problem(blocks, scat, *args)

        def recording_scatters(X, nbrs, *args):
            target[:] = [X, nbrs.sqdist]    # the target domain is built last
            return locality_scatters(X, nbrs, *args)

        monkeypatch.setattr(mmd, "build_coeffs", recording_coeffs)
        monkeypatch.setattr(eigsolve, "assemble_problem", recording_problem)
        monkeypatch.setattr(graph, "locality_scatters", recording_scatters)
        Xs, ys, Xt, _ = synth_rotated(20, 3, 0)
        hyper = Hyperparams(d=2, T=3)
        fit(LabeledDataset(FeatureMatrix(Xs), ys, 3), Xt, None, FitConfig(hyper=hyper))
        reused = [j for j in range(len(scats)) if any(scats[j] is s for s in scats[:j])]
        assert reused and len(scats) == len(labels)
        X_u, sqdist_u = target
        for j in reused:
            S_w, S_b = locality_scatters(X_u, graph.NeighborOrder(sqdist_u.copy()),
                                         labels[j], hyper)
            assert np.array_equal(scats[j].S_w_u, S_w)
            assert np.array_equal(scats[j].S_b_u, S_b)

    def test_neighbor_order_computed_once_per_domain(self, monkeypatch):
        sorts, solves = [], []
        rank_rows, solve = graph._rank_rows, eigsolve.solve

        def counting_sort(sqdist):
            sorts.append(sqdist.shape)
            return rank_rows(sqdist)

        def counting_solve(*args):
            solves.append(1)
            return solve(*args)

        monkeypatch.setattr(graph, "_rank_rows", counting_sort)
        monkeypatch.setattr(eigsolve, "solve", counting_solve)
        Xs, ys, Xt, _ = synth_rotated(20, 3, 0)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        for T in (1, 3, 6):
            sorts.clear()
            fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=T)))
            assert sorts == [(60, 60), (60, 60)]
        assert len(solves) > 1 + 3 + 6      # the fits roll back

    def test_nearest_neighbor_init_passes_c_order_to_cdist(self, monkeypatch):
        seen = []

        def checking(XA, XB, *args):
            seen.append(XA.flags.c_contiguous and XB.flags.c_contiguous)
            return cdist(XA, XB, *args)

        monkeypatch.setattr(pipeline, "cdist", checking)
        X, y = separated_blobs()
        src = LabeledDataset(FeatureMatrix(X), y, 3)
        fit(src, X + 0.1, None, FitConfig(hyper=Hyperparams(d=2, T=1), init_strategy="nn_raw"))
        assert seen == [True]

    def test_final_weights_feasible(self):
        Xs, ys, Xt, _ = synth_rotated(30, 3, 0)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        model = fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=3)))
        assert check_feasible(model.weights, ys, model.pseudo_labels)
        assert model.weights.alpha.shape == (ys.size,)

    def test_deterministic_given_inputs(self):
        Xs, ys, Xt, _ = synth_rotated(30, 3, 1)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        cfg = FitConfig(hyper=Hyperparams(d=2, T=2))
        m1 = fit(src, Xt, None, cfg)
        m2 = fit(src, Xt, None, cfg)
        assert np.array_equal(m1.A, m2.A)
        assert np.array_equal(m1.B, m2.B)
        p1 = predict(m1, src, Xt)
        p2 = predict(m2, src, Xt)
        assert np.array_equal(p1, p2)

    def test_semisupervised_without_labeled_target_is_unsupervised(self):
        Xs, ys, Xt, _ = synth_rotated(20, 3, 2)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        hyper = Hyperparams(d=2, T=2)
        m_semi = fit(src, Xt, None, FitConfig(hyper=hyper, mode="semisupervised"))
        m_unsup = fit(src, Xt, None, FitConfig(hyper=hyper, mode="unsupervised"))
        assert np.array_equal(m_semi.A, m_unsup.A)
        assert np.array_equal(m_semi.B, m_unsup.B)
        assert np.array_equal(m_semi.pseudo_labels, m_unsup.pseudo_labels)

    def test_oversized_subspace_rejected(self):
        X, y = separated_blobs(n=5)
        src = LabeledDataset(FeatureMatrix(X), y, 3)
        with pytest.raises(ValueError, match="subspace dim"):
            fit(src, X, None, FitConfig(hyper=Hyperparams(d=10)))

    def test_degenerate_objective_aborts(self):
        X, y = separated_blobs(n=5)
        src = LabeledDataset(FeatureMatrix(X), y, 3)
        with pytest.raises(RuntimeError, match="not finite"):
            fit(src, X, None, FitConfig(hyper=Hyperparams(gamma=0.0, mu=0.0, T=1)))


class TestAdaptationQuality:
    @pytest.mark.parametrize("seed", range(3))
    def test_rotated_translated_beats_source_only_nn(self, seed):
        Xs, ys, Xt, yt = synth_rotated(100, 3, seed)
        Xt = Xt + np.array([[1.5], [-0.5]])   # rotation plus translation
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        model = fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=5)))
        acc = evaluate(predict(model, src, Xt), yt)
        base = evaluate(nn_labels(Xs, ys, Xt), yt)
        assert acc > base

    @pytest.mark.parametrize("seed", range(5))
    def test_mmd_trace_non_increasing_first_to_last(self, seed):
        Xs, ys, Xt, _ = synth_rotated(60, 3, seed)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        model = fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=5)))
        assert model.trace.mmd[-1] <= model.trace.mmd[0]

    def test_heterogeneous_semisupervised_run(self):
        Xs, ys, Xt, yt = synth_hetero_map(40, 3, 0)
        hold = np.concatenate([np.flatnonzero(yt == c)[:3] for c in range(3)])
        rest = np.setdiff1d(np.arange(yt.size), hold)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        tgt_l = LabeledDataset(FeatureMatrix(Xt[:, hold]), yt[hold], 3)
        model = fit(src, Xt[:, rest], tgt_l,
                    FitConfig(hyper=Hyperparams(d=2, T=3), mode="semisupervised"))
        pred = predict(model, src, Xt[:, rest], tgt_l)
        assert evaluate(pred, yt[rest]) >= 0.6

    def test_heterogeneous_unsupervised_fits(self):
        Xs, ys, Xt, _ = synth_hetero_map(20, 3, 1)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        model = fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=2)))
        assert model.A.shape == (10, 2)
        assert model.B.shape == (3, 2)

    def test_nearest_neighbor_init_strategy(self):
        Xs, ys, Xt, yt = synth_rotated(40, 3, 3)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        cfg = FitConfig(hyper=Hyperparams(d=2, T=2), init_strategy="nn_raw")
        model = fit(src, Xt, None, cfg)
        assert evaluate(predict(model, src, Xt), yt) >= 0.5

    def test_embed_norm_flag_changes_classification_path(self):
        Xs, ys, Xt, _ = synth_rotated(40, 3, 4)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        m_on = fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=2)))
        m_off = fit(src, Xt, None,
                    FitConfig(hyper=Hyperparams(d=2, T=2), embed_norm=False))
        assert m_on.cfg.embed_norm and not m_off.cfg.embed_norm
        # projections themselves solve the same objective at iteration 1
        assert m_on.A.shape == m_off.A.shape


class TestTransform:
    def _identity_model(self, d=2):
        return SubspaceModel(A=np.eye(d), B=np.eye(d),
                             cfg=FitConfig(hyper=Hyperparams(d=d), normalize="none"),
                             num_classes=2)

    def test_identity_projection(self):
        model = self._identity_model()
        X = np.arange(6, dtype=float).reshape(2, 3)
        assert_allclose(transform(model, X, "source").data, X)

    def test_zero_input(self):
        model = self._identity_model()
        out = transform(model, np.zeros((2, 4)), "target")
        assert np.all(out.data == 0.0)

    def test_output_has_subspace_rows(self):
        rng = np.random.default_rng(0)
        model = SubspaceModel(A=rng.normal(size=(5, 2)), B=rng.normal(size=(4, 2)),
                              cfg=FitConfig(hyper=Hyperparams(d=2)))
        assert transform(model, rng.normal(size=(5, 7)), "source").dim == 2
        assert transform(model, rng.normal(size=(4, 7)), "target").dim == 2

    def test_bad_domain_and_dims(self):
        model = self._identity_model()
        with pytest.raises(ValueError, match="domain"):
            transform(model, np.ones((2, 2)), "both")
        with pytest.raises(ValueError, match="features"):
            transform(model, np.ones((3, 2)), "source")


class TestPredict:
    def test_duplicate_source_point_keeps_its_label(self):
        X, y = separated_blobs(n=8)
        src = LabeledDataset(FeatureMatrix(X), y, 3)
        model = SubspaceModel(A=np.eye(2), B=np.eye(2),
                              cfg=FitConfig(hyper=Hyperparams(d=2, k_w=1), normalize="none"),
                              num_classes=3)
        pred = predict(model, src, X[:, [5]])
        assert pred[0] == y[5]

    def test_prediction_length(self):
        Xs, ys, Xt, _ = synth_gauss_shift(15, 3, 0)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        model = fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=2)))
        assert predict(model, src, Xt).shape == (Xt.shape[1],)

    def test_well_separated_blobs_fully_recovered(self):
        Xs, ys = separated_blobs(seed=4, n=25, gap=10.0)
        Xt, yt = separated_blobs(seed=5, n=25, gap=10.0)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        model = fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=2)))
        assert evaluate(predict(model, src, Xt), yt) == 1.0


class TestEvaluate:
    def test_perfect_agreement(self):
        assert evaluate([0, 1, 2], [0, 1, 2]) == 1.0

    def test_total_disagreement(self):
        assert evaluate([0, 0], [1, 1]) == 0.0

    def test_partial(self):
        assert evaluate([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([0], [0, 1])


class TestScaling:
    def test_doubling_samples_stays_polynomial(self):
        # guards against accidental super-cubic blowups; generous bound
        def timed(n):
            Xs, ys, Xt, _ = synth_rotated(n, 3, 0)
            src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
            start = time.perf_counter()
            fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=2)))
            return time.perf_counter() - start

        timed(20)   # warm caches
        t1 = timed(40)
        t2 = timed(80)
        assert t2 / max(t1, 1e-9) <= 25.0

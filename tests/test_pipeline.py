import dataclasses
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist

from lpjt import eigsolve, graph, landmark, mmd, pipeline
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


def lifted_blobs(seed=0, n=5, dim=30, gap=8.0):
    """Blobs mapped into more features than samples per domain."""
    rng = np.random.default_rng(seed)
    R = rng.normal(size=(dim, 2))
    Xs, ys = separated_blobs(seed, n=n, gap=gap)
    Xt, yt = separated_blobs(seed + 1, n=n, gap=gap)
    Xs = R @ Xs + 0.1 * rng.normal(size=(dim, Xs.shape[1]))
    Xt = R @ (Xt + 0.5) + 0.1 * rng.normal(size=(dim, Xt.shape[1]))
    return Xs, ys, Xt, yt


def labeled_split(Xt, yt):
    """(unlabeled targets, labeled targets): the first 3 target samples of
    each of 3 classes are labeled."""
    hold = np.concatenate([np.flatnonzero(yt == c)[:3] for c in range(3)])
    rest = np.setdiff1d(np.arange(yt.size), hold)
    return Xt[:, rest], LabeledDataset(FeatureMatrix(Xt[:, hold]), yt[hold], 3)


SEMI = FitConfig(hyper=Hyperparams(d=2, T=3), mode="semisupervised")


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
        # fit's last refresh and predict label the same way: unsupervised,
        # but for the heterogeneous case, which needs labeled targets
        tgt_l, cfg = None, FitConfig(hyper=Hyperparams(d=2, T=3))
        if case == "rotated":
            Xs, ys, Xt, _ = synth_rotated(30, 3, 0)
        elif case == "gauss_shift":
            Xs, ys, Xt, _ = synth_gauss_shift(30, 3, 1)
        elif case == "hetero_map":
            Xs, ys, Xt, yt = synth_hetero_map(30, 3, 2)
            (Xt, tgt_l), cfg = labeled_split(Xt, yt), SEMI
        else:
            Xs, ys, Xt, _ = lifted_blobs()
            assert Xs.shape[0] > Xs.shape[1]
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        model = fit(src, Xt, tgt_l, cfg)
        assert np.array_equal(model.pseudo_labels, predict(model, src, Xt, tgt_l))

    @pytest.mark.parametrize("case", ["hetero_map", "gauss_shift", "span_map"])
    def test_semisupervised_refresh_propagates_from_the_labeled_targets(self, case):
        # each problem is one where the labeled targets change what predict
        # returns, so a refresh that left them out would differ from it
        if case == "hetero_map":
            Xs, ys, Xt, yt = synth_hetero_map(30, 3, 3)
        elif case == "gauss_shift":
            Xs, ys, Xt, yt = synth_gauss_shift(30, 3, 4)
        else:
            Xs, ys, Xt, yt = lifted_blobs(seed=4, n=20, dim=80, gap=2.5)
            assert Xt.shape[0] > Xt.shape[1]
        Xu, tgt_l = labeled_split(Xt, yt)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"\d+ of \d+ test samples have all-zero",
                                    RuntimeWarning)
            model = fit(src, Xu, tgt_l, SEMI)
            pred = predict(model, src, Xu, tgt_l)
            assert not np.array_equal(pred, predict(model, src, Xu))
        assert np.array_equal(model.pseudo_labels, pred)


class TestFitBasics:
    def test_identical_domains_close_the_gap(self):
        X, y = separated_blobs()
        src = LabeledDataset(FeatureMatrix(X), y, 3)
        hyper = Hyperparams(d=2, T=1, mu=0.0, lambda_couple=1e4)
        model = fit(src, X, None, FitConfig(hyper=hyper, homogeneous=True))
        assert model.trace.mmd[-1] <= 1e-6

    def test_homogeneous_flag_warns_when_it_cannot_apply(self):
        cfg = FitConfig(hyper=Hyperparams(d=2, T=1), homogeneous=True)
        Xs, ys, Xt, yt = synth_hetero_map(10, 3, 0)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        semi = dataclasses.replace(cfg, mode="semisupervised")
        with pytest.warns(RuntimeWarning, match="homogeneous=True is ignored"):
            fit(src, *labeled_split(Xt, yt), semi)
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

    def test_fit_computes_no_distance_matrix(self, monkeypatch):
        # every graph comes from the tree search over the samples
        def never(*args, **kwargs):
            raise AssertionError("fit computed a distance matrix")

        for module, name in ((graph, "cdist"), (graph, "pairwise_sqdist"),
                             (graph, "knn_heat_graph"), (pipeline, "cdist"),
                             (pipeline.labelprop, "cdist")):
            monkeypatch.setattr(module, name, never)
        Xs, ys, Xt, _ = synth_rotated(20, 3, 0)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        model = fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=3)))
        predict(model, src, Xt)

    def test_fit_memory_below_one_dense_matrix(self):
        # hetero-large's shape: 600 source and 591 unlabeled target samples
        Xs, ys, Xt, yt = synth_hetero_map(200, 3, 0)
        Xu, labeled = labeled_split(Xt, yt)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        cfg = FitConfig(hyper=Hyperparams(d=2, T=5), mode="semisupervised")
        tracemalloc.start()
        try:
            fit(src, Xu, labeled, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n x n float64 array of the larger domain
        assert peak < Xs.shape[1] ** 2 * 8

    def test_refresh_reaches_traced_module_attributes(self, monkeypatch):
        # the bench's mmd.* and graph.* layers wrap these module attributes;
        # it still wraps the two builders, which fit no longer calls
        calls = {}

        def counting(module, name):
            orig = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return orig(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((mmd, "build_coeffs"), (mmd, "assemble_M"),
                             (graph, "locality_scatters"), (graph, "build_intrinsic_graph"),
                             (graph, "build_penalty_graph"), (eigsolve, "solve")):
            counting(module, name)
        Xs, ys, Xt, _ = synth_rotated(20, 3, 0)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        for T in (1, 3, 6):
            calls.clear()
            model = fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=T)))
            assert calls["solve"] == T
            # the MMD blocks once per iteration; the source's scatters once,
            # the target's once per iteration, from kept pairs where labels
            # held; the scatters are formed from the edges, with no graph built
            assert calls["build_coeffs"] == calls["assemble_M"] == calls["solve"]
            assert calls["locality_scatters"] == T + 1
            assert "build_intrinsic_graph" not in calls and "build_penalty_graph" not in calls

    def test_fit_builds_and_checks_no_weighted_graph(self, monkeypatch):
        # the scatters' edges are symmetric by construction; only outside
        # input (the public builders' graphs, closed_form's S) is checked
        calls = {"check": 0, "construct": 0}
        check, post_init = graph._check_graph, graph.WeightedGraph.__post_init__

        def counting_check(*args):
            calls["check"] += 1
            return check(*args)

        def counting_post_init(self):
            calls["construct"] += 1
            post_init(self)

        monkeypatch.setattr(graph, "_check_graph", counting_check)
        monkeypatch.setattr(graph.WeightedGraph, "__post_init__", counting_post_init)
        graph.WeightedGraph(np.zeros((2, 2)))
        assert calls == {"check": 1, "construct": 1}
        Xs, ys, Xt, _ = synth_rotated(20, 3, 0)
        fit(LabeledDataset(FeatureMatrix(Xs), ys, 3), Xt, None,
            FitConfig(hyper=Hyperparams(d=2, T=3)))
        assert calls == {"check": 1, "construct": 1}

    def test_final_weights_feasible(self):
        Xs, ys, Xt, _ = synth_rotated(30, 3, 0)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        model = fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=3)))
        assert check_feasible(model.weights, ys, model.pseudo_labels)
        assert model.weights.alpha.shape == (ys.size,)

    @pytest.mark.parametrize("synth", [synth_rotated, synth_hetero_map])
    def test_weight_steps_never_raise_mmd_value(self, synth, monkeypatch):
        # E of the previous weights can lie below the feasible minimum once
        # the pseudo labels move: the solve starts from their projection
        steps = []
        build_qp, solve_qp = landmark.build_qp, landmark.solve_qp

        def recording_build(*args):
            steps.append([args])
            return build_qp(*args)

        def recording_solve(qp, init, **kwargs):
            steps[-1] += [landmark.project_feasible(qp, init), solve_qp(qp, init, **kwargs)]
            return steps[-1][-1]

        monkeypatch.setattr(landmark, "build_qp", recording_build)
        monkeypatch.setattr(landmark, "solve_qp", recording_solve)
        Xs, ys, Xt, yt = synth(30, 3, 0)
        tgt_l, cfg = None, FitConfig(hyper=Hyperparams(d=2, T=4))
        if synth is synth_hetero_map:
            Xt, tgt_l = labeled_split(Xt, yt)
            cfg = dataclasses.replace(cfg, mode="semisupervised")
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "weight solver")
            fit(LabeledDataset(FeatureMatrix(Xs), ys, 3), Xt, tgt_l, cfg)
        assert len(steps) == 4
        for (Z_s, Z_u, y_s, y_u, delta, _), start, w in steps:
            eye = np.eye(Z_s.shape[0])

            def energy(weights):
                return sum(mmd.mmd_value(Z_s, Z_u, eye, eye, weights.alpha, weights.beta,
                                         y_s, y_u, delta))

            assert energy(w) <= energy(start) * (1 + 1e-12)

    @pytest.mark.parametrize("synth", [synth_rotated, synth_hetero_map])
    def test_kept_target_searches_change_no_bit(self, synth, monkeypatch):
        Xs, ys, Xt, yt = synth(20, 3, 0)
        tgt_l, cfg = None, FitConfig(hyper=Hyperparams(d=2, T=6))
        if synth is synth_hetero_map:
            Xt, tgt_l = labeled_split(Xt, yt)
            cfg = dataclasses.replace(cfg, mode="semisupervised")
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        kept = fit(src, Xt, tgt_l, cfg)
        # every target graph searched afresh
        locality_scatters = graph.locality_scatters
        monkeypatch.setattr(graph, "locality_scatters",
                            lambda X, labels, hyper, search=None:
                            locality_scatters(X, labels, hyper))
        fresh = fit(src, Xt, tgt_l, cfg)
        assert 0 in kept.trace.label_changes[:-1]
        for part in (lambda m: m.A, lambda m: m.B, lambda m: m.pseudo_labels,
                     lambda m: m.weights.alpha, lambda m: m.weights.beta,
                     lambda m: m.trace.objective, lambda m: m.trace.mmd):
            assert part(kept).tobytes() == part(fresh).tobytes()

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

    def test_heterogeneous_unsupervised_fits(self, monkeypatch):
        # refused: no labeled sample shares the target's feature space
        def never(*args):
            raise AssertionError("work started before the refusal")

        monkeypatch.setattr(pipeline.labelprop, "classify", never)
        Xs, ys, Xt, _ = synth_hetero_map(20, 3, 1)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        message = (r"the source has 10 features and the target 3: heterogeneous fits need "
                   r"labeled target samples \(target_labeled\)$")
        for mode in ("unsupervised", "semisupervised"):
            with pytest.raises(ValueError, match=message):
                fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=2), mode=mode))

    @pytest.mark.parametrize("synth", [synth_rotated, synth_hetero_map])
    def test_mode_changes_no_bit(self, synth):
        # the init seeds from the source when the feature counts match, from
        # the labeled targets otherwise, whatever the mode says
        Xs, ys, Xt, yt = synth(20, 3, 5)
        Xu, tgt_l = labeled_split(Xt, yt)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        fits = [fit(src, Xu, tgt_l, FitConfig(hyper=Hyperparams(d=2, T=3), mode=mode))
                for mode in ("unsupervised", "semisupervised")]
        for part in (lambda m: m.A, lambda m: m.B, lambda m: m.pseudo_labels,
                     lambda m: m.weights.alpha, lambda m: m.weights.beta,
                     lambda m: m.trace.objective, lambda m: m.trace.mmd,
                     lambda m: m.trace.label_changes):
            assert part(fits[0]).tobytes() == part(fits[1]).tobytes()

    def test_class_only_the_labeled_targets_hold(self):
        # class 2's one labeled target lies between the source clusters of
        # classes 0 and 1, and no target takes its pseudo label: the weight
        # step has no sample of class 2 in either domain
        rng = np.random.default_rng(0)
        means = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 0.0]]).T
        Xs = np.hstack([means[:, [c]] + rng.normal(size=(2, 20)) for c in (0, 1)])
        ys = np.repeat([0, 1], 20)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 3)
        tgt_l = LabeledDataset(FeatureMatrix(means), np.arange(3), 3)
        model = fit(src, Xs, tgt_l, FitConfig(hyper=Hyperparams(d=2, T=3)))
        assert not np.any(model.pseudo_labels == 2)
        assert check_feasible(model.weights, ys, model.pseudo_labels)
        assert np.array_equal(model.pseudo_labels, predict(model, src, Xs, tgt_l))

    def test_declared_class_without_labeled_sample_refused_first(self, monkeypatch):
        def never(*args):
            raise AssertionError("work started before the refusal")

        monkeypatch.setattr(pipeline.labelprop, "classify", never)
        monkeypatch.setattr(eigsolve, "solve", never)
        Xs, ys, Xt, _ = synth_rotated(10, 3, 0)
        src = LabeledDataset(FeatureMatrix(Xs), ys, 4)
        with pytest.raises(ValueError, match="^class 3 of the 4 declared has no labeled sample"):
            fit(src, Xt, None, FitConfig(hyper=Hyperparams(d=2, T=2)))

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

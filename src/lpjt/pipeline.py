"""End-to-end training: alternate the eigenproblem, pseudo-label refresh
and the landmark QP, then classify by label propagation in the subspace.

One outer iteration rebuilds the MMD and target graph matrices from the
previous iteration's pseudo labels and weights (the first uses the initial
ones), solves for the projections, embeds both domains, refreshes the
pseudo labels and re-optimizes the landmark weights. The per-iteration
objective (the trace-ratio value), the subspace MMD distance and the
number of changed pseudo labels are recorded.
"""

import dataclasses
import warnings

import numpy as np
from scipy.spatial.distance import cdist

from . import eigsolve, graph, labelprop, landmark, mmd
from .core import (
    FeatureMatrix,
    FitConfig,
    LabeledDataset,
    SubspaceModel,
    TrainTrace,
    apply_zscore,
    as_features,
    unit_normalize,
    validate_pair,
    zscore_normalize,
)

def _fit_normalizer(X: FeatureMatrix, mode: str):
    if mode == "none":
        return X, ("none",)
    if mode == "unit":
        return unit_normalize(X), ("unit",)
    if mode == "zscore":
        Xn, mean, std = zscore_normalize(X)
        return Xn, ("zscore", mean, std)
    Xn, mean, std = zscore_normalize(unit_normalize(X))
    return Xn, ("unit+zscore", mean, std)


def _apply_normalizer(X: FeatureMatrix, state):
    mode = state[0]
    if mode == "none":
        return X
    if mode == "unit":
        return unit_normalize(X)
    if mode == "zscore":
        return apply_zscore(X, state[1], state[2])
    return apply_zscore(unit_normalize(X), state[1], state[2])


def _span_basis(X: FeatureMatrix):
    """Orthonormal basis of the sample span when features outnumber samples."""
    if X.dim <= X.n:
        return None
    Q, _ = np.linalg.qr(X.data)
    return Q


def _pca_scores(X: FeatureMatrix, m: int) -> np.ndarray:
    """Per-domain PCA to m standardized components, deterministic signs."""
    centered = X.data - X.data.mean(axis=1, keepdims=True)
    U, s, _ = np.linalg.svd(centered, full_matrices=False)
    comps = U[:, :m]
    for j in range(comps.shape[1]):
        lead = np.argmax(np.abs(comps[:, j]))
        if comps[lead, j] < 0:
            comps[:, j] = -comps[:, j]
    scores = comps.T @ centered
    std = scores.std(axis=1)
    keep = std >= 1e-12
    scores[keep] /= std[keep, None]
    scores[~keep] = 0.0
    return scores


def _nn_labels(train: LabeledDataset, test: FeatureMatrix) -> np.ndarray:
    nearest = np.argmin(cdist(test.data.T, train.features.data.T), axis=1)
    return train.labels[nearest]


def _initial_labels(train: LabeledDataset, test: FeatureMatrix, cfg: FitConfig) -> np.ndarray:
    if cfg.init_strategy == "nn_raw":
        return _nn_labels(train, test)
    return labelprop.classify(train, test, cfg.hyper)


def _ratio_objective(sol: eigsolve.EigSolution) -> float:
    # tr(P^T RHS P) = d after solving, so the minimized ratio is d / sum(lambda)
    lam = float(sol.eigenvalues.sum())
    if lam <= 0.0:
        return np.inf
    return sol.P.shape[1] / lam


def fit(src: LabeledDataset, tgt_u, tgt_l: LabeledDataset | None = None,
        cfg: FitConfig | None = None) -> SubspaceModel:
    """Train projections A, B plus landmark weights on a transfer problem.

    Pseudo labels are initialized by label propagation: from the labeled
    target subset in semisupervised mode, from the source on the shared
    feature space when the domains are homogeneous, and otherwise across
    per-domain PCA embeddings of a common dimensionality. If the objective
    worsens by more than 1% after a pseudo-label refresh, the refresh is
    rolled back for that iteration.
    """
    if cfg is None:
        cfg = FitConfig()
    hyper = cfg.hyper
    inst = validate_pair(src, tgt_u, tgt_l)
    C = inst.num_classes

    Xs, s_state = _fit_normalizer(src.features, cfg.normalize)
    Xu, u_state = _fit_normalizer(inst.tgt_u, cfg.normalize)
    y_s = src.labels

    semisup = cfg.mode == "semisupervised" and inst.tgt_l is not None
    if semisup:
        Xl = _apply_normalizer(inst.tgt_l.features, u_state)
        train0 = LabeledDataset(Xl, inst.tgt_l.labels, C)
        labels_cur = _initial_labels(train0, Xu, cfg)
    elif inst.homogeneous:
        labels_cur = _initial_labels(LabeledDataset(Xs, y_s, C), Xu, cfg)
    else:
        m = max(1, min(Xs.dim, Xu.dim, hyper.d))
        train0 = LabeledDataset(as_features(_pca_scores(Xs, m)), y_s, C)
        labels_cur = _initial_labels(train0, as_features(_pca_scores(Xu, m)), cfg)

    # when features outnumber samples, work in the sample span: distances,
    # inner products and every data-derived matrix are unchanged, and the
    # solved projection maps back exactly as Q @ A_compressed
    Q_s = _span_basis(Xs)
    Q_u = _span_basis(Xu)
    if Q_s is not None:
        Xs = FeatureMatrix(Q_s.T @ Xs.data)
    if Q_u is not None:
        Xu = FeatureMatrix(Q_u.T @ Xu.data)
    d_s, d_t, n_s, n_u = Xs.dim, Xu.dim, Xs.n, Xu.n
    if hyper.d > d_s + d_t:
        raise ValueError(f"subspace dim {hyper.d} exceeds d_s + d_t = {d_s + d_t}")
    homogeneous = cfg.homogeneous and d_s == d_t and Q_s is None and Q_u is None
    if cfg.homogeneous and not homogeneous:
        warnings.warn(
            "homogeneous=True is ignored: the A~B coupling needs equal feature "
            "counts and no more features than samples in either domain (source "
            f"{src.features.dim}x{src.n}, target {inst.tgt_u.dim}x{inst.tgt_u.n})",
            RuntimeWarning,
        )

    # the graph distances of each domain, fixed for the whole fit
    sqdist_s = graph.pairwise_sqdist(Xs)
    sqdist_u = graph.pairwise_sqdist(Xu)
    weights = landmark.uniform_weights(n_s, n_u, hyper.delta)
    scat = graph.scatter_matrices(Xs, sqdist_s, y_s, Xu, sqdist_u, labels_cur, hyper)
    coeffs = mmd.build_coeffs(weights.alpha, weights.beta, y_s, labels_cur,
                              hyper.delta, C)
    blocks = mmd.assemble_M(Xs, Xu, coeffs)

    def refresh(labels, weights):
        """Target scatters and MMD blocks for new pseudo labels and weights."""
        S_w_u, S_b_u = graph.locality_scatters(Xu, sqdist_u, labels, hyper)
        coeffs = mmd.build_coeffs(weights.alpha, weights.beta, y_s, labels,
                                  hyper.delta, C)
        return (dataclasses.replace(scat, S_w_u=S_w_u, S_b_u=S_b_u),
                mmd.assemble_M(Xs, Xu, coeffs))

    objective_tr, mmd_tr, change_tr = [], [], []
    prev_obj = None
    labels_prev = None
    A = B = None
    for it in range(hyper.T):
        if it > 0:
            scat, blocks = refresh(labels_cur, weights)
        problem = eigsolve.assemble_problem(blocks, scat, hyper, homogeneous)
        sol = eigsolve.solve(problem, hyper.d)
        obj = _ratio_objective(sol)
        if (
            prev_obj is not None
            and np.isfinite(prev_obj)
            and obj > 1.01 * prev_obj
            and labels_prev is not None
            and not np.array_equal(labels_prev, labels_cur)
        ):
            # damping: keep the previous pseudo labels for this iteration
            labels_cur = labels_prev
            scat, blocks = refresh(labels_cur, weights)
            problem = eigsolve.assemble_problem(blocks, scat, hyper, homogeneous)
            sol = eigsolve.solve(problem, hyper.d)
            obj = _ratio_objective(sol)
        if not np.isfinite(obj):
            raise RuntimeError(
                "objective is not finite: the maximized side is zero "
                f"(gamma={hyper.gamma}, mu={hyper.mu}); "
                "increase gamma or mu so the trace ratio is well defined"
            )

        A, B = eigsolve.split_projection(sol.P, d_s, d_t)
        Z_s = A.T @ Xs.data
        Z_u = B.T @ Xu.data

        Zc_s, Zc_u = Z_s, Z_u
        if cfg.embed_norm:
            Zc_s = unit_normalize(Z_s).data
            Zc_u = unit_normalize(Z_u).data
        new_labels = labelprop.classify(
            LabeledDataset(as_features(Zc_s), y_s, C), as_features(Zc_u), hyper
        )
        changes = int(np.count_nonzero(new_labels != labels_cur))
        mmd_tr.append(
            mmd.mmd_distance(Z_s, Z_u, y_s, new_labels,
                             weights.alpha, weights.beta, hyper.delta)
        )

        qp = landmark.build_qp(Z_s, Z_u, y_s, new_labels, hyper.delta, C)
        weights = landmark.solve_qp(qp, landmark.project_feasible(qp, weights))

        labels_prev = labels_cur
        labels_cur = new_labels

        objective_tr.append(obj)
        change_tr.append(changes)
        prev_obj = obj

    trace = TrainTrace(
        objective=np.asarray(objective_tr),
        mmd=np.asarray(mmd_tr),
        label_changes=np.asarray(change_tr, dtype=np.int64),
    )
    if Q_s is not None:
        A = Q_s @ A
    if Q_u is not None:
        B = Q_u @ B
    return SubspaceModel(A=A, B=B, cfg=cfg, weights=weights, trace=trace,
                         num_classes=C, pseudo_labels=labels_cur)


def transform(model: SubspaceModel, X, domain: str) -> FeatureMatrix:
    """Project raw-space samples with A (source) or B (target)."""
    X = as_features(X)
    if domain == "source":
        P = model.A
    elif domain == "target":
        P = model.B
    else:
        raise ValueError("domain must be 'source' or 'target'")
    if X.dim != P.shape[0]:
        raise ValueError(f"expected {P.shape[0]} features, got {X.dim}")
    return FeatureMatrix(P.T @ X.data)


def predict(model: SubspaceModel, src: LabeledDataset, tgt_u,
            tgt_l: LabeledDataset | None = None) -> np.ndarray:
    """Label the unlabeled target samples in the learned subspace.

    The training-time normalization is reproduced from the same raw inputs,
    both domains are embedded, and label propagation runs with the source
    (plus the labeled target subset, when given) as labeled data.
    """
    cfg = model.cfg
    inst = validate_pair(src, tgt_u, tgt_l)
    Xs, _ = _fit_normalizer(src.features, cfg.normalize)
    Xu, u_state = _fit_normalizer(inst.tgt_u, cfg.normalize)
    Z_s = transform(model, Xs, "source").data
    Z_u = transform(model, Xu, "target").data
    labeled = Z_s
    labels = src.labels
    if inst.tgt_l is not None:
        Xl = _apply_normalizer(inst.tgt_l.features, u_state)
        Z_l = transform(model, Xl, "target").data
        labeled = np.hstack([Z_s, Z_l])
        labels = np.concatenate([src.labels, inst.tgt_l.labels])
    if cfg.embed_norm:
        labeled = unit_normalize(labeled).data
        Z_u = unit_normalize(Z_u).data
    train = LabeledDataset(as_features(labeled), labels, model.num_classes or inst.num_classes)
    return labelprop.classify(train, as_features(Z_u), cfg.hyper)


def evaluate(pred, truth) -> float:
    """Fraction of exact label matches."""
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.shape[0] != truth.shape[0]:
        raise ValueError(f"length mismatch: {pred.shape[0]} vs {truth.shape[0]}")
    return float(np.mean(pred == truth))

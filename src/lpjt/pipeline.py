"""End-to-end training: alternate the eigenproblem, pseudo-label refresh
and the landmark QP, then classify by label propagation in the subspace.

One outer iteration rebuilds the MMD and target graph matrices from the
previous iteration's pseudo labels and weights (the first uses the initial
ones), solves for the projections, embeds both domains, refreshes the
pseudo labels and re-optimizes the landmark weights. The per-iteration
objective (the trace-ratio value), the subspace MMD distance and the
number of changed pseudo labels are recorded.

`fit` and `predict` share `_prepare` (validation and normalization) and
`_classify`, the one label-propagation step in the subspace.
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


def _normalize(mode: str, X: FeatureMatrix, *others: FeatureMatrix) -> list[FeatureMatrix]:
    """Normalize X per `mode`, and each of `others` with X's statistics."""
    mats = [X, *others]
    if mode in ("unit", "unit+zscore"):
        mats = [unit_normalize(M) for M in mats]
    if mode in ("zscore", "unit+zscore"):
        first, mean, std = zscore_normalize(mats[0])
        mats = [first] + [apply_zscore(M, mean, std) for M in mats[1:]]
    return mats


def _prepare(src: LabeledDataset, tgt_u, tgt_l: LabeledDataset | None, mode: str):
    """Validate a problem and return (Xs, Xu, Xl) normalized per `mode`: each
    domain with its own statistics, Xl (None if absent) with Xu's."""
    tgt_u = validate_pair(src, tgt_u, tgt_l)
    (Xs,) = _normalize(mode, src.features)
    if tgt_l is None:
        return Xs, *_normalize(mode, tgt_u), None
    return Xs, *_normalize(mode, tgt_u, tgt_l.features)


def _classify(Z_train, labels, Z_test, num_classes: int, cfg: FitConfig) -> np.ndarray:
    """Label propagation between embedded samples, unit-scaled first when
    `cfg.embed_norm` is set."""
    train, test = as_features(Z_train), as_features(Z_test)
    if cfg.embed_norm:
        train, test = unit_normalize(train), unit_normalize(test)
    return labelprop.classify(LabeledDataset(train, labels, num_classes), test, cfg.hyper)


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
    feature space when both domains have the same feature count, and
    otherwise across per-domain PCA embeddings of a common dimensionality.
    If the objective worsens by more than 1% after a pseudo-label refresh,
    the refresh is rolled back for that iteration.
    """
    if cfg is None:
        cfg = FitConfig()
    hyper = cfg.hyper
    Xs, Xu, Xl = _prepare(src, tgt_u, tgt_l, cfg.normalize)
    C = src.num_classes
    y_s = src.labels

    if cfg.mode == "semisupervised" and Xl is not None:
        train0, test0 = LabeledDataset(Xl, tgt_l.labels, C), Xu
    elif Xs.dim == Xu.dim:
        train0, test0 = LabeledDataset(Xs, y_s, C), Xu
    else:
        m = max(1, min(Xs.dim, Xu.dim, hyper.d))
        train0 = LabeledDataset(as_features(_pca_scores(Xs, m)), y_s, C)
        test0 = as_features(_pca_scores(Xu, m))
    if cfg.init_strategy == "nn_raw":
        # C-order copies: scipy's cdist is several times slower on the
        # transposed views, at the same result
        nearest = np.argmin(cdist(np.ascontiguousarray(test0.data.T),
                                  np.ascontiguousarray(train0.features.data.T)), axis=1)
        labels_cur = train0.labels[nearest]
    else:
        labels_cur = labelprop.classify(train0, test0, hyper)

    # when features outnumber samples, work in the sample span: distances,
    # inner products and every data-derived matrix are unchanged, and the
    # solved projection maps back exactly as Q @ A_compressed
    Q_s = _span_basis(Xs)
    Q_u = _span_basis(Xu)
    couple = cfg.homogeneous and Xs.dim == Xu.dim and Q_s is None and Q_u is None
    if cfg.homogeneous and not couple:
        warnings.warn(
            "homogeneous=True is ignored: the A~B coupling needs equal feature "
            "counts and no more features than samples in either domain (source "
            f"{Xs.dim}x{Xs.n}, target {Xu.dim}x{Xu.n})",
            RuntimeWarning,
        )
    if Q_s is not None:
        Xs = FeatureMatrix(Q_s.T @ Xs.data)
    if Q_u is not None:
        Xu = FeatureMatrix(Q_u.T @ Xu.data)
    d_s, d_t, n_s, n_u = Xs.dim, Xu.dim, Xs.n, Xu.n
    if hyper.d > d_s + d_t:
        raise ValueError(f"subspace dim {hyper.d} exceeds d_s + d_t = {d_s + d_t}")

    # the graph distances of each domain and their neighbor order, fixed for
    # the whole fit; the source graphs are built once, so its distances are
    # let go after that
    nbrs_s = graph.NeighborOrder(graph.pairwise_sqdist(Xs))
    nbrs_u = graph.NeighborOrder(graph.pairwise_sqdist(Xu))
    weights = landmark.uniform_weights(n_s, n_u, hyper.delta)
    scat = graph.scatter_matrices(Xs, nbrs_s, y_s, Xu, nbrs_u, labels_cur, hyper)
    del nbrs_s

    def target_scatters(labels):
        S_w_u, S_b_u = graph.locality_scatters(Xu, nbrs_u, labels, hyper)
        return dataclasses.replace(scat, S_w_u=S_w_u, S_b_u=S_b_u)

    def mmd_blocks(labels, weights):
        coeffs = mmd.build_coeffs(weights.alpha, weights.beta, y_s, labels,
                                  hyper.delta, C)
        return mmd.assemble_M(Xs, Xu, coeffs)

    blocks = mmd_blocks(labels_cur, weights)
    objective_tr, mmd_tr, change_tr = [], [], []
    prev_obj = None
    labels_prev = scat_prev = None
    A = B = None
    for it in range(hyper.T):
        if it > 0:
            scat_prev, scat = scat, target_scatters(labels_cur)
            blocks = mmd_blocks(labels_cur, weights)
        problem = eigsolve.assemble_problem(blocks, scat, hyper, couple)
        sol = eigsolve.solve(problem, hyper.d)
        obj = _ratio_objective(sol)
        if (
            prev_obj is not None
            and np.isfinite(prev_obj)
            and obj > 1.01 * prev_obj
            and labels_prev is not None
            and not np.array_equal(labels_prev, labels_cur)
        ):
            # damping: keep the previous pseudo labels for this iteration;
            # the previous iteration's scatters were built for exactly them,
            # and only the MMD blocks see the new weights
            labels_cur, scat = labels_prev, scat_prev
            blocks = mmd_blocks(labels_cur, weights)
            problem = eigsolve.assemble_problem(blocks, scat, hyper, couple)
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
        new_labels = _classify(Z_s, y_s, Z_u, C, cfg)
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
    Xs, Xu, Xl = _prepare(src, tgt_u, tgt_l, cfg.normalize)
    labeled = transform(model, Xs, "source").data
    labels = src.labels
    if Xl is not None:
        labeled = np.hstack([labeled, transform(model, Xl, "target").data])
        labels = np.concatenate([labels, tgt_l.labels])
    return _classify(labeled, labels, transform(model, Xu, "target").data,
                     model.num_classes or src.num_classes, cfg)


def evaluate(pred, truth) -> float:
    """Fraction of exact label matches."""
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.shape[0] != truth.shape[0]:
        raise ValueError(f"length mismatch: {pred.shape[0]} vs {truth.shape[0]}")
    return float(np.mean(pred == truth))

"""End-to-end training: alternate the eigenproblem, pseudo-label refresh
and the landmark QP, then classify by label propagation in the subspace.

One outer iteration rebuilds the MMD and target graph matrices from the
previous iteration's pseudo labels and weights (the first uses the initial
ones), solves for the projections, embeds both domains, refreshes the
pseudo labels and re-optimizes the landmark weights. The per-iteration
objective (the trace-ratio value), the subspace MMD distance and the
number of changed pseudo labels are recorded.

Pseudo labels only ever come from labeled samples in the target's feature
space: the initial ones in the raw space from the source, or from the
labeled targets when the feature counts differ, every refresh from one
labeled set in the subspace, the source plus the labeled targets when
given. `fit` and `predict` share `_prepare` (validation and
normalization) and `_classify`, the one label-propagation step in the
subspace, so a fit's last pseudo labels are what `predict` returns on the
same inputs.
"""

import dataclasses
import warnings

import numpy as np
# unused here; bench/tracer.py wraps pipeline.cdist by name
from scipy.spatial.distance import cdist  # noqa: F401

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


def _classify(Z_s, y_s, Z_l, y_l, Z_u, num_classes: int, cfg: FitConfig) -> np.ndarray:
    """Label propagation in the subspace from the labeled set, the embedded
    source plus the embedded labeled targets (Z_l, y_l; None when absent),
    to the embedded unlabeled targets Z_u. Every sample is unit-scaled
    first when `cfg.embed_norm` is set."""
    if Z_l is not None:
        Z_s, y_s = np.hstack([Z_s, Z_l]), np.concatenate([y_s, y_l])
    train, test = as_features(Z_s), as_features(Z_u)
    if cfg.embed_norm:
        train, test = unit_normalize(train), unit_normalize(test)
    return labelprop.classify(LabeledDataset(train, y_s, num_classes), test, cfg.hyper)


def _span_basis(X: FeatureMatrix):
    """Orthonormal basis of the sample span when features outnumber samples."""
    if X.dim <= X.n:
        return None
    Q, _ = np.linalg.qr(X.data)
    return Q


def _ratio_objective(sol: eigsolve.EigSolution) -> float:
    # tr(P^T RHS P) = d after solving, so the minimized ratio is d / sum(lambda)
    lam = float(sol.eigenvalues.sum())
    if lam <= 0.0:
        return np.inf
    return sol.P.shape[1] / lam


def fit(src: LabeledDataset, tgt_u, tgt_l: LabeledDataset | None = None,
        cfg: FitConfig | None = None) -> SubspaceModel:
    """Train projections A, B plus landmark weights on a transfer problem.

    The initial pseudo labels propagate in the raw space from labeled
    samples in the target's feature space: from the source when both
    domains have the same feature count, otherwise from `tgt_l`. A
    heterogeneous problem without `tgt_l` raises ValueError before any
    other work. Every refresh propagates in the subspace from the source
    plus `tgt_l` (when given), embedded as `predict` embeds them, so the
    returned `pseudo_labels` equal `predict` on the same inputs.
    """
    if cfg is None:
        cfg = FitConfig()
    hyper = cfg.hyper
    Xs, Xu, Xl = _prepare(src, tgt_u, tgt_l, cfg.normalize)
    C = src.num_classes
    y_s = src.labels
    y_l = None if tgt_l is None else tgt_l.labels

    if Xs.dim == Xu.dim:
        init = LabeledDataset(Xs, y_s, C)
    elif Xl is not None:
        init = LabeledDataset(Xl, y_l, C)
    else:
        raise ValueError(
            f"the source has {Xs.dim} features and the target {Xu.dim}: heterogeneous "
            "fits need labeled target samples (target_labeled)"
        )
    # the sample span below leaves each domain min(features, samples) dims
    d_s, d_t = min(Xs.dim, Xs.n), min(Xu.dim, Xu.n)
    if hyper.d > d_s + d_t:
        raise ValueError(f"subspace dim {hyper.d} exceeds d_s + d_t = {d_s + d_t}")
    labels_cur = labelprop.classify(init, Xu, hyper)

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
        # B maps back as Q_u @ B, which sees only this part of Xl
        if Xl is not None:
            Xl = FeatureMatrix(Q_u.T @ Xl.data)

    weights = landmark.uniform_weights(Xs.n, Xu.n, hyper.delta)
    # the target's samples are fixed over the fit, only its pseudo labels
    # move: one search state keeps the graph work they leave standing
    search_u = graph._Search(Xu)
    scat = graph.scatter_matrices(Xs, y_s, Xu, labels_cur, hyper, search_u)

    objective_tr, mmd_tr, change_tr = [], [], []
    A = B = None
    for it in range(hyper.T):
        if it > 0:
            S_w_u, S_b_u = graph.locality_scatters(Xu, labels_cur, hyper, search_u)
            scat = dataclasses.replace(scat, S_w_u=S_w_u, S_b_u=S_b_u)
        coeffs = mmd.build_coeffs(weights.alpha, weights.beta, y_s, labels_cur,
                                  hyper.delta, C)
        blocks = mmd.assemble_M(Xs, Xu, coeffs)
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
        Z_l = None if Xl is None else B.T @ Xl.data
        new_labels = _classify(Z_s, y_s, Z_l, y_l, Z_u, C, cfg)
        changes = int(np.count_nonzero(new_labels != labels_cur))
        mmd_tr.append(
            mmd.mmd_distance(Z_s, Z_u, y_s, new_labels,
                             weights.alpha, weights.beta, hyper.delta)
        )

        qp = landmark.build_qp(Z_s, Z_u, y_s, new_labels, hyper.delta, C)
        weights = landmark.solve_qp(qp, weights)
        labels_cur = new_labels

        objective_tr.append(obj)
        change_tr.append(changes)

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
    (plus the labeled target subset, when given) as labeled data. A source
    whose class count is not the model's is a `ValueError`.
    """
    if src.num_classes != model.num_classes:
        raise ValueError(f"the model has {model.num_classes} classes, "
                         f"the source {src.num_classes}")
    cfg = model.cfg
    Xs, Xu, Xl = _prepare(src, tgt_u, tgt_l, cfg.normalize)
    Z_l = y_l = None
    if Xl is not None:
        Z_l, y_l = transform(model, Xl, "target").data, tgt_l.labels
    return _classify(transform(model, Xs, "source").data, src.labels, Z_l, y_l,
                     transform(model, Xu, "target").data,
                     model.num_classes, cfg)


def evaluate(pred, truth) -> float:
    """Fraction of exact label matches."""
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.shape[0] != truth.shape[0]:
        raise ValueError(f"length mismatch: {pred.shape[0]} vs {truth.shape[0]}")
    return float(np.mean(pred == truth))

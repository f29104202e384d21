"""Shared data types, input validation and feature normalization.

Data matrices are stored column-major: one column per sample, one row per
feature. All types are immutable after construction (arrays are marked
read-only), so they can be shared freely across threads.
"""

from dataclasses import dataclass, field

import numpy as np


def _freeze(a, dtype=np.float64):
    """A read-only C-order array of a's values, at least 1-D; a copy when it
    would share the caller's writeable data, which stays writeable."""
    out = np.ascontiguousarray(a, dtype=dtype)
    if out.flags.writeable and isinstance(a, np.ndarray) and np.may_share_memory(out, a):
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense feature matrix of shape (dim, n): one column per sample."""

    data: np.ndarray

    def __post_init__(self):
        data = np.atleast_2d(_freeze(self.data))
        if data.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("feature matrix must be non-empty")
        if not np.all(np.isfinite(data)):
            raise ValueError("feature matrix contains NaN or Inf entries")
        object.__setattr__(self, "data", data)

    @property
    def dim(self):
        return self.data.shape[0]

    @property
    def n(self):
        return self.data.shape[1]


def as_features(X) -> FeatureMatrix:
    """Coerce a FeatureMatrix or a (dim, n) array into a FeatureMatrix."""
    return X if isinstance(X, FeatureMatrix) else FeatureMatrix(X)


def _fresh_features(data) -> FeatureMatrix:
    """FeatureMatrix of an array just computed here that nothing else holds,
    marked read-only first so that it is stored without a copy."""
    data.setflags(write=False)
    return FeatureMatrix(data)


def _check_count(name: str, value) -> None:
    """Raise ValueError naming `name` unless value is a positive integer (a
    Python or numpy integer, not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix plus integer class labels in [0, num_classes)."""

    features: FeatureMatrix
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        labels = _freeze(self.labels, np.int64).ravel()
        if labels.shape[0] != self.features.n:
            raise ValueError(
                f"got {labels.shape[0]} labels for {self.features.n} samples"
            )
        _check_count("num_classes", self.num_classes)
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "labels", labels)

    @property
    def n(self):
        return self.features.n


@dataclass(frozen=True)
class Hyperparams:
    """Training hyperparameters.

    delta          landmark ratio in (0, 1]: per-class mean of the sample weights
    gamma          weight of the locality-preserving graph terms
    mu             weight of the target variance / projection-norm terms
    d              subspace dimensionality
    T              number of outer iterations
    k_w, k_b       neighbors in the intrinsic / penalty graphs
    sigma_lp       label-propagation mixing coefficient, in (0, 1)
    lambda_couple  weight tying A to B in homogeneous mode; None picks
                   0.1 * trace(RHS) / (d_s + d_t) at assembly time
    eps_reg        ridge added to the constraint-side matrix; None picks
                   1e-6 * trace(RHS) / (d_s + d_t) at assembly time
    """

    delta: float = 0.5
    gamma: float = 0.01
    mu: float = 0.1
    d: int = 2
    T: int = 5
    k_w: int = 5
    k_b: int = 5
    sigma_lp: float = 0.9
    lambda_couple: float | None = None
    eps_reg: float | None = None

    def __post_init__(self):
        # NaN fails every comparison below and inf passes the sign checks
        for name in ("gamma", "mu", "lambda_couple", "eps_reg"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if not 0.0 < self.sigma_lp < 1.0:
            raise ValueError("sigma_lp must lie in (0, 1)")
        if self.gamma < 0 or self.mu < 0:
            raise ValueError("gamma and mu must be nonnegative")
        if self.lambda_couple is not None and self.lambda_couple < 0:
            raise ValueError("lambda_couple must be nonnegative")
        if self.eps_reg is not None and self.eps_reg <= 0:
            raise ValueError("eps_reg must be positive")
        for name in ("d", "T", "k_w", "k_b"):
            _check_count(name, getattr(self, name))


@dataclass(frozen=True)
class TrainTrace:
    """Per-iteration diagnostics recorded during fitting."""

    objective: np.ndarray = field(default_factory=lambda: np.zeros(0))
    mmd: np.ndarray = field(default_factory=lambda: np.zeros(0))
    label_changes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def __post_init__(self):
        object.__setattr__(self, "objective", _freeze(self.objective).ravel())
        object.__setattr__(self, "mmd", _freeze(self.mmd).ravel())
        object.__setattr__(self, "label_changes", _freeze(self.label_changes, np.int64).ravel())
        if not self.objective.size == self.mmd.size == self.label_changes.size:
            raise ValueError("objective, mmd and label_changes traces must have equal lengths")
        if not (np.isfinite(self.objective).all() and np.isfinite(self.mmd).all()):
            raise ValueError("objective and mmd trace entries must be finite")
        if np.any(self.mmd < 0) or np.any(self.label_changes < 0):
            raise ValueError("mmd and label_changes trace entries must be nonnegative")

    def __len__(self):
        return self.objective.shape[0]


FIT_MODES = ("unsupervised", "semisupervised")
NORMALIZE_MODES = ("none", "zscore", "unit", "unit+zscore")


@dataclass(frozen=True)
class FitConfig:
    """Training-run configuration on top of the hyperparameters.

    `mode` has no effect: `fit` takes its initial pseudo labels from the
    source when the domains have equal feature counts, otherwise from the
    labeled targets. It is still validated, saved and loaded for the run
    configs and model files that set it.
    `homogeneous` opts into the A~B coupling (requires equal source/target
    dimensionality and no sample-span map; `fit` warns and fits without
    it otherwise). `normalize` is applied per domain before fitting;
    'unit+zscore' scales samples to unit norm first, then standardizes
    features. `embed_norm` scales embedded samples to unit length before
    every label-propagation step (classifier preprocessing only; the
    objective always sees the raw embeddings), which compensates for the
    projection-norm penalty shrinking one domain relative to the other.
    """

    hyper: Hyperparams = field(default_factory=Hyperparams)
    mode: str = "unsupervised"
    normalize: str = "zscore"
    homogeneous: bool = False
    embed_norm: bool = True

    def __post_init__(self):
        if self.mode not in FIT_MODES:
            raise ValueError(f"mode must be one of {FIT_MODES}")
        if self.normalize not in NORMALIZE_MODES:
            raise ValueError(f"normalize must be one of {NORMALIZE_MODES}")


@dataclass(frozen=True)
class SubspaceModel:
    """Fitted projections A (d_s x d) and B (d_t x d), their FitConfig and training state."""

    A: np.ndarray
    B: np.ndarray
    cfg: FitConfig
    weights: "object" = None     # landmark.LandmarkWeights
    trace: TrainTrace = field(default_factory=TrainTrace)
    num_classes: int = 0
    pseudo_labels: np.ndarray | None = None

    def __post_init__(self):
        A, B = _freeze(self.A), _freeze(self.B)
        if A.ndim != 2 or B.ndim != 2:
            raise ValueError("A and B must be 2-D")
        if A.shape[1] != B.shape[1]:
            raise ValueError("A and B must share the subspace dimension")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise ValueError("projections contain non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def d(self):
        return self.A.shape[1]


def zscore_normalize(X):
    """Standardize each feature row to zero mean, unit standard deviation.

    Rows with standard deviation below 1e-12 are set to all zeros instead of
    dividing by ~0. Returns (normalized, mean, std) so that the identical
    transform can be applied to held-out data via apply_zscore.
    """
    X = as_features(X)
    mean = X.data.mean(axis=1)
    std = X.data.std(axis=1)
    return apply_zscore(X, mean, std), mean, std


def apply_zscore(X, mean, std) -> FeatureMatrix:
    """Apply previously fitted per-row standardization statistics."""
    X = as_features(X)
    mean = np.asarray(mean, dtype=np.float64).ravel()
    std = np.asarray(std, dtype=np.float64).ravel()
    if mean.shape[0] != X.dim or std.shape[0] != X.dim:
        raise ValueError("normalization statistics do not match feature count")
    out = X.data - mean[:, None]
    keep = std >= 1e-12
    out[keep] /= std[keep, None]
    out[~keep] = 0.0
    return _fresh_features(out)


def unit_normalize(X) -> FeatureMatrix:
    """Scale each sample column to unit Euclidean norm; zero columns stay zero."""
    X = as_features(X)
    norms = np.linalg.norm(X.data, axis=0)
    scale = np.where(norms > 0, norms, 1.0)
    return _fresh_features(X.data / scale)


def validate_pair(src: LabeledDataset, tgt_u, tgt_l: LabeledDataset | None = None) -> FeatureMatrix:
    """Validate a transfer problem; returns the unlabeled target as a FeatureMatrix.

    Heterogeneous dimensionalities (d_s != d_t) are allowed; the labeled
    target subset, when given, must match the unlabeled target's feature
    count and the source's class count. Every declared class needs a
    labeled sample in the source or the labeled target. Inputs are never
    mutated.
    """
    if not isinstance(src, LabeledDataset):
        raise TypeError("src must be a LabeledDataset")
    tgt_u = as_features(tgt_u)
    if tgt_l is not None:
        if not isinstance(tgt_l, LabeledDataset):
            raise TypeError("tgt_l must be a LabeledDataset or None")
        if tgt_l.features.dim != tgt_u.dim:
            raise ValueError(
                f"labeled target has {tgt_l.features.dim} features, "
                f"unlabeled target has {tgt_u.dim}"
            )
        if tgt_l.num_classes != src.num_classes:
            raise ValueError(
                f"class count mismatch: source has {src.num_classes}, "
                f"labeled target has {tgt_l.num_classes}"
            )
    labeled = src.labels if tgt_l is None else np.concatenate([src.labels, tgt_l.labels])
    missing = np.flatnonzero(np.bincount(labeled, minlength=src.num_classes) == 0)
    if missing.size:
        raise ValueError(
            f"class {', '.join(map(str, missing))} of the {src.num_classes} declared has "
            "no labeled sample in the source or the labeled target"
        )
    return tgt_u

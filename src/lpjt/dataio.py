"""File formats and synthetic problem generators for the CLI.

Datasets are CSV with header f0..f{d-1},label where label -1 marks an
unlabeled sample. Models are a small versioned binary: magic 'LPJT',
format version, dimensions, then A and B row-major as little-endian
float64, then a JSON metadata block (the `FitConfig` fields, landmark
weights, pseudo labels and the training trace). Floats written to CSV use
shortest round-trip formatting, so read(write(x)) == x bit-exactly.
"""

import csv
import dataclasses
import json
import struct
import typing
from dataclasses import dataclass

import numpy as np

from .core import (
    FeatureMatrix,
    FitConfig,
    Hyperparams,
    LabeledDataset,
    SubspaceModel,
    TrainTrace,
)
from .landmark import LandmarkWeights

MODEL_MAGIC = b"LPJT"
MODEL_VERSION = 1


class ConfigError(ValueError):
    """Malformed run configuration (unknown key, bad value, missing entry)."""


# ---------------------------------------------------------------------------
# dataset CSV

def write_dataset(path, X, labels=None):
    """Write one sample per row; labels default to -1 (unlabeled)."""
    X = X.data if isinstance(X, FeatureMatrix) else np.asarray(X, dtype=np.float64)
    dim, n = X.shape
    if labels is None:
        labels = np.full(n, -1, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.shape[0] != n:
        raise ValueError("labels length must match the sample count")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dim)] + ["label"])
        for j in range(n):
            writer.writerow([repr(float(v)) for v in X[:, j]] + [int(labels[j])])


def read_dataset(path):
    """Read a dataset CSV; returns (FeatureMatrix, labels) with -1 allowed."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "label":
            raise ConfigError(f"{path}: expected header f0..f{{d-1}},label")
        dim = len(header) - 1
        feats, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 1:
                raise ConfigError(f"{path}:{lineno}: expected {dim + 1} columns, got {len(row)}")
            feats.append([float(v) for v in row[:dim]])
            labels.append(int(row[dim]))
    if not feats:
        raise ConfigError(f"{path}: no data rows")
    X = FeatureMatrix(np.asarray(feats, dtype=np.float64).T)
    return X, np.asarray(labels, dtype=np.int64)


def load_labeled(path, num_classes=None) -> LabeledDataset:
    X, labels = read_dataset(path)
    if labels.min() < 0:
        raise ConfigError(f"{path}: found unlabeled rows where labels are required")
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return LabeledDataset(X, labels, num_classes)


def load_unlabeled(path) -> FeatureMatrix:
    X, _ = read_dataset(path)
    return X


def write_predictions(path, labels):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"])
        for lab in np.asarray(labels).ravel():
            writer.writerow([int(lab)])


def read_predictions(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["label"]:
            raise ConfigError(f"{path}: expected a single 'label' column")
        return np.asarray([int(row[0]) for row in reader if row], dtype=np.int64)


def write_trace(path, trace: TrainTrace):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "objective", "mmd", "label_changes"])
        for i in range(len(trace)):
            writer.writerow([
                i,
                repr(float(trace.objective[i])),
                repr(float(trace.mmd[i])),
                int(trace.label_changes[i]),
            ])


# ---------------------------------------------------------------------------
# model binary

def save_model(path, model: SubspaceModel):
    A = np.ascontiguousarray(model.A, dtype="<f8")
    B = np.ascontiguousarray(model.B, dtype="<f8")
    meta = {
        **dataclasses.asdict(model.cfg),
        "num_classes": model.num_classes,
        "weights": None,
        "pseudo_labels": None if model.pseudo_labels is None
        else [int(v) for v in model.pseudo_labels],
        "trace": {
            "objective": [float(v) for v in model.trace.objective],
            "mmd": [float(v) for v in model.trace.mmd],
            "label_changes": [int(v) for v in model.trace.label_changes],
        },
    }
    if model.weights is not None:
        meta["weights"] = {
            "alpha": [float(v) for v in model.weights.alpha],
            "beta": [float(v) for v in model.weights.beta],
            "delta": float(model.weights.delta),
        }
    blob = json.dumps(meta).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<IIII", MODEL_VERSION, A.shape[0], B.shape[0], A.shape[1]))
        fh.write(A.tobytes(order="C"))
        fh.write(B.tobytes(order="C"))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)


def _read_exact(fh, size, path, what):
    data = fh.read(size)
    if len(data) != size:
        raise ConfigError(
            f"{path}: truncated model file: {what} needs {size} bytes, found {len(data)}"
        )
    return data


def load_model(path) -> SubspaceModel:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MODEL_MAGIC:
            raise ConfigError(f"{path}: not a model file (bad magic {magic!r})")
        version, d_s, d_t, d = struct.unpack("<IIII", _read_exact(fh, 16, path, "the header"))
        if version != MODEL_VERSION:
            raise ConfigError(f"{path}: unsupported model version {version}")
        A = np.frombuffer(_read_exact(fh, 8 * d_s * d, path, "A"), dtype="<f8").reshape(d_s, d)
        B = np.frombuffer(_read_exact(fh, 8 * d_t * d, path, "B"), dtype="<f8").reshape(d_t, d)
        (blob_len,) = struct.unpack("<I", _read_exact(fh, 4, path, "the metadata length"))
        blob = _read_exact(fh, blob_len, path, "the metadata")
    try:
        meta = json.loads(blob.decode("utf-8"))
    except ValueError as exc:   # UnicodeDecodeError and JSONDecodeError alike
        raise ConfigError(f"{path}: model metadata is not UTF-8 JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: model metadata is a JSON {type(meta).__name__}, "
                          "not an object")
    try:
        return _model_from_meta(A, B, meta)
    except KeyError as exc:
        raise ConfigError(f"{path}: model metadata lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad model metadata: {exc}") from None


def _model_from_meta(A, B, meta) -> SubspaceModel:
    weights = None
    if meta.get("weights"):
        w = meta["weights"]
        weights = LandmarkWeights(
            np.asarray(w["alpha"]), np.asarray(w["beta"]), w["delta"]
        )
    tr = meta["trace"]
    trace = TrainTrace(
        objective=np.asarray(tr["objective"], dtype=np.float64),
        mmd=np.asarray(tr["mmd"], dtype=np.float64),
        label_changes=np.asarray(tr["label_changes"], dtype=np.int64),
    )
    hyper = dict(meta["hyper"])
    # version-1 files written before the kernel knobs were removed carry
    # them, at kernel 'none' for every model `fit` could train
    if hyper.pop("kernel", "none") != "none":
        raise ValueError("kernelized models are not supported")
    hyper.pop("bandwidth", None)
    # settings added after a file was written take their defaults
    settings = {key: meta[key] for key in _FIT_KEYS if key in meta}
    pseudo = meta.get("pseudo_labels")
    return SubspaceModel(
        A=A,
        B=B,
        cfg=FitConfig(hyper=Hyperparams(**hyper), **settings),
        weights=weights,
        trace=trace,
        num_classes=meta["num_classes"],
        pseudo_labels=None if pseudo is None else np.asarray(pseudo, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# run configuration

@dataclass
class RunConfig:
    """A parsed run config: the fit settings plus the file paths."""

    fit: FitConfig
    source: str | None = None
    target_unlabeled: str | None = None
    target_labeled: str | None = None
    output_dir: str | None = None
    predictions: str | None = None
    truth: str | None = None


def _keys(cls, skip):
    """Config key -> value type for each field of a settings dataclass; an
    optional field (`float | None`, `str | None`) takes its non-None type."""
    return {f.name: (typing.get_args(f.type) or (f.type,))[0]
            for f in dataclasses.fields(cls) if f.name != skip}


_HYPER_KEYS = _keys(Hyperparams, None)
_FIT_KEYS = _keys(FitConfig, "hyper")
_PATH_KEYS = _keys(RunConfig, "fit")
KNOWN_KEYS = {**_HYPER_KEYS, **_FIT_KEYS, **_PATH_KEYS}


def _convert(key, raw):
    typ = KNOWN_KEYS[key]
    if typ is bool:
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"key '{key}': expected a boolean, got '{raw}'")
    if key in ("lambda_couple", "eps_reg") and raw.lower() == "auto":
        return None
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}': {exc}") from None


def parse_config(path) -> RunConfig:
    """Parse a flat key=value file; unknown keys are rejected by name and
    the fit settings are validated whatever the verb."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got '{line}'")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in KNOWN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            values[key] = _convert(key, raw)
    hyper = {k: values.pop(k) for k in _HYPER_KEYS if k in values}
    settings = {k: values.pop(k) for k in _FIT_KEYS if k in values}
    try:
        fit = FitConfig(hyper=Hyperparams(**hyper), **settings)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(fit=fit, **values)


# ---------------------------------------------------------------------------
# synthetic generators

def synth_gauss_shift(n_per_class, num_classes, seed, dim=2, spread=3.0,
                      scale=1.0, shift=1.0):
    """Gaussian blobs; the target repeats them under a fixed translation."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, spread, size=(num_classes, dim))
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    offset = shift * direction
    src, tgt, ys, yt = [], [], [], []
    for c in range(num_classes):
        src.append(means[c] + scale * rng.normal(size=(n_per_class, dim)))
        tgt.append(means[c] + offset + scale * rng.normal(size=(n_per_class, dim)))
        ys.append(np.full(n_per_class, c))
        yt.append(np.full(n_per_class, c))
    return (
        np.vstack(src).T, np.concatenate(ys),
        np.vstack(tgt).T, np.concatenate(yt),
    )


def synth_rotated(n_per_class, num_classes, seed, angle_deg=30.0, radius=2.3,
                  scale=1.1, aniso=1.0, noise=0.05):
    """2-D blobs on a circle; the target distribution is rotated.

    `aniso` > 1 stretches each blob along the circle tangent. The defaults
    give a problem where nearest-neighbor transfer visibly degrades under
    the rotation while the aligned problem stays separable.
    """
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2 * np.pi)
    angles = phase + 2 * np.pi * np.arange(num_classes) / num_classes
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    theta = np.deg2rad(angle_deg)
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    src, tgt, ys, yt = [], [], [], []
    for c in range(num_classes):
        radial = means[c] / radius
        tangent = np.array([-radial[1], radial[0]])
        frame = np.stack([radial * scale, tangent * scale * aniso], axis=1)

        def draw():
            return means[c] + rng.normal(size=(n_per_class, 2)) @ frame.T

        src.append(draw())
        tgt.append(draw() @ rot.T + noise * rng.normal(size=(n_per_class, 2)))
        ys.append(np.full(n_per_class, c))
        yt.append(np.full(n_per_class, c))
    return (
        np.vstack(src).T, np.concatenate(ys),
        np.vstack(tgt).T, np.concatenate(yt),
    )


def synth_hetero_map(n_per_class, num_classes, seed, d_s=10, d_t=3,
                     spread=3.0, scale=1.0, noise=0.05):
    """Blobs in d_s dims; the target sees them through a random linear map."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, spread, size=(num_classes, d_s))
    R = rng.normal(size=(d_t, d_s)) / np.sqrt(d_s)
    src, tgt, ys, yt = [], [], [], []
    for c in range(num_classes):
        src.append(means[c] + scale * rng.normal(size=(n_per_class, d_s)))
        fresh = means[c] + scale * rng.normal(size=(n_per_class, d_s))
        tgt.append(fresh @ R.T + noise * rng.normal(size=(n_per_class, d_t)))
        ys.append(np.full(n_per_class, c))
        yt.append(np.full(n_per_class, c))
    return (
        np.vstack(src).T, np.concatenate(ys),
        np.vstack(tgt).T, np.concatenate(yt),
    )


SYNTH_KINDS = {
    "gauss_shift": synth_gauss_shift,
    "rotated": synth_rotated,
    "hetero_map": synth_hetero_map,
}

"""Command-line front end.

Verbs: synth (write synthetic problem files), fit (train and save a model
plus trace.csv), predict (label the unlabeled target), eval (compare
predictions against a labeled CSV), trace (re-emit a saved model's
training trace). Exit codes: 0 success, 2 configuration error, 3 numeric
failure, 1 other I/O errors.
"""

import argparse
import os
import sys

import numpy as np

from . import dataio, pipeline
from .dataio import ConfigError, RunConfig
from .eigsolve import SolverError

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lpjt",
        description="Joint feature- and sample-level domain adaptation "
                    "with locality preservation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic transfer problem")
    p_synth.add_argument("--kind", choices=sorted(dataio.SYNTH_KINDS), required=True)
    p_synth.add_argument("--n-per-class", type=int, default=100)
    p_synth.add_argument("--classes", type=int, default=3)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--labeled-per-class", type=int, default=0,
                         help="carve labeled target samples into target_labeled.csv")
    p_synth.add_argument("--angle", type=float, default=30.0,
                         help="rotation in degrees (kind=rotated)")
    p_synth.add_argument("--shift", type=float, default=1.0,
                         help="translation length (kind=gauss_shift)")
    p_synth.add_argument("--scale", type=float, default=1.0,
                         help="per-class standard deviation")

    for verb in ("fit", "predict", "eval", "trace"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None, help="override the config output_dir")
    return parser


def _load_run(args) -> RunConfig:
    cfg = dataio.parse_config(args.config)
    if args.out is not None:
        cfg.output_dir = args.out
    return cfg


def _require(cfg: RunConfig, *keys):
    for key in keys:
        if getattr(cfg, key) is None:
            raise ConfigError(f"config is missing required key '{key}'")


def _load_problem(cfg: RunConfig):
    src = dataio.load_labeled(cfg.source)
    tgt_u = dataio.load_unlabeled(cfg.target_unlabeled)
    tgt_l = None
    if cfg.target_labeled:
        tgt_l = dataio.load_labeled(cfg.target_labeled, num_classes=src.num_classes)
    return src, tgt_u, tgt_l


def cmd_synth(args) -> int:
    gen = dataio.SYNTH_KINDS[args.kind]
    kwargs = {}
    if args.kind == "rotated":
        kwargs = {"angle_deg": args.angle, "scale": args.scale}
    elif args.kind == "gauss_shift":
        kwargs = {"shift": args.shift, "scale": args.scale}
    else:
        kwargs = {"scale": args.scale}
    Xs, ys, Xt, yt = gen(args.n_per_class, args.classes, args.seed, **kwargs)
    os.makedirs(args.out, exist_ok=True)
    dataio.write_dataset(os.path.join(args.out, "source.csv"), Xs, ys)
    if args.labeled_per_class > 0:
        hold = []
        for c in range(args.classes):
            hold.extend(np.flatnonzero(yt == c)[: args.labeled_per_class])
        hold = np.asarray(hold, dtype=int)
        rest = np.setdiff1d(np.arange(yt.size), hold)
        dataio.write_dataset(
            os.path.join(args.out, "target_labeled.csv"), Xt[:, hold], yt[hold]
        )
        Xt, yt = Xt[:, rest], yt[rest]
    dataio.write_dataset(os.path.join(args.out, "target.csv"), Xt)
    dataio.write_dataset(os.path.join(args.out, "target_truth.csv"), Xt, yt)
    print(f"wrote {args.kind} problem to {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = _load_run(args)
    _require(cfg, "source", "target_unlabeled", "output_dir")
    src, tgt_u, tgt_l = _load_problem(cfg)
    model = pipeline.fit(src, tgt_u, tgt_l, cfg.fit)
    os.makedirs(cfg.output_dir, exist_ok=True)
    dataio.save_model(os.path.join(cfg.output_dir, "model.lpjt"), model)
    dataio.write_trace(os.path.join(cfg.output_dir, "trace.csv"), model.trace)
    print(f"wrote model.lpjt and trace.csv to {cfg.output_dir}")
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = _load_run(args)
    _require(cfg, "source", "target_unlabeled", "output_dir")
    src, tgt_u, tgt_l = _load_problem(cfg)
    path = os.path.join(cfg.output_dir, "model.lpjt")
    model = dataio.load_model(path)
    if model.num_classes != src.num_classes:
        raise ConfigError(f"{path}: fitted for {model.num_classes} classes, "
                          f"but {cfg.source} has {src.num_classes}")
    labels = pipeline.predict(model, src, tgt_u, tgt_l)
    out = cfg.predictions or os.path.join(cfg.output_dir, "predictions.csv")
    dataio.write_predictions(out, labels)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_run(args)
    _require(cfg, "truth")
    pred_path = cfg.predictions
    if pred_path is None:
        _require(cfg, "output_dir")
        pred_path = os.path.join(cfg.output_dir, "predictions.csv")
    pred = dataio.read_predictions(pred_path)
    _, truth = dataio.read_dataset(cfg.truth)
    if truth.min() < 0:
        raise ConfigError(f"{cfg.truth}: truth file contains unlabeled rows")
    acc = pipeline.evaluate(pred, truth)
    print(f"accuracy={acc}")
    return EXIT_OK


def cmd_trace(args) -> int:
    cfg = _load_run(args)
    _require(cfg, "output_dir")
    model = dataio.load_model(os.path.join(cfg.output_dir, "model.lpjt"))
    path = os.path.join(cfg.output_dir, "trace.csv")
    dataio.write_trace(path, model.trace)
    with open(path) as fh:
        sys.stdout.write(fh.read())
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "fit": cmd_fit,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "trace": cmd_trace,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # LinAlgError is a ValueError, so it is caught before the config branch
    except (SolverError, RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark workloads: seeded problem generators and the fit settings.

Every problem is generated here from the run's seed; the library only ever
sees the resulting arrays. Data matrices are column-major (features x
samples), as the library expects.

`hetero-large` and the two `decaf-4096` workloads draw their class
geometry (class means, the heterogeneous map, the domain shift) once from
POPULATION_SEED, the way a benchmark dataset is fixed, and draw the samples
from the run seed. `rotated-small` uses the library's own generator, whose
only seeded geometry is the phase of the class circle.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from lpjt import FeatureMatrix, FitConfig, Hyperparams, LabeledDataset
from lpjt.dataio import synth_rotated

POPULATION_SEED = 0


@dataclass(frozen=True)
class Problem:
    src: LabeledDataset
    tgt_u: np.ndarray
    tgt_l: LabeledDataset | None
    truth: np.ndarray           # true labels of the tgt_u columns

    @property
    def num_classes(self):
        return self.src.num_classes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cfg: FitConfig
    make: Callable          # make(seed, index, n_per_class) -> Problem
    n_per_class: int
    toy_per_class: int      # size of the warm-up problem
    problems: int           # distinct problems per run


def _unsupervised(Xs, ys, Xt, yt, C):
    return Problem(LabeledDataset(FeatureMatrix(Xs), ys, C), Xt, None, yt)


def make_rotated(seed, index, n_per_class):
    Xs, ys, Xt, yt = synth_rotated(n_per_class, 3, [seed, index])
    return _unsupervised(Xs, ys, Xt, yt, 3)


def make_hetero(seed, index, n_per_class, C=3, d_s=10, d_t=3, labeled_per_class=3):
    """synth_hetero_map's distribution with a fixed map, semisupervised.

    The first `labeled_per_class` target samples of each class are labeled,
    as in the heterogeneous acceptance test.
    """
    pop = np.random.default_rng(POPULATION_SEED)
    means = pop.normal(0.0, 3.0, size=(C, d_s))
    R = pop.normal(size=(d_t, d_s)) / np.sqrt(d_s)
    rng = np.random.default_rng([seed, index])
    Xs = np.hstack([(means[c] + rng.normal(size=(n_per_class, d_s))).T for c in range(C)])
    Xt = np.hstack([
        ((means[c] + rng.normal(size=(n_per_class, d_s))) @ R.T
         + 0.05 * rng.normal(size=(n_per_class, d_t))).T
        for c in range(C)
    ])
    y = np.repeat(np.arange(C), n_per_class)
    hold = np.concatenate([np.flatnonzero(y == c)[:labeled_per_class] for c in range(C)])
    rest = np.setdiff1d(np.arange(y.size), hold)
    tgt_l = LabeledDataset(FeatureMatrix(Xt[:, hold]), y[hold], C)
    return Problem(LabeledDataset(FeatureMatrix(Xs), y, C), Xt[:, rest], tgt_l, y[rest])


def make_decaf(seed, index, n_per_class, C=10, dim=4096):
    """Nonnegative DeCAF6-like features: |Gaussian| class means, a target
    shifted by a fixed random vector, |.| of unit Gaussian noise."""
    pop = np.random.default_rng(POPULATION_SEED)
    means = np.abs(pop.normal(size=(C, dim)))
    shift = 0.5 * pop.normal(size=dim)
    rng = np.random.default_rng([seed, index])
    Xs = np.hstack([np.abs(means[c] + rng.normal(size=(n_per_class, dim))).T for c in range(C)])
    Xt = np.hstack([np.abs(means[c] + shift + rng.normal(size=(n_per_class, dim))).T
                    for c in range(C)])
    y = np.repeat(np.arange(C), n_per_class)
    return _unsupervised(Xs, y, Xt, y.copy(), C)


_DECAF_HYPER = Hyperparams(d=40, T=5, mu=0.5)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="rotated-small",
            why="300 2-D samples per domain: Python overhead in the landmark QP "
                "dominates and distances cost nothing",
            cfg=FitConfig(hyper=Hyperparams(d=2, T=5)),
            make=make_rotated, n_per_class=100, toy_per_class=10, problems=32,
        ),
        Workload(
            name="hetero-large",
            why="600 samples of 10 vs 3 features, 9 labeled targets: dense n x n "
                "QP, propagation solve, MMD coefficients and penalty graph dominate",
            cfg=FitConfig(hyper=Hyperparams(d=2, T=5), mode="semisupervised"),
            make=make_hetero, n_per_class=200, toy_per_class=15, problems=16,
        ),
        Workload(
            name="decaf-4096-unit",
            why="250 samples of 4096 features, unit-normalized: raw-space distances "
                "and the 500-dim eigensolve lead, the QP is smaller",
            cfg=FitConfig(hyper=_DECAF_HYPER, normalize="unit"),
            make=make_decaf, n_per_class=25, toy_per_class=5, problems=12,
        ),
        Workload(
            name="decaf-4096",
            why="the same data with unit+zscore, the paper's setting: the kernel "
                "underflows and the pseudo labels collapse to one class",
            cfg=FitConfig(hyper=_DECAF_HYPER, normalize="unit+zscore"),
            make=make_decaf, n_per_class=50, toy_per_class=5, problems=2,
        ),
    )
}

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lpjt.landmark import LandmarkWeights
from lpjt.core import (
    FeatureMatrix,
    Hyperparams,
    LabeledDataset,
    SubspaceModel,
    TrainTrace,
    apply_zscore,
    unit_normalize,
    validate_pair,
    zscore_normalize,
)


class TestFeatureMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            FeatureMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((0, 3)))

    def test_shape_properties(self):
        X = FeatureMatrix(np.ones((4, 7)))
        assert X.dim == 4 and X.n == 7

    def test_data_is_read_only(self):
        X = FeatureMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            X.data[0, 0] = 5.0


# each type with one of its stored arrays, built from a caller's array
# whose first entry is 1
STORED = {
    "FeatureMatrix": (lambda a: FeatureMatrix(a).data, lambda: np.ones((2, 3))),
    "LabeledDataset": (lambda a: LabeledDataset(FeatureMatrix(np.ones((1, 3))), a, 3).labels,
                       lambda: np.array([1, 2, 0])),
    "TrainTrace": (lambda a: TrainTrace(objective=a, mmd=np.ones(3), label_changes=[0, 1, 2])
                   .objective, lambda: np.ones(3)),
    "SubspaceModel.A": (lambda a: SubspaceModel(A=a, B=np.ones((2, 3)), cfg=None).A,
                        lambda: np.ones((2, 3))),
    "SubspaceModel.B": (lambda a: SubspaceModel(A=np.ones((2, 3)), B=a, cfg=None).B,
                        lambda: np.ones((2, 3))),
    "LandmarkWeights": (lambda a: LandmarkWeights(a, np.ones(2), 0.5).alpha,
                        lambda: np.ones(3)),
}


class TestStoredArrays:
    @pytest.mark.parametrize("name", sorted(STORED))
    def test_caller_array_stays_writeable_and_apart(self, name):
        store, make = STORED[name]
        a = make()
        stored = store(a)
        assert a.flags.writeable and not stored.flags.writeable
        first = (0,) * a.ndim
        with pytest.raises(ValueError):
            stored[first] = 0
        a[first] = 0
        assert stored[first] == 1

    @pytest.mark.parametrize("name", sorted(STORED))
    def test_read_only_array_shared_without_a_copy(self, name):
        store, make = STORED[name]
        a = make()
        a.setflags(write=False)
        assert np.shares_memory(store(a), a)


class TestZscore:
    def test_constant_row_maps_to_zero(self):
        Xn, _, _ = zscore_normalize(np.array([[1.0, 1.0, 1.0]]))
        assert_allclose(Xn.data, np.zeros((1, 3)))

    def test_two_point_row(self):
        Xn, mean, std = zscore_normalize(np.array([[0.0, 2.0]]))
        assert_allclose(Xn.data, np.array([[-1.0, 1.0]]))
        assert_allclose(mean, [1.0])
        assert_allclose(std, [1.0])

    def test_recomputed_moments(self):
        rng = np.random.default_rng(7)
        Xn, _, _ = zscore_normalize(rng.normal(2.0, 3.0, size=(5, 20)))
        assert np.all(np.abs(Xn.data.mean(axis=1)) <= 1e-12)
        assert_allclose(Xn.data.std(axis=1), 1.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        once, _, _ = zscore_normalize(rng.normal(size=(4, 30)))
        twice, _, _ = zscore_normalize(once)
        assert np.max(np.abs(twice.data - once.data)) <= 1e-10

    def test_apply_to_held_out(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(3, 10))
        _, mean, std = zscore_normalize(X)
        held = apply_zscore(X[:, :4], mean, std)
        direct, _, _ = zscore_normalize(X)
        assert_allclose(held.data, direct.data[:, :4])

    def test_stat_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_zscore(np.ones((3, 2)), np.zeros(2), np.ones(2))


class TestUnitNormalize:
    def test_three_four_five(self):
        Xn = unit_normalize(np.array([[3.0], [4.0]]))
        assert_allclose(Xn.data, np.array([[0.6], [0.8]]))

    def test_zero_column_untouched(self):
        Xn = unit_normalize(np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert_allclose(Xn.data[:, 0], 0.0)

    def test_random_column_norms(self):
        rng = np.random.default_rng(10)
        Xn = unit_normalize(rng.normal(size=(6, 25)))
        assert_allclose(np.linalg.norm(Xn.data, axis=0), 1.0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(3, 5)) * rng.choice([0.0, 1.0, 100.0], size=(1, 5))
        once = unit_normalize(X)
        twice = unit_normalize(once)
        assert np.max(np.abs(twice.data - once.data)) <= 1e-12


def _dataset(dim, n, labels, C):
    rng = np.random.default_rng(0)
    return LabeledDataset(FeatureMatrix(rng.normal(size=(dim, n))), labels, C)


class TestValidatePair:
    def test_heterogeneous_flag(self):
        src = _dataset(10, 6, [0, 0, 1, 1, 2, 2], 3)
        tgt = validate_pair(src, np.zeros((3, 4)) + 1.0)
        assert isinstance(tgt, FeatureMatrix)
        assert (tgt.dim, tgt.n) == (3, 4) and tgt.dim != src.features.dim

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            _dataset(4, 2, [0, 3], 3)

    def test_class_count_mismatch(self):
        src = _dataset(4, 3, [0, 1, 2], 3)
        tgt_l = _dataset(4, 2, [0, 1], 2)
        with pytest.raises(ValueError, match="class count"):
            validate_pair(src, np.ones((4, 5)), tgt_l)

    def test_identical_datasets_homogeneous(self):
        src = _dataset(4, 3, [0, 1, 2], 3)
        tgt = validate_pair(src, src.features, src)
        assert tgt is src.features and tgt.dim == src.features.dim

    def test_class_without_labeled_sample_rejected(self):
        src = _dataset(4, 6, [0, 0, 2, 2, 4, 4], 5)
        with pytest.raises(ValueError, match=r"^class 1, 3 of the 5 declared has no labeled "):
            validate_pair(src, np.ones((4, 5)))
        # a class the labeled targets hold is enough
        tgt_l = _dataset(3, 2, [1, 3], 5)
        assert validate_pair(src, np.ones((3, 5)), tgt_l).n == 5
        with pytest.raises(ValueError, match=r"^class 3 of the 5 declared"):
            validate_pair(src, np.ones((3, 5)), _dataset(3, 2, [1, 1], 5))

    def test_never_mutates(self):
        src = _dataset(4, 3, [0, 1, 2], 3)
        before = src.features.data.copy()
        validate_pair(src, src.features.data * 2.0)
        assert_allclose(src.features.data, before)


class TestHyperparams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": -0.1},
            {"delta": 0.0},
            {"delta": 1.5},
            {"sigma_lp": 0.0},
            {"sigma_lp": 1.0},
            {"gamma": -1.0},
            {"eps_reg": 0.0},
            {"d": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparams(**kwargs)

    def test_defaults_valid(self):
        h = Hyperparams()
        assert h.delta == 0.5 and h.T == 5 and h.k_w == 5


class TestTrainTrace:
    GOOD = {"objective": [3.0, 2.0], "mmd": [0.5, 0.25], "label_changes": [4, 1]}

    @pytest.mark.parametrize("key,value,message", [
        ("objective", [3.0], "must have equal lengths"),
        ("mmd", [0.5, 0.25, 0.1], "must have equal lengths"),
        ("label_changes", [], "must have equal lengths"),
        ("objective", [3.0, np.nan], "objective and mmd trace entries must be finite"),
        ("objective", [np.inf, 2.0], "objective and mmd trace entries must be finite"),
        ("mmd", [np.nan, 0.25], "objective and mmd trace entries must be finite"),
        ("mmd", [0.5, np.inf], "objective and mmd trace entries must be finite"),
        ("mmd", [0.5, -0.25], "must be nonnegative"),
        ("label_changes", [4, -1], "must be nonnegative"),
    ], ids=["short-objective", "long-mmd", "no-label-changes", "nan-objective",
            "inf-objective", "nan-mmd", "inf-mmd", "negative-mmd", "negative-changes"])
    def test_inconsistent_trace_rejected(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            TrainTrace(**{**self.GOOD, key: value})

    def test_valid_and_empty_traces_accepted(self):
        assert len(TrainTrace(**self.GOOD)) == 2
        assert len(TrainTrace()) == 0

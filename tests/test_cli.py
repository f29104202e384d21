import json
import re
import struct
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpjt import pipeline
from lpjt.cli import main
from lpjt.core import FitConfig, Hyperparams, SubspaceModel, TrainTrace
from lpjt.dataio import (
    ConfigError,
    load_model,
    parse_config,
    read_dataset,
    read_predictions,
    save_model,
    synth_gauss_shift,
    write_dataset,
)
from lpjt.landmark import LandmarkWeights


def write_config(path, **kv):
    with open(path, "w") as fh:
        for k, v in kv.items():
            fh.write(f"{k}={v}\n")
    return str(path)


def synth_args(out, kind="gauss_shift", seed=3, n=12, labeled=0):
    args = ["synth", "--kind", kind, "--n-per-class", str(n), "--classes", "3",
            "--seed", str(seed), "--out", str(out)]
    if labeled:
        args += ["--labeled-per-class", str(labeled)]
    return args


class TestSynth:
    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(synth_args(a)) == 0
        assert main(synth_args(b)) == 0
        for name in ("source.csv", "target.csv", "target_truth.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_shift_aligns_class_means(self, tmp_path):
        n = 200
        Xs, ys, Xt, yt = synth_gauss_shift(n, 3, seed=5, shift=0.0, scale=1.0)
        for c in range(3):
            diff = Xs[:, ys == c].mean(axis=1) - Xt[:, yt == c].mean(axis=1)
            assert np.all(np.abs(diff) <= 3.0 / np.sqrt(n))

    def test_hetero_map_target_has_three_features(self, tmp_path):
        assert main(synth_args(tmp_path, kind="hetero_map")) == 0
        X, labels = read_dataset(tmp_path / "target.csv")
        assert X.dim == 3
        assert np.all(labels == -1)

    def test_labeled_split(self, tmp_path):
        assert main(synth_args(tmp_path, labeled=2)) == 0
        X_l, labels = read_dataset(tmp_path / "target_labeled.csv")
        assert X_l.n == 6
        assert sorted(set(labels.tolist())) == [0, 1, 2]


class TestRoundTrips:
    def test_dataset_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 9)) * np.pi
        labels = rng.integers(0, 5, 9)
        path = tmp_path / "d.csv"
        write_dataset(path, X, labels)
        X2, labels2 = read_dataset(path)
        assert np.array_equal(X, X2.data)
        assert np.array_equal(labels, labels2)

    def test_model_file_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        model = SubspaceModel(
            A=rng.normal(size=(5, 3)),
            B=rng.normal(size=(4, 3)),
            cfg=FitConfig(hyper=Hyperparams(d=3, gamma=0.123), mode="semisupervised",
                          normalize="unit+zscore", homogeneous=True, embed_norm=False),
            weights=LandmarkWeights(rng.uniform(0, 1, 6), rng.uniform(0, 1, 7), 0.5),
            trace=TrainTrace(objective=[3.0, 2.0], mmd=[0.5, 0.25], label_changes=[4, 1]),
            num_classes=4,
            pseudo_labels=np.array([0, 1, 2, 3, 0, 1, 2]),
        )
        path = tmp_path / "m.lpjt"
        save_model(path, model)
        loaded = load_model(path)
        assert np.array_equal(loaded.A, model.A)
        assert np.array_equal(loaded.B, model.B)
        assert loaded.cfg == model.cfg
        assert np.array_equal(loaded.weights.alpha, model.weights.alpha)
        assert np.array_equal(loaded.trace.mmd, model.trace.mmd)
        assert np.array_equal(loaded.pseudo_labels, model.pseudo_labels)
        assert loaded.num_classes == 4

    @staticmethod
    def write_v1(path, A, B, blob):
        """A version-1 model file with the given metadata bytes."""
        with open(path, "wb") as fh:
            fh.write(b"LPJT" + struct.pack("<IIII", 1, A.shape[0], B.shape[0], A.shape[1]))
            fh.write(A.astype("<f8").tobytes() + B.astype("<f8").tobytes())
            fh.write(struct.pack("<I", len(blob)) + blob)

    @staticmethod
    def v1_metadata(d, kernel="none"):
        """Metadata as written before the kernel knobs were removed: its
        hyperparameters carry `kernel` and `bandwidth`."""
        hyper = {"delta": 0.5, "gamma": 0.01, "mu": 0.1, "d": d, "T": 5,
                 "k_w": 5, "k_b": 5, "sigma_lp": 0.9, "lambda_couple": None,
                 "eps_reg": None, "kernel": kernel, "bandwidth": 1.0}
        return {"hyper": hyper, "normalize": "zscore", "mode": "unsupervised",
                "num_classes": 3, "homogeneous": False, "embed_norm": True,
                "weights": None, "pseudo_labels": [0, 1, 2],
                "trace": {"objective": [2.0], "mmd": [0.5], "label_changes": [1]}}

    def write_v1_with_kernel_keys(self, path, A, B, kernel):
        meta = self.v1_metadata(A.shape[1], kernel)
        self.write_v1(path, A, B, json.dumps(meta).encode("utf-8"))

    def test_model_with_removed_kernel_keys_loads(self, tmp_path):
        rng = np.random.default_rng(2)
        A, B = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
        path = tmp_path / "old.lpjt"
        self.write_v1_with_kernel_keys(path, A, B, "none")
        loaded = load_model(path)
        assert np.array_equal(loaded.A, A) and np.array_equal(loaded.B, B)
        assert loaded.cfg == FitConfig(hyper=Hyperparams(d=2))
        assert np.array_equal(loaded.pseudo_labels, [0, 1, 2])
        self.write_v1_with_kernel_keys(path, A, B, "rbf")
        with pytest.raises(ConfigError, match="kernel"):
            load_model(path)

    @pytest.mark.parametrize("init_strategy", ["labelprop_raw", "nn_raw"])
    def test_model_with_removed_init_strategy_loads(self, tmp_path, init_strategy):
        # only the current FitConfig fields are read back from the metadata
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(synth_args(data, n=5)) == 0
        run.mkdir()
        rng = np.random.default_rng(9)
        A, B = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        meta = {**self.v1_metadata(2), "init_strategy": init_strategy}
        self.write_v1(run / "model.lpjt", A, B, json.dumps(meta).encode("utf-8"))
        loaded = load_model(run / "model.lpjt")
        assert loaded.cfg == FitConfig(hyper=Hyperparams(d=2))
        assert np.array_equal(loaded.A, A) and np.array_equal(loaded.B, B)
        cfg = write_config(tmp_path / "c.cfg", source=data / "source.csv",
                           target_unlabeled=data / "target.csv", output_dir=run)
        assert main(["predict", "--config", cfg]) == 0
        assert read_predictions(run / "predictions.csv").shape == (15,)

    @staticmethod
    def model_file_parts(path):
        """Save a small model; return its bytes and (part, start, end) spans."""
        rng = np.random.default_rng(3)
        model = SubspaceModel(A=rng.normal(size=(5, 3)), B=rng.normal(size=(4, 3)),
                              cfg=FitConfig(hyper=Hyperparams(d=3)),
                              trace=TrainTrace(objective=[1.0], mmd=[0.5], label_changes=[0]))
        save_model(path, model)
        data = path.read_bytes()
        ends = np.cumsum([4, 16, 8 * 5 * 3, 8 * 4 * 3, 4]).tolist() + [len(data)]
        names = ["the header", "A", "B", "the metadata length", "the metadata"]
        return data, [(name, ends[i], ends[i + 1]) for i, name in enumerate(names)]

    def test_truncated_model_file_names_it(self, tmp_path):
        path = tmp_path / "m.lpjt"
        data, parts = self.model_file_parts(path)
        for name, start, end in parts:
            for cut in (start, (start + end) // 2, end - 1):
                path.write_bytes(data[:cut])
                with pytest.raises(ConfigError, match=re.escape(
                        f"{path}: truncated model file: {name} needs {end - start} bytes, "
                        f"found {cut - start}")):
                    load_model(path)
        path.write_bytes(b"LPJT\x01\x00")
        with pytest.raises(ConfigError, match="the header needs 16 bytes, found 2"):
            load_model(path)
        path.write_bytes(data)
        assert np.array_equal(load_model(path).A, np.frombuffer(data[20:140]).reshape(5, 3))

    def test_truncated_model_file_exits_2(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        data, parts = self.model_file_parts(run / "model.lpjt")
        (run / "model.lpjt").write_bytes(data[: parts[2][1] + 5])
        cfg = write_config(tmp_path / "c.cfg", output_dir=run)
        assert main(["trace", "--config", cfg]) == 2
        assert "model.lpjt: truncated model file: B needs" in capsys.readouterr().err

    @staticmethod
    def without(meta, *keys):
        """A copy of nested metadata with the key at path `keys` removed."""
        meta = json.loads(json.dumps(meta))
        inner = meta
        for key in keys[:-1]:
            inner = inner[key]
        del inner[keys[-1]]
        return meta

    @pytest.mark.parametrize("keys", [("trace",), ("hyper",), ("num_classes",),
                                      ("trace", "mmd")], ids="/".join)
    def test_missing_metadata_key_names_file(self, tmp_path, keys):
        rng = np.random.default_rng(4)
        A, B = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
        path = tmp_path / "m.lpjt"
        meta = self.without(self.v1_metadata(2), *keys)
        self.write_v1(path, A, B, json.dumps(meta).encode("utf-8"))
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: model metadata lacks the key '{keys[-1]}'")):
            load_model(path)

    @pytest.mark.parametrize("blob,message", [
        (b"[1, 2]", "model metadata is a JSON list, not an object"),
        (b"3", "model metadata is a JSON int, not an object"),
        (b'{"hyper": ', "model metadata is not UTF-8 JSON: Expecting value"),
        (b"\xff\xfe{}", "model metadata is not UTF-8 JSON: 'utf-8' codec"),
    ], ids=["list", "int", "cut-json", "bad-utf8"])
    def test_malformed_metadata_names_file(self, tmp_path, blob, message):
        rng = np.random.default_rng(5)
        path = tmp_path / "m.lpjt"
        self.write_v1(path, rng.normal(size=(4, 2)), rng.normal(size=(3, 2)), blob)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
            load_model(path)

    def test_unknown_hyper_key_names_file(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "m.lpjt"
        meta = self.v1_metadata(2)
        meta["hyper"]["bogus"] = 1
        self.write_v1(path, rng.normal(size=(4, 2)), rng.normal(size=(3, 2)),
                      json.dumps(meta).encode("utf-8"))
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: bad model metadata: "
                                              ".*unexpected keyword argument 'bogus'"):
            load_model(path)

    @pytest.mark.parametrize("verb", ["trace", "predict"])
    def test_empty_metadata_exits_2(self, tmp_path, capsys, verb):
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(synth_args(data, n=5)) == 0
        run.mkdir()
        rng = np.random.default_rng(7)
        self.write_v1(run / "model.lpjt", rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                      b"{}")
        cfg = write_config(tmp_path / "c.cfg", source=data / "source.csv",
                           target_unlabeled=data / "target.csv", output_dir=run)
        assert main([verb, "--config", cfg]) == 2
        assert "model.lpjt: model metadata lacks the key 'trace'" in capsys.readouterr().err

    def test_non_finite_weights_name_file(self, tmp_path, capsys):
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(synth_args(data, n=5)) == 0
        run.mkdir()
        rng = np.random.default_rng(8)
        meta = self.v1_metadata(2)
        meta["weights"] = {"alpha": [float("nan"), 0.5], "beta": [0.5, 0.5], "delta": 0.5}
        path = run / "model.lpjt"
        self.write_v1(path, rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                      json.dumps(meta).encode("utf-8"))
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: bad model metadata: alpha entries must be finite")):
            load_model(path)
        cfg = write_config(tmp_path / "c.cfg", source=data / "source.csv",
                           target_unlabeled=data / "target.csv", output_dir=run)
        assert main(["predict", "--config", cfg]) == 2
        assert "model.lpjt: bad model metadata: alpha entries" in capsys.readouterr().err

    @pytest.mark.parametrize("trace,message", [
        ({"objective": [2.0, 1.0], "mmd": [0.5], "label_changes": [1, 0]}, "equal lengths"),
        ({"objective": [2.0], "mmd": [float("nan")], "label_changes": [1]}, "must be finite"),
        ({"objective": [2.0], "mmd": [0.5], "label_changes": [-1]}, "must be nonnegative"),
    ], ids=["unequal-lengths", "nan-mmd", "negative-changes"])
    def test_inconsistent_trace_exits_2(self, tmp_path, capsys, trace, message):
        run = tmp_path / "run"
        run.mkdir()
        meta = {**self.v1_metadata(2), "trace": trace}
        path = run / "model.lpjt"
        rng = np.random.default_rng(10)
        self.write_v1(path, rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                      json.dumps(meta).encode("utf-8"))
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: bad model metadata: "
                                              f".*{message}"):
            load_model(path)
        cfg = write_config(tmp_path / "c.cfg", output_dir=run)
        assert main(["trace", "--config", cfg]) == 2
        assert "model.lpjt: bad model metadata" in capsys.readouterr().err

    def test_model_magic_checked(self, tmp_path):
        path = tmp_path / "junk.lpjt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ConfigError, match="magic"):
            load_model(path)


class TestDatasetErrors:
    @pytest.mark.parametrize("row,message", [("1.0,abc,1", "could not convert"),
                                             ("1.0,2.0,x", "invalid literal")])
    def test_unparsable_value_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "d.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n{row}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:3: {message}")):
            read_dataset(path)

    def test_non_finite_feature_names_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,0\nnan,1\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: feature matrix contains NaN")):
            read_dataset(path)

    def test_fit_names_the_bad_file(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, n=5)) == 0
        target = data / "target.csv"
        lines = target.read_text().splitlines()
        lines[2] = "abc" + lines[2][lines[2].index(","):]
        target.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "c.cfg", source=data / "source.csv",
                           target_unlabeled=target, output_dir=tmp_path / "run")
        assert main(["fit", "--config", cfg]) == 2
        assert f"{target}:3: could not convert string to float: 'abc'" in capsys.readouterr().err

    def test_labeled_target_out_of_range_names_file(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, kind="hetero_map", n=10, labeled=2)) == 0
        labeled = data / "target_labeled.csv"
        X, y = read_dataset(labeled)
        y[0] = 7
        write_dataset(labeled, X, y)
        cfg = write_config(tmp_path / "c.cfg", source=data / "source.csv",
                           target_unlabeled=data / "target.csv", target_labeled=labeled,
                           mode="semisupervised", output_dir=tmp_path / "run")
        assert main(["fit", "--config", cfg]) == 2
        assert f"{labeled}: labels must lie in [0, 3)" in capsys.readouterr().err


    def test_source_missing_a_middle_class_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, n=5)) == 0
        source = data / "source.csv"
        X, y = read_dataset(source)
        keep = y != 1
        write_dataset(source, X.data[:, keep], y[keep])
        cfg = write_config(tmp_path / "c.cfg", source=source,
                           target_unlabeled=data / "target.csv", output_dir=tmp_path / "run")
        assert main(["fit", "--config", cfg]) == 2
        assert ("config error: class 1 of the 3 declared has no labeled sample in the "
                "source or the labeled target") in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestConfig:
    def test_unknown_key_named_in_error(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", gamma=0.1, not_a_key=3)
        with pytest.raises(ConfigError, match="not_a_key"):
            parse_config(path)

    def test_seed_is_not_an_option(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", seed=1)
        with pytest.raises(ConfigError, match="unknown key 'seed'"):
            parse_config(path)
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--config", path, "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key,value", [("kernel", "linear"), ("bandwidth", 2.5),
                                           ("init_strategy", "nn_raw")])
    def test_removed_kernel_keys_are_unknown(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path / "c.cfg", **{key: value})
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(path)
        assert main(["fit", "--config", path]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_values_typed(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", gamma=0.25, d=7, mode="semisupervised",
                            lambda_couple="auto", homogeneous="true")
        cfg = parse_config(path)
        assert cfg.fit.hyper.gamma == 0.25
        assert cfg.fit.hyper.d == 7
        assert cfg.fit.hyper.lambda_couple is None
        assert cfg.fit.mode == "semisupervised"
        assert cfg.fit.homogeneous is True

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\ndelta=0.4\n")
        assert parse_config(path).fit.hyper.delta == 0.4

    def test_bad_value_reported(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", d="many")
        with pytest.raises(ConfigError, match="'d'"):
            parse_config(path)


class TestEndToEnd:
    def _workflow(self, tmp_path, capsys, kind="gauss_shift", extra_cfg=None):
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert main(synth_args(data, kind=kind, n=30)) == 0
        cfg = {
            "source": data / "source.csv",
            "target_unlabeled": data / "target.csv",
            "output_dir": run,
            "d": 2,
            "T": 3,
            "truth": data / "target_truth.csv",
        }
        cfg.update(extra_cfg or {})
        cfg_path = write_config(tmp_path / "run.cfg", **cfg)
        assert main(["fit", "--config", cfg_path]) == 0
        assert main(["predict", "--config", cfg_path]) == 0
        assert main(["eval", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        return data, run, cfg_path, out

    def test_fit_predict_eval(self, tmp_path, capsys):
        data, run, cfg_path, out = self._workflow(tmp_path, capsys)
        acc_line = [l for l in out.splitlines() if l.startswith("accuracy=")][-1]
        acc = float(acc_line.split("=", 1)[1])
        assert 0.0 <= acc <= 1.0
        assert (run / "model.lpjt").exists()
        preds = read_predictions(run / "predictions.csv")
        X, _ = read_dataset(data / "target.csv")
        assert preds.shape == (X.n,)

    def test_trace_has_one_row_per_iteration(self, tmp_path, capsys):
        _, run, cfg_path, _ = self._workflow(tmp_path, capsys)
        lines = (run / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,objective,mmd,label_changes"
        assert len(lines) == 1 + 3   # header + T rows

    def test_trace_verb_emits_csv(self, tmp_path, capsys):
        _, run, cfg_path, _ = self._workflow(tmp_path, capsys)
        assert main(["trace", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("iter,objective,mmd,label_changes")

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.cfg", bogus=1)
        assert main(["fit", "--config", bad]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_required_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", d=2)
        assert main(["fit", "--config", cfg]) == 2

    def test_out_flag_overrides_output_dir(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, n=10)) == 0
        cfg = write_config(
            tmp_path / "c.cfg",
            source=data / "source.csv",
            target_unlabeled=data / "target.csv",
            output_dir=tmp_path / "ignored",
            d=2, T=1,
        )
        override = tmp_path / "actual"
        assert main(["fit", "--config", cfg, "--out", str(override)]) == 0
        assert (override / "model.lpjt").exists()
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize("key,value", [("gamma", "nan"), ("mu", "inf"),
                                           ("lambda_couple", "inf"), ("eps_reg", "nan")])
    def test_non_finite_hyperparameter_exits_2(self, tmp_path, capsys, key, value):
        data = tmp_path / "data"
        assert main(synth_args(data, n=10)) == 0
        cfg = write_config(tmp_path / "c.cfg", source=data / "source.csv",
                           target_unlabeled=data / "target.csv", output_dir=tmp_path / "run",
                           d=2, T=1, **{key: value})
        assert main(["fit", "--config", cfg]) == 2
        assert f"{key} must be finite, got {float(value)}" in capsys.readouterr().err

    def test_heterogeneous_fit_without_labeled_targets_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, kind="hetero_map", n=10, labeled=2)) == 0
        paths = {"source": data / "source.csv", "target_unlabeled": data / "target.csv",
                 "output_dir": tmp_path / "run", "d": 2, "T": 1}
        for extra in ({}, {"mode": "semisupervised"}):
            cfg = write_config(tmp_path / "c.cfg", **paths, **extra)
            assert main(["fit", "--config", cfg]) == 2
            assert ("config error: the source has 10 features and the target 3: heterogeneous "
                    "fits need labeled target samples (target_labeled)\n"
                    ) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        # given labeled targets it fits, under the default mode too
        cfg = write_config(tmp_path / "c.cfg", **paths,
                           target_labeled=data / "target_labeled.csv")
        assert main(["fit", "--config", cfg]) == 0
        assert (tmp_path / "run" / "model.lpjt").exists()

    def test_numeric_failure_exits_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(synth_args(data, n=10)) == 0
        cfg = write_config(
            tmp_path / "c.cfg",
            source=data / "source.csv",
            target_unlabeled=data / "target.csv",
            output_dir=tmp_path / "run",
            gamma=0.0, mu=0.0, T=1, d=2,
        )
        assert main(["fit", "--config", cfg]) == 3

    def test_overflowing_features_exit_3(self, tmp_path, capsys):
        # unnormalized features near the float64 limit overflow the MMD blocks
        Xs, ys, Xt, _ = synth_gauss_shift(10, 3, 3)
        write_dataset(tmp_path / "source.csv", Xs * 1e160, ys)
        write_dataset(tmp_path / "target.csv", Xt * 1e160)
        cfg = write_config(
            tmp_path / "c.cfg",
            source=tmp_path / "source.csv",
            target_unlabeled=tmp_path / "target.csv",
            output_dir=tmp_path / "run",
            normalize="none", d=2, T=2,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["fit", "--config", cfg]) == 3
        assert "numeric failure: constraint-side matrix" in capsys.readouterr().err

    def test_linalg_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def failing_fit(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        data = tmp_path / "data"
        assert main(synth_args(data, n=5)) == 0
        monkeypatch.setattr(pipeline, "fit", failing_fit)
        cfg = write_config(tmp_path / "c.cfg", source=data / "source.csv",
                           target_unlabeled=data / "target.csv", output_dir=tmp_path / "run")
        assert main(["fit", "--config", cfg]) == 3
        assert "numeric failure: Singular matrix" in capsys.readouterr().err

    @pytest.mark.parametrize("row,message", [("x", "invalid literal for int() with base 10: 'x'"),
                                             ("1,2", "got 2 columns, the header has 1")])
    def test_bad_prediction_row_names_file_and_line(self, tmp_path, capsys, row, message):
        _, run, cfg_path, _ = self._workflow(tmp_path, capsys)
        path = run / "predictions.csv"
        lines = path.read_text().splitlines()
        lines[3] = row
        path.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--config", cfg_path]) == 2
        assert f"config error: {path}:4: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("mode", "bogus"), ("normalize", "l2")])
    def test_every_verb_validates_the_settings(self, tmp_path, capsys, key, value):
        data, run, cfg_path, _ = self._workflow(tmp_path, capsys)
        with open(cfg_path, "a") as fh:
            fh.write(f"{key}={value}\n")
        for verb in ("fit", "predict", "eval", "trace"):
            assert main([verb, "--config", cfg_path]) == 2
            assert f"{key} must be one of" in capsys.readouterr().err

    def test_zero_delta_rejected_by_fit_and_predict(self, tmp_path, capsys):
        _, _, cfg_path, _ = self._workflow(tmp_path, capsys)
        with open(cfg_path, "a") as fh:
            fh.write("delta=0\n")
        for verb in ("fit", "predict"):
            assert main([verb, "--config", cfg_path]) == 2
            assert "delta must lie in (0, 1]" in capsys.readouterr().err

    def test_semisupervised_workflow(self, tmp_path, capsys):
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert main(synth_args(data, kind="hetero_map", n=25, labeled=3)) == 0
        cfg_path = write_config(
            tmp_path / "run.cfg",
            source=data / "source.csv",
            target_unlabeled=data / "target.csv",
            target_labeled=data / "target_labeled.csv",
            output_dir=run,
            mode="semisupervised",
            d=2, T=2,
            truth=data / "target_truth.csv",
        )
        assert main(["fit", "--config", cfg_path]) == 0
        assert main(["predict", "--config", cfg_path]) == 0
        assert main(["eval", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert any(l.startswith("accuracy=") for l in out.splitlines())

import json
import os
import re
import warnings

import pytest

import hsvm.solver
from hsvm.cli import _solver_options, build_parser, main
from hsvm.solver import SolverOptions
from hsvm.tuning import Grid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# A file holding one byte outside ASCII, alone or in a UTF-8 word.
NON_ASCII = [pytest.param(b"\xe9", id="byte"),
             pytest.param("+1 1:0.5 # caf\u00e9\n".encode("utf-8"),
                          id="utf8_word")]


def gen_binary(tmp_path, capsys, seed=7, n=40, p=20, s=4, n_test=30):
    prefix = str(tmp_path / f"syn{seed}")
    code, _, _ = run(capsys, "gen", "--kind", "binary", "--n", str(n),
                     "--p", str(p), "--s", str(s), "--rho", "0",
                     "--seed", str(seed), "--n-test", str(n_test),
                     "--out", prefix)
    assert code == 0
    return prefix


class TestGen:
    def test_writes_files_and_sidecar(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys)
        train = open(prefix + ".train.libsvm").read().splitlines()
        assert len(train) == 40
        meta = json.load(open(prefix + ".meta.json"))
        assert meta["s"] == 4 and meta["true_support"] == [1, 2, 3, 4]
        assert os.path.exists(prefix + ".test.libsvm")

    def test_deterministic(self, tmp_path, capsys):
        p1 = gen_binary(tmp_path, capsys, seed=3)
        p2 = str(tmp_path / "again")
        code, _, _ = run(capsys, "gen", "--kind", "binary", "--n", "40",
                         "--p", "20", "--s", "4", "--rho", "0", "--seed", "3",
                         "--n-test", "30", "--out", p2)
        assert code == 0
        assert open(p1 + ".train.libsvm").read() == \
            open(p2 + ".train.libsvm").read()

    def test_odd_s_four_class_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--kind", "four_class", "--n", "8",
                           "--p", "20", "--s", "31", "--out",
                           str(tmp_path / "x"))
        assert code == 1
        assert "even" in err

    @pytest.mark.parametrize("kind, n_test, message", [
        ("binary", "-3", "--n-test"),
        ("four_class", "5", "divisible by 4")])
    def test_bad_test_size_writes_nothing(self, tmp_path, capsys, kind,
                                          n_test, message):
        code, _, err = run(capsys, "gen", "--kind", kind, "--n", "40",
                           "--p", "30", "--s", "4", "--n-test", n_test,
                           "--out", str(tmp_path / "f"))
        assert code == 1
        assert message in err
        assert os.listdir(tmp_path) == []

    def test_missing_flag_usage_error(self, capsys):
        code, _, _ = run(capsys, "gen", "--kind", "binary", "--n", "10")
        assert code == 1


class TestTrain:
    def test_train_and_trace(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys)
        model = str(tmp_path / "m.hsvm")
        trace = str(tmp_path / "trace.csv")
        code, out, _ = run(capsys, "train", "--data", prefix + ".train.libsvm",
                           "--solver", "bpgh", "--lambda1", "0.1",
                           "--lambda2", "1", "--lambda3", "1", "--delta", "1",
                           "--model-out", model, "--trace-out", trace)
        assert code == 0
        assert "converged=True" in out
        rows = open(trace).read().splitlines()
        assert rows[0] == "k,F,L,omega,step,restart,nnz"
        F = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(a >= b - 1e-12 for a, b in zip(F, F[1:]))
        assert open(model).readline().startswith("HSVM binary")

    def test_solver_label_mismatch(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys)
        code, _, err = run(capsys, "train", "--data", prefix + ".train.libsvm",
                           "--solver", "mpgh", "--lambda1", "0.1",
                           "--lambda2", "1", "--lambda3", "1",
                           "--model-out", str(tmp_path / "m"))
        assert code == 1
        assert "needs multiclass" in err

    @pytest.mark.parametrize("step, message", [
        ("multi_w_step", "weight rows left the zero-sum subspace"),
        ("multi_b_step", "intercepts left the zero-sum subspace")])
    def test_mpgh_constraint_violation_exit_one(self, tmp_path, capsys,
                                                monkeypatch, step, message):
        prefix = str(tmp_path / "four")
        assert run(capsys, "gen", "--kind", "four_class", "--n", "40",
                   "--p", "12", "--s", "4", "--seed", "3",
                   "--out", prefix)[0] == 0
        exact = getattr(hsvm.solver, step)
        monkeypatch.setattr(hsvm.solver, step,
                            lambda *args: exact(*args) + 1e-6)
        model = tmp_path / "m"
        code, _, err = run(capsys, "train", "--data", prefix + ".train.libsvm",
                           "--solver", "mpgh", "--lambda1", "0.1",
                           "--lambda2", "1", "--lambda3", "1",
                           "--model-out", str(model))
        assert code == 1
        assert message in err
        assert not model.exists()

    def test_exit_two_on_iteration_cap(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys)
        code, out, _ = run(capsys, "train", "--data", prefix + ".train.libsvm",
                           "--solver", "bpgh", "--lambda1", "0.1",
                           "--lambda2", "1", "--lambda3", "1",
                           "--max-iter", "2",
                           "--model-out", str(tmp_path / "m2"))
        assert code == 2
        assert "converged=False" in out

    def test_two_stage_exit_two_on_iteration_cap(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys)
        code, out, _ = run(capsys, "train", "--data", prefix + ".train.libsvm",
                           "--solver", "bpgh2", "--lambda1", "0.1",
                           "--lambda2", "1", "--lambda3", "1",
                           "--max-iter", "2",
                           "--model-out", str(tmp_path / "m3"))
        assert code == 2
        assert "converged=False iterations=2" in out

    def test_nan_tolerance_usage_error(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys)
        code, _, err = run(capsys, "train", "--data", prefix + ".train.libsvm",
                           "--solver", "bpgh", "--lambda1", "0.1",
                           "--lambda2", "1", "--lambda3", "1", "--tol", "nan",
                           "--model-out", str(tmp_path / "m4"))
        assert code == 1
        assert "finite" in err
        assert not os.path.exists(tmp_path / "m4")

    def test_missing_data_file_io_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "train", "--data", str(tmp_path / "nope"),
                         "--solver", "bpgh", "--lambda1", "0.1",
                         "--lambda2", "1", "--lambda3", "1",
                         "--model-out", str(tmp_path / "m3"))
        assert code == 3

    @pytest.mark.parametrize("text", NON_ASCII)
    def test_non_ascii_data_file_io_error(self, tmp_path, capsys, text):
        data, model = tmp_path / "d.libsvm", tmp_path / "m"
        data.write_bytes(text)
        code, out, err = run(capsys, "train", "--data", str(data),
                             "--solver", "bpgh", "--lambda1", "0.1",
                             "--lambda2", "1", "--lambda3", "1",
                             "--model-out", str(model))
        assert code == 3
        assert f"{data}: not an ASCII text file" in err
        assert "Traceback" not in err and out == ""
        assert not model.exists()

    @pytest.mark.parametrize("text, message", [
        ("+1 99999999999999999999:1\n",
         "line 1: feature index 99999999999999999999 is out of range"),
        ("1e300 1:1\n", "line 1: label '1e300' is out of range"),
        ("9007199254740993 1:1\n",
         "line 1: label '9007199254740993' is out of range")])
    def test_out_of_range_number_io_error(self, tmp_path, capsys, text,
                                          message):
        data, model = tmp_path / "d.libsvm", tmp_path / "m"
        data.write_text(text)
        code, out, err = run(capsys, "train", "--data", str(data),
                             "--solver", "bpgh", "--lambda1", "0.1",
                             "--lambda2", "1", "--lambda3", "1",
                             "--model-out", str(model))
        assert code == 3
        assert message in err
        assert "Traceback" not in err and out == ""
        assert not model.exists()

    def test_mpgh_reports_its_gap(self, tmp_path, capsys):
        prefix = str(tmp_path / "four")
        assert run(capsys, "gen", "--kind", "four_class", "--n", "40",
                   "--p", "12", "--s", "4", "--seed", "3",
                   "--out", prefix)[0] == 0

        def train(lambda2):
            return run(capsys, "train", "--data", prefix + ".train.libsvm",
                       "--solver", "mpgh", "--lambda1", "0.1", "--lambda2",
                       lambda2, "--lambda3", "1",
                       "--model-out", str(tmp_path / "m"))

        code, out, _ = train("1")
        assert code == 0
        gap = float(re.search(r" gap=(\S+)$", out.strip()).group(1))
        assert 0.0 <= gap <= SolverOptions.tol
        code, out, _ = train("0")  # no certificate without lambda2 > 0
        assert code == 0 and "gap=" not in out


class TestPredict:
    def train_model(self, tmp_path, capsys, prefix):
        model = str(tmp_path / "model.hsvm")
        code, _, _ = run(capsys, "train", "--data", prefix + ".train.libsvm",
                         "--solver", "bpgh", "--lambda1", "0.05",
                         "--lambda2", "1", "--lambda3", "1",
                         "--model-out", model)
        assert code == 0
        return model

    def test_labels_and_accuracy_line(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys, n=60, s=6)
        model = self.train_model(tmp_path, capsys, prefix)
        out_file = str(tmp_path / "pred.txt")
        code, out, _ = run(capsys, "predict", "--model", model,
                           "--data", prefix + ".test.libsvm",
                           "--out", out_file)
        assert code == 0
        lines = open(out_file).read().splitlines()
        assert lines[-1].startswith("accuracy ")
        assert len(lines) == 31
        assert set(lines[:-1]) <= {"1", "-1"}
        assert float(lines[-1].split()[1]) >= 0.9

    def test_unlabeled_data_no_accuracy(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys)
        model = self.train_model(tmp_path, capsys, prefix)
        raw = str(tmp_path / "unlabeled.libsvm")
        with open(raw, "w") as fh:
            fh.write("0 1:0.5 2:-1\n0 3:2\n")
        out_file = str(tmp_path / "pred2.txt")
        code, _, _ = run(capsys, "predict", "--model", model, "--data", raw,
                         "--out", out_file)
        assert code == 0
        lines = open(out_file).read().splitlines()
        assert len(lines) == 2
        assert not lines[-1].startswith("accuracy")

    def label_mismatch_setup(self, tmp_path, capsys):
        """A bpgh and an mpgh model, each with the other kind's test file."""
        files = {}
        for kind, solver in (("binary", "bpgh"), ("four_class", "mpgh")):
            prefix = str(tmp_path / kind)
            code, _, _ = run(capsys, "gen", "--kind", kind, "--n", "40",
                             "--p", "30", "--s", "4", "--n-test", "20",
                             "--out", prefix)
            assert code == 0
            model = str(tmp_path / f"{solver}.model")
            code, _, _ = run(capsys, "train", "--data", prefix + ".train.libsvm",
                             "--solver", solver, "--lambda1", "0.05",
                             "--lambda2", "1", "--lambda3", "1",
                             "--model-out", model)
            assert code in (0, 2)
            files[kind] = (model, prefix + ".test.libsvm")
        return files

    def test_labels_the_model_cannot_predict_rejected(self, tmp_path, capsys):
        files = self.label_mismatch_setup(tmp_path, capsys)
        for model_kind, data_kind, label in (("binary", "four_class", "2"),
                                             ("four_class", "binary", "-1")):
            out_file = tmp_path / f"pred_{model_kind}.txt"
            code, out, err = run(capsys, "predict",
                                 "--model", files[model_kind][0],
                                 "--data", files[data_kind][1],
                                 "--out", str(out_file))
            assert code == 1
            assert f"label {label} " in err
            assert "accuracy" not in out
            assert not out_file.exists()

    def test_multi_model_predicts_file_of_class_one_only(self, tmp_path,
                                                         capsys):
        files = self.label_mismatch_setup(tmp_path, capsys)
        lines = open(files["four_class"][1]).read().splitlines()
        ones = [ln for ln in lines if ln.split()[0] == "1"]
        raw = tmp_path / "ones.libsvm"
        raw.write_text("\n".join(ones) + "\n")
        out_file = tmp_path / "pred_ones.txt"
        code, out, _ = run(capsys, "predict", "--model", files["four_class"][0],
                           "--data", str(raw), "--out", str(out_file))
        assert code == 0
        assert out.startswith("accuracy ")
        assert len(out_file.read_text().splitlines()) == len(ones) + 1

    def test_empty_data_file_rejected(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys)
        model = self.train_model(tmp_path, capsys, prefix)
        raw = tmp_path / "empty.libsvm"
        raw.write_text("")
        out_file = tmp_path / "pred_empty.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "predict", "--model", model,
                                 "--data", str(raw), "--out", str(out_file))
        assert code == 1
        assert str(raw) in err and "no rows" in err
        assert "accuracy" not in out
        assert not out_file.exists()

    def test_malformed_model_number_io_error(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys)
        model = self.train_model(tmp_path, capsys, prefix)
        lines = open(model).read().splitlines()
        with open(model, "w") as fh:
            fh.write("\n".join(lines[:3] + ["w x 1.0"]) + "\n")
        code, _, err = run(capsys, "predict", "--model", model,
                           "--data", prefix + ".test.libsvm",
                           "--out", str(tmp_path / "pred3.txt"))
        assert code == 3
        assert "malformed number 'x'" in err

    HP_LINE = "lambda1=0.1 lambda2=1 lambda3=1 delta=1"

    def predict_with_model(self, tmp_path, capsys, text):
        """``hsvm predict`` with a model file holding ``text`` on a small
        labelled three-feature file."""
        model, data = tmp_path / "model.hsvm", tmp_path / "data.libsvm"
        model.write_text(text)
        data.write_text("+1 1:1 3:0.5\n-1 2:1\n+1 1:0.25 2:-1\n")
        out_file = tmp_path / "pred.txt"
        code, out, err = run(capsys, "predict", "--model", str(model),
                             "--data", str(data), "--out", str(out_file))
        return code, out, err, out_file

    @pytest.mark.parametrize("lines, message", [
        ([], "empty model file"),
        (["HSVM ternary p=3 J=2", HP_LINE, "b 0"],
         "unknown model kind 'ternary'"),
        (["HSVM binary p=x J=2", HP_LINE, "b 0"], "bad header"),
        (["HSVM multi p=3 J=2.5", HP_LINE, "b 0 0"], "bad header"),
        (["HSVM binary p=3 J=2", "lambda1=0.1 lambda2 lambda3=1", "b 0"],
         "bad hyperparameter token 'lambda2'"),
        (["HSVM binary p=3 J=2", HP_LINE, "w 1 0.5"],
         "missing intercept line"),
        (["HSVM binary p=3 J=2", HP_LINE, "b 0 0"],
         r"expected 1 intercept value\(s\), got 2"),
        (["HSVM multi p=3 J=3", HP_LINE, "b 0.5 -0.5"],
         r"expected 3 intercept value\(s\), got 2"),
        (["HSVM binary p=3 J=2", HP_LINE, "b 0", "w 1"],
         "bad weight line 'w 1'"),
        (["HSVM binary p=3 J=2", HP_LINE, "b 0", "v 1 0.5"],
         "bad weight line 'v 1 0.5'"),
        (["HSVM multi p=3 J=2", HP_LINE, "b 0 0", "w 1 0.5"],
         "bad weight line 'w 1 0.5'"),
        (["HSVM binary p=3 J=2", HP_LINE, "b 0", "w 4 0.5"],
         "weight index out of range in 'w 4 0.5'"),
        (["HSVM binary p=3 J=2", HP_LINE, "b 0", "w 0 0.5"],
         "weight index out of range in 'w 0 0.5'"),
        (["HSVM multi p=3 J=2", HP_LINE, "b 0 0", "w 1 3 0.5"],
         "weight index out of range in 'w 1 3 0.5'"),
    ])
    def test_malformed_model_file_io_error(self, tmp_path, capsys, lines,
                                           message):
        text = "\n".join(lines) + "\n" if lines else ""
        code, _, err, out_file = self.predict_with_model(tmp_path, capsys,
                                                         text)
        assert code == 3
        assert re.search(message, err)
        assert not out_file.exists()

    @pytest.mark.parametrize("lines", [
        ["HSVM binary p=3 J=2", HP_LINE, "b 0", "w 1 0.25", "w 1 0.75"],
        ["HSVM multi p=3 J=2", HP_LINE, "b 0 0", "w 1 1 0.25",
         "w 1 2 -0.25", "w 1 1 0.75"],
    ])
    def test_repeated_weight_line_io_error(self, tmp_path, capsys, lines):
        code, _, err, out_file = self.predict_with_model(
            tmp_path, capsys, "\n".join(lines) + "\n")
        assert code == 3
        assert f"repeated weight in {lines[-1]!r}" in err
        assert not out_file.exists()

    def test_blank_weight_line_skipped(self, tmp_path, capsys):
        lines = ["HSVM binary p=3 J=2", self.HP_LINE, "b 0", "w 1 0.5",
                 "w 2 -1"]
        preds = []
        for text in ("\n".join(lines) + "\n",
                     "\n".join(lines[:4] + ["", "   "] + lines[4:]) + "\n\n"):
            code, out, _, out_file = self.predict_with_model(tmp_path, capsys,
                                                             text)
            assert code == 0
            preds.append(out_file.read_text())
        assert preds[0] == preds[1] == "1\n-1\n1\naccuracy 1\n"

    @pytest.mark.parametrize("text", NON_ASCII)
    def test_non_ascii_model_file_io_error(self, tmp_path, capsys, text):
        model, data = tmp_path / "model.hsvm", tmp_path / "data.libsvm"
        model.write_bytes(text)
        data.write_text("+1 1:1 3:0.5\n")
        out_file = tmp_path / "pred.txt"
        code, out, err = run(capsys, "predict", "--model", str(model),
                             "--data", str(data), "--out", str(out_file))
        assert code == 3
        assert f"{model}: not an ASCII text file" in err
        assert "Traceback" not in err and out == ""
        assert not out_file.exists()

    def test_file_wider_than_model_names_both_widths(self, tmp_path, capsys):
        model, data = tmp_path / "model.hsvm", tmp_path / "wide.libsvm"
        model.write_text("\n".join(["HSVM binary p=3 J=2", self.HP_LINE,
                                    "b 0", "w 1 0.5"]) + "\n")
        data.write_text("+1 1:1\n-1 2:1 5:0.5\n")
        out_file = tmp_path / "pred.txt"
        code, out, err = run(capsys, "predict", "--model", str(model),
                             "--data", str(data), "--out", str(out_file))
        assert code == 1
        assert (f"{data}: largest feature index 5 exceeds 3, the model's "
                "feature count") in err
        assert "override" not in err and out == ""
        assert not out_file.exists()

    def test_non_finite_value_io_error(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys)
        model = self.train_model(tmp_path, capsys, prefix)
        raw = str(tmp_path / "nan.libsvm")
        with open(raw, "w") as fh:
            fh.write("1 1:0.5\n-1 1:nan\n")
        out_file = tmp_path / "pred4.txt"
        code, _, err = run(capsys, "predict", "--model", model, "--data", raw,
                           "--out", str(out_file))
        assert code == 3
        assert "line 2" in err
        assert not out_file.exists()
        code, _, err = run(capsys, "train", "--data", raw, "--solver", "bpgh",
                           "--lambda1", "0.1", "--lambda2", "1",
                           "--lambda3", "1",
                           "--model-out", str(tmp_path / "m5"))
        assert code == 3
        assert "line 2" in err


class TestCV:
    def test_single_point_echoed(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys, n=30)
        code, out, _ = run(capsys, "cv", "--data", prefix + ".train.libsvm",
                           "--lambda1-grid", "0.1", "--lambda2-grid", "1",
                           "--folds", "3", "--seed", "0")
        assert code == 0
        assert "best lambda1=0.1" in out and "lambda2=1" in out

    def test_deterministic_table(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys, n=30)
        t1 = str(tmp_path / "t1.csv")
        t2 = str(tmp_path / "t2.csv")
        for t in (t1, t2):
            code, _, _ = run(capsys, "cv", "--data", prefix + ".train.libsvm",
                             "--lambda1-grid", "0.05,0.1",
                             "--lambda2-grid", "0.5,1", "--folds", "3",
                             "--seed", "5", "--table-out", t)
            assert code == 0
        assert open(t1).read() == open(t2).read()

    def test_malformed_grid(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys, n=30)
        code, _, err = run(capsys, "cv", "--data", prefix + ".train.libsvm",
                           "--lambda1-grid", "0.1,oops", "--lambda2-grid", "1")
        assert code == 1
        assert "malformed grid" in err

    def test_malformed_lambda3(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys, n=30)
        code, _, err = run(capsys, "cv", "--data", prefix + ".train.libsvm",
                           "--lambda1-grid", "0.1", "--lambda2-grid", "1",
                           "--lambda3", "abc")
        assert code == 1
        assert "malformed --lambda3 'abc'" in err

    def test_solver_label_mismatch(self, tmp_path, capsys):
        # rejected before any fit, as train does; grid_search would record
        # every fold as accuracy 0 and still name a best point
        binary = gen_binary(tmp_path, capsys, n=30)
        four = str(tmp_path / "four")
        code, _, _ = run(capsys, "gen", "--kind", "four_class", "--n", "40",
                         "--p", "30", "--s", "4", "--out", four)
        assert code == 0
        for prefix, solver, want in ((binary, "mpgh", "multiclass"),
                                     (four, "bpgh", "binary"),
                                     (four, "bpgh2", "binary")):
            table = tmp_path / f"cv_{solver}.csv"
            code, out, err = run(capsys, "cv",
                                 "--data", prefix + ".train.libsvm",
                                 "--solver", solver, "--lambda1-grid", "0.1,1",
                                 "--lambda2-grid", "1", "--folds", "3",
                                 "--table-out", str(table))
            assert code == 1
            assert f"needs {want} labels" in err
            assert "best" not in out
            assert not table.exists()

    def test_too_many_folds_usage_error(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys, n=4, s=2, p=6)
        code, _, _ = run(capsys, "cv", "--data", prefix + ".train.libsvm",
                         "--lambda1-grid", "0.1", "--lambda2-grid", "1",
                         "--folds", "10")
        assert code == 1


class TestFlagDefaults:
    def test_train_defaults_are_the_solver_defaults(self):
        args = build_parser().parse_args(
            ["train", "--data", "d", "--solver", "bpgh", "--lambda1", "0.1",
             "--lambda2", "1", "--lambda3", "1", "--model-out", "m"])
        assert _solver_options(args) == SolverOptions()

    def test_cv_defaults_are_the_grid_defaults(self):
        args = build_parser().parse_args(
            ["cv", "--data", "d", "--lambda1-grid", "0.1",
             "--lambda2-grid", "1"])
        grid = Grid([0.1], [1.0])
        assert (args.lambda3, args.delta, args.folds) == \
            (grid.lambda3, grid.delta, grid.folds)


class TestBench:
    def test_ablation_report(self, tmp_path, capsys):
        out_file = str(tmp_path / "bench.csv")
        code, _, _ = run(capsys, "--format", "csv", "bench",
                         "--scenario", "ablation", "--n", "200", "--p", "40",
                         "--s", "5", "--seed", "1", "--lambda1", "0.05",
                         "--lambda2", "1", "--lambda3", "1",
                         "--out", out_file)
        assert code == 0
        rows = open(out_file).read().splitlines()
        assert rows[0] == "setting,iterations,time_ms,objective,nnz"
        assert len(rows) == 4
        objs = [float(r.split(",")[3]) for r in rows[1:]]
        spread = (max(objs) - min(objs)) / min(objs)
        assert spread <= 1e-4
        iters = [int(r.split(",")[1]) for r in rows[1:]]
        assert iters[0] <= iters[2] <= iters[1]  # ours, fixed_L, backtrack

    def test_two_stage_report(self, tmp_path, capsys):
        code, out, _ = run(capsys, "--format", "csv", "bench",
                           "--scenario", "two_stage", "--n", "100", "--p",
                           "300", "--s", "6", "--seed", "2",
                           "--lambda1", "0.1", "--lambda2", "1",
                           "--lambda3", "1")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[1].startswith("bpgh,") and rows[2].startswith("bpgh2,")


class TestStats:
    RANKS = [
        "dataset,A,B,C,D,E",
        "d1,1.5,1.5,4,3,5",
        "d2,2.5,2.5,2.5,2.5,5",
        "d3,2.5,2.5,2.5,2.5,5",
        "d4,1,2,4,3,5",
        "d5,2,2,4.5,4.5,2",
        "d6,1.5,1.5,3,4,5",
        "d7,1.5,1.5,4,3,5",
        "d8,1.5,1.5,4,4,4",
        "d9,2,2,4,2,5",
        "d10,1.5,1.5,4,3,5",
    ]

    def write_ranks(self, tmp_path):
        path = str(tmp_path / "ranks.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(self.RANKS) + "\n")
        return path

    def test_reproduces_friedman(self, tmp_path, capsys):
        path = self.write_ranks(tmp_path)
        code, out, _ = run(capsys, "--format", "csv", "stats",
                           "--scores", path, "--kind", "ranks",
                           "--control", "A", "--alpha", "0.05")
        assert code == 0
        fried = [l for l in out.splitlines()
                 if l.startswith("friedman,") and "chi2" not in l][0]
        chi2 = float(fried.split(",")[1])
        assert chi2 == pytest.approx(23.56, abs=0.01)
        rejects = {l.split(",")[1]: l.split(",")[4]
                   for l in out.splitlines()
                   if l.startswith("control,") and "method" not in l}
        assert rejects == {"B": "0", "C": "1", "D": "0", "E": "1"}

    def test_alpha_flag_respected(self, tmp_path, capsys):
        path = self.write_ranks(tmp_path)
        code, out, _ = run(capsys, "--format", "csv", "stats",
                           "--scores", path, "--kind", "ranks",
                           "--control", "A", "--alpha", "0.10")
        rejects = {l.split(",")[1]: l.split(",")[4]
                   for l in out.splitlines()
                   if l.startswith("control,") and "method" not in l}
        assert rejects == {"B": "0", "C": "1", "D": "1", "E": "1"}

    @pytest.mark.parametrize("alpha", ["7", "1", "0", "-1", "nan"])
    def test_alpha_outside_unit_interval_usage_error(self, tmp_path, capsys,
                                                     alpha):
        path = self.write_ranks(tmp_path)
        code, out, err = run(capsys, "--format", "csv", "stats",
                             "--scores", path, "--kind", "ranks",
                             "--alpha", alpha)
        assert code == 1
        assert "alpha" in err and out == ""

    def test_identical_columns_zero_chi2(self, tmp_path, capsys):
        path = str(tmp_path / "flat.csv")
        with open(path, "w") as fh:
            fh.write("A,B,C\n")
            for _ in range(5):
                fh.write("0.7,0.7,0.7\n")
        code, out, _ = run(capsys, "--format", "csv", "stats",
                           "--scores", path)
        assert code == 0
        fried = [l for l in out.splitlines()
                 if l.startswith("friedman,") and "chi2" not in l][0]
        assert float(fried.split(",")[1]) == pytest.approx(0.0, abs=1e-12)

    def test_ragged_csv_usage_error(self, tmp_path, capsys):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("A,B\n0.5,0.6\n0.7\n")
        code, _, err = run(capsys, "stats", "--scores", path)
        assert code == 1
        assert "ragged" in err

    @pytest.mark.parametrize("text", NON_ASCII)
    def test_non_ascii_scores_file_io_error(self, tmp_path, capsys, text):
        path, report = tmp_path / "scores.csv", tmp_path / "report.csv"
        path.write_bytes(b"A,B\n0.5,0.6\n0.7,0.8\n" + text)
        code, out, err = run(capsys, "stats", "--scores", str(path),
                             "--out", str(report))
        assert code == 3
        assert f"{path}: not an ASCII text file" in err
        assert "Traceback" not in err and out == ""
        assert not report.exists()

    def test_non_finite_score_usage_error(self, tmp_path, capsys):
        path = str(tmp_path / "nonfinite.csv")
        with open(path, "w") as fh:
            fh.write("A,B,C\n0.9,0.8,nan\n0.9,0.8,0.5\n"
                     "0.9,0.8,0.5\n0.9,inf,0.5\n")
        code, out, err = run(capsys, "--format", "csv", "stats",
                             "--scores", path)
        assert code == 1
        assert "finite" in err and out == ""


class TestPipelineDeterminism:
    def test_gen_train_predict_bit_identical(self, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            prefix = str(tmp_path / f"run_{tag}")
            run(capsys, "gen", "--kind", "binary", "--n", "40", "--p", "20",
                "--s", "4", "--rho", "0.5", "--seed", "11", "--n-test", "20",
                "--out", prefix)
            model = prefix + ".model"
            run(capsys, "train", "--data", prefix + ".train.libsvm",
                "--solver", "bpgh", "--lambda1", "0.1", "--lambda2", "1",
                "--lambda3", "1", "--model-out", model,
                "--trace-out", prefix + ".trace.csv")
            run(capsys, "predict", "--model", model,
                "--data", prefix + ".test.libsvm", "--out", prefix + ".pred")
            outs.append(tuple(open(prefix + ext, "rb").read() for ext in
                              (".train.libsvm", ".test.libsvm", ".model",
                               ".trace.csv", ".pred")))
        assert outs[0] == outs[1]

import json
import os

import pytest

from hsvm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_exit_two_on_iteration_cap(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys)
        code, out, _ = run(capsys, "train", "--data", prefix + ".train.libsvm",
                           "--solver", "bpgh", "--lambda1", "0.1",
                           "--lambda2", "1", "--lambda3", "1",
                           "--max-iter", "2",
                           "--model-out", str(tmp_path / "m2"))
        assert code == 2
        assert "converged=False" in out

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

    def test_too_many_folds_usage_error(self, tmp_path, capsys):
        prefix = gen_binary(tmp_path, capsys, n=4, s=2, p=6)
        code, _, _ = run(capsys, "cv", "--data", prefix + ".train.libsvm",
                         "--lambda1-grid", "0.1", "--lambda2-grid", "1",
                         "--folds", "10")
        assert code == 1


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

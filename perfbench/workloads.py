"""The benchmark workloads.

Each workload makes its inputs from the seed with the benchmark's own
generators (the same recipes as the acceptance instances, so
``large_dense`` at seed 77 is the criterion-7 problem), hands the package
only datasets or files, and checks invariants of what comes back.

Interface: ``setup(seed, workdir)`` builds the inputs (timed as set-up),
``prepare(state)`` gives one repetition its own ``Dataset`` objects
(untimed), ``run(inputs)`` is the timed body, and ``check(out)`` returns
the failed invariants. The body calls the package through module
attributes (``hsvm.tuning.SOLVERS``, ``hsvm.cli.main`` ...) so that the
wrappers in ``spans`` see every call.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import hsvm.cli
import hsvm.model
import hsvm.tuning
from hsvm.data import Dataset
from hsvm.losses import Hyperparams

FEASIBILITY_TOL = 1e-8
TWO_STAGE_REL_GAP = 1e-4


# ------------------------------------------------------------- generators

def _equicorr_chol(s, rho):
    return np.linalg.cholesky(rho * np.ones((s, s)) + (1.0 - rho) * np.eye(s))


def gen_binary(n, p, s, rho, seed):
    """Two Gaussian classes at +/-mu (s leading ones) with an
    equicorrelated leading block; first half of the rows is class +1."""
    rng = np.random.default_rng(seed)
    chol = _equicorr_chol(s, rho)
    X = rng.standard_normal((n, p))
    X[:, :s] = X[:, :s] @ chol.T
    half = n // 2
    X[:half, :s] += 1.0
    X[half:, :s] -= 1.0
    y = np.concatenate([np.ones(half, dtype=np.int64),
                        -np.ones(n - half, dtype=np.int64)])
    return X, y


def gen_fourclass(n, p, s, rho, seed):
    """Classes 1/2 at +/-mu1 (s leading ones), 3/4 at +/-mu3 (s ones offset
    by s/2, correlated block shifted with it); n/4 rows per class."""
    rng = np.random.default_rng(seed)
    chol = _equicorr_chol(s, rho)
    per, half_s = n // 4, s // 2
    mu1 = np.zeros(p)
    mu1[:s] = 1.0
    mu3 = np.zeros(p)
    mu3[half_s:half_s + s] = 1.0
    blocks = []
    for mu, start in ((mu1, 0), (-mu1, 0), (mu3, half_s), (-mu3, half_s)):
        Z = rng.standard_normal((per, p))
        Z[:, start:start + s] = Z[:, start:start + s] @ chol.T
        blocks.append(Z + mu)
    y = np.repeat(np.arange(1, 5, dtype=np.int64), per)
    return np.vstack(blocks), y


def gen_manyclass(n, n_test, p, J, s, amp, seed):
    """J Gaussian classes whose centred means carry a random +/-amp sign
    pattern on the first s features; rows cycle through the classes."""
    rng = np.random.default_rng(seed)
    M = np.zeros((J, p))
    M[:, :s] = rng.choice([-amp, amp], size=(J, s))
    M -= M.mean(axis=0)
    out = []
    for rows in (n, n_test):
        y = np.tile(np.arange(1, J + 1, dtype=np.int64), rows // J)
        out.append((rng.standard_normal((rows, p)) + M[y - 1], y))
    return out


def gen_sparse(n, n_test, p, seed):
    """Sparse CSR rows (about 0.4% dense): 1000 common columns at 4%
    density, the rest at 0.33%. Labels are the sign of a 200-feature linear
    score over common columns plus a little noise; rows are then scaled to
    unit norm, as in the common sparse text benchmarks."""
    rng = np.random.default_rng(seed)
    common = 1000
    w = np.zeros(p)
    w[rng.choice(common, size=200, replace=False)] = rng.standard_normal(200)
    out = []
    for rows in (n, n_test):
        X = sp.hstack([
            sp.random_array((rows, common), density=0.04, rng=rng,
                            data_sampler=rng.standard_normal),
            sp.random_array((rows, p - common), density=0.0033, rng=rng,
                            data_sampler=rng.standard_normal),
        ], format="csr")
        X.sort_indices()
        score = X @ w + 0.1 * rng.standard_normal(rows)
        X.data /= np.repeat(np.sqrt(X.multiply(X).sum(axis=1)), np.diff(X.indptr))
        out.append((X, np.where(score >= 0.0, 1, -1).astype(np.int64)))
    return out


def write_libsvm_file(path, X, y):
    """LIBSVM text with 6 significant digits per value."""
    with open(path, "w", encoding="ascii") as fh:
        for i in range(X.shape[0]):
            lo, hi = X.indptr[i], X.indptr[i + 1]
            feats = " ".join(f"{c + 1}:{v:.6g}" for c, v in
                             zip(X.indices[lo:hi].tolist(), X.data[lo:hi].tolist()))
            fh.write(f"{int(y[i])} {feats}\n")


def _dataset(arrays, **kw):
    X, y = arrays
    return Dataset(X, y, **kw)


def write_cli_files(workdir, prefix, train, test):
    """LIBSVM train and test files plus the model and prediction paths of
    one ``hsvm train`` / ``hsvm predict`` flow."""
    paths = {k: str(Path(workdir, f"{prefix}.{k}")) for k in ("train", "test", "model", "pred")}
    for key, (X, y) in (("train", train), ("test", test)):
        write_libsvm_file(paths[key], sp.csr_array(X), y)
    return paths


def run_cli_flow(paths, train_args, y_test):
    """``hsvm train`` then ``hsvm predict``, in-process, stdout captured."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        train = hsvm.cli.main(["train", "--data", paths["train"], *train_args,
                               "--model-out", paths["model"]])
        predict = hsvm.cli.main(["predict", "--model", paths["model"],
                                 "--data", paths["test"], "--out", paths["pred"]])
    out = {"codes": (train, predict), "stdout": stdout.getvalue(),
           "labels": y_test, "pred_lines": []}
    if out["codes"] == (0, 0):
        with open(paths["pred"], encoding="ascii") as fh:
            out["pred_lines"] = fh.read().splitlines()
    return out


def check_cli_flow(out):
    """Failed invariants of a train/predict flow: exit codes, one label per
    test row, and a reported accuracy that matches the labels and beats
    chance. Sets ``out["accuracy"]``."""
    out["accuracy"] = float("nan")
    if out["codes"] != (0, 0):
        return [f"exit codes {out['codes']}"]
    y_test, lines = out["labels"], out["pred_lines"]
    if len(lines) != y_test.size + 1 or not lines[-1].startswith("accuracy "):
        return [f"prediction file has {len(lines)} lines"]
    pred = np.asarray([int(v) for v in lines[:-1]])
    out["accuracy"] = float(np.mean(pred == y_test))
    failures = []
    if float(lines[-1].split()[1]) != out["accuracy"]:
        failures.append(f"reported {lines[-1]!r}, recomputed {out['accuracy']}")
    chance = 1.0 / np.unique(y_test).size
    if not out["accuracy"] > chance:
        failures.append(f"test accuracy {out['accuracy']} not above chance {chance}")
    return failures


# -------------------------------------------------------------- workloads

class BinaryCV:
    """Two criterion-3 trials (rho = 0 and 0.8): 10-fold grid search over
    4 x 3 points, a refit, and evaluation on 1000 test rows."""

    name = "binary_cv"
    RHOS = (0.0, 0.8)

    def __init__(self):
        self.grid = hsvm.tuning.Grid(np.logspace(-2, -0.5, 4),
                                     np.asarray([0.1, 1.0, 10.0]),
                                     lambda3="lambda2", folds=10)

    def setup(self, seed, workdir):
        return [(gen_binary(50, 300, 20, rho, seed),
                 gen_binary(1000, 300, 20, rho, seed + 70_000), seed)
                for rho in self.RHOS]

    def prepare(self, state):
        support = np.arange(20)
        return [(_dataset(tr, kind="binary", true_support=support),
                 _dataset(te, kind="binary", true_support=support), seed)
                for tr, te, seed in state]

    def run(self, inputs):
        out = []
        for train, test, seed in inputs:
            best = hsvm.tuning.grid_search(train, self.grid, solver="bpgh",
                                           seed=seed)
            hp = self.grid.hyperparams(best.best_lambda1, best.best_lambda2)
            res = hsvm.tuning.SOLVERS["bpgh"](train, hp)
            metrics = hsvm.model.evaluate(res.model, test)
            out.append((best, res, metrics))
        return out

    def check(self, out):
        failures = []
        for rho, (best, _, metrics) in zip(self.RHOS, out):
            if min(best.mean_scores.values()) <= 0.0:
                failures.append(f"rho={rho}: a grid point failed on every fold")
            if not metrics.accuracy > 0.5:
                failures.append(f"rho={rho}: test accuracy {metrics.accuracy} <= 0.5")
        return failures

    def accuracy(self, out):
        return float(np.mean([m.accuracy for _, _, m in out]))

    def digest(self, out):
        return tuple((b.best_lambda1, b.best_lambda2, r.final_objective,
                      m.accuracy) for b, r, m in out)


class Multiclass:
    """One criterion-4 trial (J=4, n=100, p=500, 15 grid points, 20 000
    test rows), a 3-fold M-PGH grid search over two points on the same
    training set, one M-PGH fit on a J=50, p=1000 problem, and
    ``hsvm train --solver mpgh`` / ``hsvm predict`` on LIBSVM files of the
    training set and 200 held-out rows."""

    name = "multiclass"
    POINTS = [(l1, l2) for l1 in (0.02, 0.05, 0.1, 0.15, 0.2)
              for l2 in (0.3, 1.0, 3.0)]
    J_MANY = 50
    HP_MANY = Hyperparams(0.01, 1.0, 1.0, 1.0)
    TRAIN_ARGS = ("--solver", "mpgh", "--lambda1", "0.05", "--lambda2", "1",
                  "--lambda3", "1")

    def __init__(self):
        self.cv_grid = hsvm.tuning.Grid([0.05, 0.1], [1.0], folds=3)

    def setup(self, seed, workdir):
        four = [gen_fourclass(n, 500, 30, 0.0, seed + offset)
                for n, offset in ((100, 0), (100, 50_000), (20_000, 90_000))]
        many = gen_manyclass(500, 1000, 1000, self.J_MANY, 50, 0.5, seed)
        held_out = gen_fourclass(200, 500, 30, 0.0, seed + 60_000)
        files = write_cli_files(workdir, "fourclass", four[0], held_out)
        return four, many, files, held_out[1]

    def prepare(self, state):
        four, many, files, y_held_out = state
        return ([_dataset(a, kind="multiclass", n_classes=4) for a in four],
                [_dataset(a, kind="multiclass", n_classes=self.J_MANY)
                 for a in many], files, y_held_out)

    def run(self, inputs):
        (train, val, test), (train_many, test_many), files, y_held_out = inputs
        fit = hsvm.tuning.SOLVERS["mpgh"]
        models = []
        best_acc, best = -1.0, None
        for l1, l2 in self.POINTS:
            res = fit(train, Hyperparams(l1, l2, 1.0, 1.0))
            models.append(res.model)
            acc = hsvm.model.evaluate(res.model, val).accuracy
            if acc > best_acc:
                best_acc, best = acc, res
        test_acc = hsvm.model.evaluate(best.model, test).accuracy
        cv = hsvm.tuning.grid_search(train, self.cv_grid, solver="mpgh")
        res_many = fit(train_many, self.HP_MANY)
        models.append(res_many.model)
        many_acc = hsvm.model.evaluate(res_many.model, test_many).accuracy
        cli = run_cli_flow(files, self.TRAIN_ARGS, y_held_out)
        return {"models": models, "best": best, "test_acc": test_acc,
                "cv": cv, "many": res_many, "many_acc": many_acc, "cli": cli}

    def check(self, out):
        failures = []
        worst = max(m.feasibility_residual() for m in out["models"])
        if not worst <= FEASIBILITY_TOL:
            failures.append(f"feasibility residual {worst:.2e} > {FEASIBILITY_TOL}")
        if not out["test_acc"] > 0.5:
            failures.append(f"four-class test accuracy {out['test_acc']} <= 0.5")
        if min(out["cv"].mean_scores.values()) <= 0.0:
            failures.append("a grid point failed on every fold")
        if not out["many_acc"] > 2.0 / self.J_MANY:
            failures.append(f"J={self.J_MANY} accuracy {out['many_acc']} "
                            f"not above twice chance")
        return failures + check_cli_flow(out["cli"])

    def accuracy(self, out):
        return float(out["test_acc"])

    def digest(self, out):
        return (out["best"].final_objective, out["test_acc"],
                tuple(out["cv"].mean_scores.items()),
                out["many"].final_objective, out["many_acc"],
                out["cli"]["stdout"], tuple(out["cli"]["pred_lines"]))


class LargeDense:
    """The criterion-7 instance (n=2000, p=20 000, s=200) solved plain and
    two-stage, row norms warmed in set-up; 500 test rows with 2% of the
    labels flipped."""

    name = "large_dense"
    HP = Hyperparams(0.1, 1.0, 1.0, 1.0)

    def setup(self, seed, workdir):
        train = Dataset(*gen_binary(2000, 20_000, 200, 0.0, seed), kind="binary")
        train.row_sqnorms()
        X_test, y_test = gen_binary(500, 20_000, 200, 0.0, seed + 70_000)
        # 2% label noise: the classes are separable, and a test accuracy of
        # exactly 1 on every seed would say nothing.
        flip = np.random.default_rng(seed + 70_001).random(y_test.size) < 0.02
        test = Dataset(X_test, np.where(flip, -y_test, y_test), kind="binary")
        return train, test

    def prepare(self, state):
        return state

    def run(self, inputs):
        train, test = inputs
        plain = hsvm.tuning.SOLVERS["bpgh"](train, self.HP)
        two = hsvm.tuning.SOLVERS["bpgh2"](train, self.HP)
        acc = hsvm.model.evaluate(plain.model, test).accuracy
        return plain, two, acc

    def check(self, out):
        plain, two, acc = out
        failures = []
        rel = abs(two.final_objective - plain.final_objective) / abs(plain.final_objective)
        if not rel <= TWO_STAGE_REL_GAP:
            failures.append(f"two-stage objective gap {rel:.2e} > {TWO_STAGE_REL_GAP}")
        if two.two_stage_fallback:
            failures.append("two-stage solve fell back to the plain solver")
        if not acc > 0.5:
            failures.append(f"test accuracy {acc} <= 0.5")
        return failures

    def accuracy(self, out):
        return float(out[2])

    def digest(self, out):
        plain, two, acc = out
        return plain.final_objective, two.final_objective, acc


class SparseLibsvm:
    """``hsvm train --solver bpgh2`` on a 4000 x 50 000 sparse LIBSVM file,
    then ``hsvm predict`` on 1000 held-out rows, run in-process."""

    name = "sparse_libsvm"
    TRAIN_ARGS = ("--solver", "bpgh2", "--lambda1", "0.0005", "--lambda2", "0.001",
                  "--lambda3", "1")

    def setup(self, seed, workdir):
        train, test = gen_sparse(4000, 1000, 50_000, seed)
        return write_cli_files(workdir, "sparse", train, test), test[1]

    def prepare(self, state):
        return state

    def run(self, inputs):
        return run_cli_flow(*inputs[:1], self.TRAIN_ARGS, inputs[1])

    def check(self, out):
        return check_cli_flow(out)

    def accuracy(self, out):
        return out["accuracy"]

    def digest(self, out):
        return out["codes"], out["stdout"], tuple(out["pred_lines"])


WORKLOADS = {w.name: w for w in (BinaryCV, Multiclass, LargeDense, SparseLibsvm)}

import io
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from hsvm import (
    Dataset,
    DomainError,
    Grid,
    LabelError,
    ShapeError,
    SolverOptions,
    grid_search,
    kfold_split,
)
from hsvm.data import SynthSpec, gen_binary_gaussian, gen_fourclass
from hsvm.model import evaluate
from hsvm.tuning import SOLVERS, CVRecord, GridSearchResult


class TestKfoldSplit:
    def test_singletons(self):
        folds = kfold_split(10, 10, seed=0)
        assert len(folds) == 10
        assert all(f.size == 1 for f in folds)

    def test_partition_property(self):
        folds = kfold_split(23, 5, seed=1)
        joined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(joined, np.arange(23))
        sizes = [f.size for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_stratification_balanced_binary(self):
        labels = np.array([1] * 50 + [-1] * 50)
        folds = kfold_split(100, 10, labels=labels, seed=2)
        for f in folds:
            assert (labels[f] == 1).sum() == 5
            assert (labels[f] == -1).sum() == 5

    def test_deterministic_per_seed(self):
        a = kfold_split(40, 4, seed=7)
        b = kfold_split(40, 4, seed=7)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
        c = kfold_split(40, 4, seed=8)
        assert any(not np.array_equal(fa, fc) for fa, fc in zip(a, c))

    def test_too_many_folds(self):
        with pytest.raises(DomainError):
            kfold_split(3, 5)

    @pytest.mark.parametrize("labels", [[1, 1, 2], [], [[1, 2, 1, 2, 1]]])
    def test_label_count_must_match_n(self, labels):
        with pytest.raises(ShapeError):
            kfold_split(5, 2, labels=labels)

    def test_matches_per_index_reference(self):
        # Deal each label group's shuffled indices one at a time round
        # the folds, drawing from the RNG in the same order.
        def reference(n, k, labels, seed):
            rng = np.random.default_rng(seed)
            folds = [[] for _ in range(k)]
            groups = ([np.arange(n)] if labels is None else
                      [np.flatnonzero(labels == v) for v in np.unique(labels)])
            cursor = 0
            for idx in groups:
                for i in idx[rng.permutation(idx.size)]:
                    folds[cursor % k].append(int(i))
                    cursor += 1
            return [np.asarray(sorted(f), dtype=np.int64) for f in folds]

        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            k = int(rng.integers(2, min(n, 10) + 1))
            labels = None if rng.random() < 0.3 else rng.integers(1, 4, size=n)
            seed = int(rng.integers(0, 1000))
            folds = kfold_split(n, k, labels, seed)
            assert len(folds) == k
            for got, want in zip(folds, reference(n, k, labels, seed)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


def separable_data(seed=0, n=60):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = np.where(X[:, 0] >= 0, 1, -1)
    X[:, 0] += y * 2.0  # widen the margin
    return Dataset(X, y)


class TestGridSearch:
    def test_single_point_returned(self):
        data = separable_data(1)
        grid = Grid([0.1], [1.0], folds=5)
        res = grid_search(data, grid, seed=0)
        assert res.best_lambda1 == 0.1 and res.best_lambda2 == 1.0
        assert len(res.table) == 5

    def test_perfect_point_wins(self):
        data = separable_data(2)
        # lambda1 = 50 kills every weight; 0.05 separates perfectly
        grid = Grid([50.0, 0.05], [1.0], folds=5)
        res = grid_search(data, grid, seed=0)
        assert res.best_lambda1 == 0.05
        assert res.mean_scores[(0.05, 1.0)] == 1.0

    def test_tie_breaks_toward_larger_lambda1(self):
        data = separable_data(3)
        grid = Grid([0.01, 0.05], [0.5, 1.0], folds=5)
        res = grid_search(data, grid, seed=0)
        tied = [pt for pt, v in res.mean_scores.items()
                if v == max(res.mean_scores.values())]
        best = max(tied)
        assert (res.best_lambda1, res.best_lambda2) == best

    def test_table_shape_and_range(self):
        data = separable_data(4)
        grid = Grid([0.1, 0.2], [0.5], folds=4)
        res = grid_search(data, grid, seed=0)
        assert len(res.table) == 2 * 4
        assert all(0.0 <= r.accuracy <= 1.0 for r in res.table)
        best_score = res.mean_scores[(res.best_lambda1, res.best_lambda2)]
        assert best_score == max(res.mean_scores.values())

    def test_lambda3_tied_to_lambda2(self):
        grid = Grid([0.1], [0.5], lambda3="lambda2")
        hp = grid.hyperparams(0.1, 0.5)
        assert hp.lambda3 == 0.5
        grid_fixed = Grid([0.1], [0.5], lambda3=2.0)
        assert grid_fixed.hyperparams(0.1, 0.5).lambda3 == 2.0

    def test_csv_has_summary_line(self):
        data = separable_data(6, n=20)
        res = grid_search(data, Grid([0.1], [1.0], folds=4), seed=0)
        buf = io.StringIO()
        res.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "lambda1,lambda2,fold,accuracy"
        assert lines[-1].startswith("best,")

    def test_unknown_solver(self):
        with pytest.raises(DomainError):
            grid_search(separable_data(7), Grid([0.1], [1.0]), solver="nope")

    def test_fold_count_exceeding_samples(self):
        data = separable_data(8, n=6)
        with pytest.raises(DomainError):
            grid_search(data, Grid([0.1], [1.0], folds=10))


def reference_grid_search(data, grid, solver, seed):
    """The CV table by a plain loop over (point, fold): each fit on its
    own training copy, evaluated on its own validation copy."""
    folds = kfold_split(data.n, grid.folds, labels=data.labels, seed=seed)
    table, mean_scores = [], {}
    for l1, l2 in grid.points():
        accs = []
        for val_idx in folds:
            train = data.subset(np.setdiff1d(np.arange(data.n), val_idx))
            model = SOLVERS[solver](train, grid.hyperparams(l1, l2)).model
            accs.append(evaluate(model, data.subset(val_idx)).accuracy)
        table += [CVRecord(l1, l2, f, float(a)) for f, a in enumerate(accs)]
        mean_scores[(l1, l2)] = float(np.mean(accs))
    best = max(mean_scores, key=lambda pt: (mean_scores[pt], pt[0], pt[1]))
    return GridSearchResult(best[0], best[1], table, mean_scores)


def csv_bytes(result):
    buf = io.StringIO()
    result.to_csv(buf)
    return buf.getvalue().encode()


class TestFoldMajorLoop:
    """Folds run outermost, one fold's copies at a time; the result is the
    plain (point, fold) loop's, row for row and byte for byte."""

    @pytest.mark.parametrize("solver", ["bpgh", "mpgh"])
    def test_matches_plain_loop(self, solver):
        if solver == "mpgh":
            data = gen_fourclass(SynthSpec(kind="four_class", n=80, p=30,
                                           s=4, rho=0.5, seed=3))
        else:
            data = gen_binary_gaussian(SynthSpec(kind="binary_gaussian",
                                                 n=60, p=30, s=5, rho=0.5,
                                                 seed=3))
        # A non-square grid, so that swapped point and fold indices show.
        grid = Grid([0.01, 0.1, 0.4], [0.1, 1.0], folds=3)
        got = grid_search(data, grid, solver=solver, seed=5)
        want = reference_grid_search(data, grid, solver, seed=5)
        assert len({rec.accuracy for rec in want.table}) > 2
        assert got.table == want.table
        assert got.mean_scores == want.mean_scores
        assert csv_bytes(got) == csv_bytes(want)

    @pytest.mark.parametrize("layout, bound", [("dense", 1.3), ("csr", 3.0)])
    def test_peak_memory_does_not_grow_with_folds(self, layout, bound):
        # Building every fold's copies before the first fit peaks at 10.1x
        # X dense and 13.1x X as CSR. A CSR fit also squares one copy of
        # its training rows for the norms.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 2000))
        y = np.where(X[:, 0] + 0.5 * rng.normal(size=200) >= 0, 1, -1)
        if layout == "csr":
            X = sp.csr_array(X * (rng.random(X.shape) < 0.05))
            x_bytes = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
        else:
            x_bytes = X.nbytes
        data = Dataset(X, y)
        grid = Grid([0.05], [1.0], folds=10)
        tracemalloc.start()
        try:
            grid_search(data, grid, opts=SolverOptions(max_iter=20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * x_bytes


class TestSolverFailureHandling:
    def test_fit_failure_propagates(self, monkeypatch):
        import hsvm.tuning as tuning
        from hsvm.errors import HsvmError

        calls = {"n": 0}

        def flaky_fit(train, hp, opts=None):
            calls["n"] += 1
            if hp.lambda1 == 0.5:
                raise HsvmError("synthetic failure")
            from hsvm.solver import fit_binary
            return fit_binary(train, hp, opts)

        monkeypatch.setitem(tuning.SOLVERS, "bpgh", flaky_fit)
        data = separable_data(9, n=24)
        with pytest.raises(HsvmError, match="synthetic failure"):
            grid_search(data, Grid([0.5, 0.05], [1.0], folds=3), seed=0)
        assert calls["n"] == 1

    def test_label_kind_the_solver_cannot_fit_raises(self):
        with pytest.raises(LabelError, match="needs multiclass labels"):
            grid_search(separable_data(10, n=24),
                        Grid([0.1], [1.0], folds=3), solver="mpgh")


class TestGridValidation:
    @pytest.mark.parametrize("kwargs", [
        {"lambda3": "foo"},
        {"lambda3": None},
        {"lambda3": -1.0},
        {"lambda3": float("nan")},
        {"lambda3": float("inf")},
        {"delta": 0.0},
        {"delta": float("nan")},
        {"delta": None},
        {"lambda1_values": [0.1, float("nan")]},
        {"lambda1_values": [-0.1, 0.1]},
        {"lambda2_values": [float("nan")]},
        {"lambda2_values": [1.0, float("inf")]},
    ], ids=str)
    def test_unusable_value_rejected_at_construction(self, kwargs):
        args = {"lambda1_values": [0.1], "lambda2_values": [1.0], **kwargs}
        with pytest.raises(DomainError):
            Grid(**args)

    def test_usable_values_accepted(self):
        grid = Grid([0.0, 0.1], [0.0, 1.0], lambda3=0, delta=2)
        assert grid.hyperparams(0.1, 1.0).lambda3 == 0.0
        assert Grid([0.1], [1.0], lambda3="lambda2").lambda3 == "lambda2"

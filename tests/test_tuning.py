import io

import numpy as np
import pytest

from hsvm import (
    Dataset,
    DomainError,
    Grid,
    LabelError,
    ShapeError,
    grid_search,
    kfold_split,
)
from hsvm.data import SynthSpec, gen_binary_gaussian


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

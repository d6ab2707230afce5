import numpy as np
import pytest

from hsvm import Dataset, DomainError, Hyperparams
from oracles import (
    bruteforce_eq_prox,
    finite_diff_grad,
    grid_minimize,
    multi_objective_direct,
    projected_subgradient,
)


class TestFiniteDiff:
    def test_quadratic_is_exact(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])

        def f(u):
            return 0.5 * float(u @ A @ u)

        x = np.array([1.0, -2.0])
        fd = finite_diff_grad(f, x, h=1e-5)
        np.testing.assert_allclose(fd, A @ x, rtol=1e-9)

    def test_constant_function(self):
        fd = finite_diff_grad(lambda u: 3.0, np.zeros(4), h=1e-5)
        np.testing.assert_array_equal(fd, np.zeros(4))

    def test_requires_positive_h(self):
        with pytest.raises(DomainError):
            finite_diff_grad(lambda u: 0.0, np.zeros(1), h=0.0)


class TestBruteforceEqProx:
    def test_antisymmetric(self):
        w, sigma = bruteforce_eq_prox(np.array([1.0, -1.0]), 0.5)
        assert sigma == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(w, [0.5, -0.5])

    def test_constant_input(self):
        w, _ = bruteforce_eq_prox(np.full(4, 2.5), 0.3)
        np.testing.assert_array_equal(w, np.zeros(4))

    def test_feasibility_always(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            J = int(rng.integers(2, 13))
            z = rng.normal(size=J) * rng.uniform(0.2, 4)
            w, _ = bruteforce_eq_prox(z, rng.uniform(0.01, 2))
            assert abs(w.sum()) <= 1e-10

    def test_guards(self):
        with pytest.raises(DomainError):
            bruteforce_eq_prox(np.zeros(13), 0.5)
        with pytest.raises(DomainError):
            bruteforce_eq_prox(np.array([1.0, 2.0]), -0.5)


class TestGridMinimize:
    def test_parabola_vertex(self):
        x, v, boundary = grid_minimize(lambda t: (t - 0.7) ** 2, [(-3, 3)],
                                       1e-3)
        assert x == pytest.approx(0.7, abs=1e-4)
        assert v <= 1e-6
        assert not boundary

    def test_two_dimensional(self):
        def f(u):
            return (u[0] - 1.0) ** 2 + abs(u[1] + 0.5)

        x, v, boundary = grid_minimize(f, [(-3, 3), (-3, 3)], 1e-3)
        np.testing.assert_allclose(x, [1.0, -0.5], atol=1e-3)
        assert not boundary

    def test_boundary_flag(self):
        _, _, boundary = grid_minimize(lambda t: t, [(-1, 1)], 1e-3)
        assert boundary

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            grid_minimize(lambda u: 0.0, [(-1, 1)] * 3, 1e-3)


class TestProjectedSubgradient:
    def test_zero_data_zero_model(self):
        data = Dataset(np.zeros((4, 3)), np.array([1, 2, 1, 2]), n_classes=2)
        hp = Hyperparams(5.0, 1.0, 1.0, 1.0)
        b, W, obj = projected_subgradient(data, hp, 2000)
        # heavy l1 keeps W at zero; b drifts toward the intercept optimum
        np.testing.assert_allclose(W, np.zeros((3, 2)), atol=1e-8)
        assert abs(b.sum()) <= 1e-12

    def test_feasibility_of_result(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(size=(8, 3)), rng.integers(1, 4, 8))
        hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
        b, W, obj = projected_subgradient(data, hp, 5000)
        assert abs(b.sum()) <= 1e-12
        assert np.abs(W.sum(axis=1)).max() <= 1e-12

    def test_objective_decreases_with_budget(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.normal(size=(6, 2)), np.array([1, 2, 3, 1, 2, 3]))
        hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
        _, _, obj_small = projected_subgradient(data, hp, 200)
        _, _, obj_big = projected_subgradient(data, hp, 20000)
        assert obj_big <= obj_small + 1e-12

    def test_size_guard(self):
        data = Dataset(np.zeros((2, 30)), np.array([1, 2]), n_classes=2)
        with pytest.raises(DomainError):
            projected_subgradient(data, Hyperparams(0.1, 1, 1, 1), 10)

    def test_direct_objective_matches_module(self):
        from hsvm import MultiModel, objective
        rng = np.random.default_rng(3)
        data = Dataset(rng.normal(size=(10, 4)), rng.integers(1, 4, 10))
        hp = Hyperparams(0.2, 0.5, 0.7, 0.9)
        b = rng.normal(size=3)
        b -= b.mean()
        W = rng.normal(size=(4, 3))
        W -= W.mean(axis=1, keepdims=True)
        direct = multi_objective_direct(b, W, data, hp)
        parts = objective(MultiModel(b, W), data, hp)
        assert direct == pytest.approx(parts.total, rel=1e-12)

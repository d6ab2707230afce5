import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsvm import (
    BinaryModel,
    Dataset,
    DomainError,
    Hyperparams,
    LabelError,
    MultiModel,
    StateError,
    binary_objective,
    binary_smooth_grad,
    huber_grad,
    huber_loss,
    lipschitz_binary,
    lipschitz_multi,
    multi_objective,
    multi_smooth_grad,
)
from hsvm.errors import ConstraintError
from hsvm.losses import binary_margins, multi_margins

from oracles import finite_diff_grad, reference_binary_grad


def random_binary(rng, n, p):
    X = rng.normal(size=(n, p))
    y = rng.choice([-1, 1], size=n)
    return Dataset(X, y)


class TestHuberLoss:
    def test_flat_region(self):
        assert huber_loss(2.0, 1.0) == 0.0

    def test_quadratic_branch(self):
        assert huber_loss(0.5, 1.0) == pytest.approx(0.125, abs=1e-15)

    def test_linear_branch(self):
        assert huber_loss(-1.0, 1.0) == pytest.approx(1.5, abs=1e-15)

    @pytest.mark.parametrize("delta", [0.01, 0.1, 1.0, 2.5])
    def test_branch_continuity(self, delta):
        t = 1.0 - delta
        quad = (1.0 - t) ** 2 / (2 * delta)
        lin = 1.0 - t - delta / 2
        assert quad == pytest.approx(lin, abs=1e-15)
        assert huber_loss(t, delta) == pytest.approx(delta / 2, rel=1e-12)

    def test_vectorized(self):
        t = np.array([2.0, 0.5, -1.0])
        np.testing.assert_allclose(huber_loss(t, 1.0), [0.0, 0.125, 1.5])

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            huber_loss(np.nan, 1.0)
        with pytest.raises(DomainError):
            huber_loss(0.5, 0.0)
        with pytest.raises(DomainError):
            huber_loss(0.5, -1.0)

    @given(st.floats(-50, 50), st.floats(0.01, 10))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_continuous(self, t, delta):
        v = huber_loss(t, delta)
        assert v >= 0.0
        h = 1e-7
        lo, hi = huber_loss(t - h, delta), huber_loss(t + h, delta)
        assert abs(hi - lo) <= 2 * h * 1.001 + 1e-12

    @given(st.floats(-20, 20), st.floats(-0.001, 0.001), st.floats(0.05, 5))
    @example(t=-8.0, h=1e-10, delta=1.246668848349545)
    @settings(max_examples=200, deadline=None)
    def test_first_order_expansion(self, t, h, delta):
        # |phi(t+h) - phi(t) - h phi'(t)| <= h^2 / (2 delta), up to the
        # rounding of t + h and of the two loss values. Every operand is at
        # most 1 + |t| in size, so a few ulps of 1 + |t| bound it; at t = -8
        # one such ulp already exceeds h^2 / (2 delta).
        lhs = abs(huber_loss(t + h, delta) - huber_loss(t, delta)
                  - h * huber_grad(t, delta))
        assert lhs <= h * h / (2 * delta) + 4 * np.spacing(1.0 + abs(t))


class TestHuberGrad:
    def test_flat(self):
        assert huber_grad(2.0, 1.0) == 0.0

    def test_quadratic(self):
        assert huber_grad(0.5, 1.0) == pytest.approx(-0.5, abs=1e-15)

    def test_linear(self):
        assert huber_grad(-3.0, 0.5) == -1.0

    @given(st.floats(-30, 30), st.floats(0.05, 5))
    @settings(max_examples=200, deadline=None)
    def test_range(self, t, delta):
        g = huber_grad(t, delta)
        assert -1.0 <= g <= 0.0

    @given(st.floats(-20, 20), st.floats(-20, 20), st.floats(0.05, 5))
    @settings(max_examples=200, deadline=None)
    def test_derivative_lipschitz(self, t, s, delta):
        assert abs(huber_grad(t, delta) - huber_grad(s, delta)) \
            <= abs(t - s) / delta + 1e-12


class TestBinaryObjective:
    def test_zero_model_value(self):
        rng = np.random.default_rng(0)
        data = random_binary(rng, 13, 4)
        hp = Hyperparams(1.0, 1.0, 1.0, 1.0)
        parts = binary_objective(BinaryModel(0.0, np.zeros(4)), data, hp)
        assert parts.smooth == pytest.approx(0.5, abs=1e-15)
        assert parts.penalty == 0.0
        assert parts.total == parts.smooth + parts.penalty

    def test_margin_beyond_one_is_free(self):
        data = Dataset(np.array([[2.0]]), np.array([1]))
        hp = Hyperparams(0.0, 0.0, 0.0, 1.0)
        parts = binary_objective(BinaryModel(0.0, np.array([1.0])), data, hp)
        assert parts.smooth == 0.0

    def test_penalty_terms(self):
        data = random_binary(np.random.default_rng(1), 5, 3)
        hp = Hyperparams(2.0, 3.0, 4.0, 1.0)
        w = np.array([1.0, -2.0, 0.5])
        parts = binary_objective(BinaryModel(1.5, w), data, hp)
        expect = 2.0 * 3.5 + 1.5 * (w @ w) + 2.0 * 1.5 ** 2
        assert parts.penalty == pytest.approx(expect, rel=1e-14)

    def test_convexity_sampled(self):
        rng = np.random.default_rng(7)
        data = random_binary(rng, 20, 6)
        hp = Hyperparams(0.3, 0.7, 0.2, 0.5)

        def F(u):
            return binary_objective(BinaryModel(u[0], u[1:]), data, hp).total

        for _ in range(50):
            u = rng.normal(size=7)
            v = rng.normal(size=7)
            theta = rng.uniform()
            mid = theta * u + (1 - theta) * v
            assert F(mid) <= theta * F(u) + (1 - theta) * F(v) + 1e-12


class TestBinaryGrad:
    def test_single_sample_at_zero(self):
        data = Dataset(np.zeros((1, 3)), np.array([1]))
        m = binary_margins(0.0, np.zeros(3), data)
        gb, gw = binary_smooth_grad(m, data, 1.0)
        assert gb == pytest.approx(-1.0)
        np.testing.assert_array_equal(gw, np.zeros(3))

    def test_flat_region_zero_grad(self):
        rng = np.random.default_rng(3)
        data = random_binary(rng, 8, 4)
        margins = np.full(8, 2.0)
        gb, gw = binary_smooth_grad(margins, data, 1.0)
        assert gb == 0.0
        np.testing.assert_array_equal(gw, np.zeros(4))

    def test_cache_length_mismatch(self):
        data = random_binary(np.random.default_rng(4), 6, 2)
        with pytest.raises(StateError):
            binary_smooth_grad(np.zeros(5), data, 1.0)

    @pytest.mark.parametrize("delta", [0.01, 0.1, 1.0])
    def test_matches_finite_differences(self, delta):
        rng = np.random.default_rng(17)
        data = random_binary(rng, 20, 10)
        b, w = rng.normal(), rng.normal(size=10) * 0.4
        m = binary_margins(b, w, data)
        gb, gw = binary_smooth_grad(m, data, delta)
        grad = np.concatenate([[gb], gw])

        def f(u):
            mm = binary_margins(u[0], u[1:], data)
            return float(np.mean(huber_loss(mm, delta)))

        fd = finite_diff_grad(f, np.concatenate([[b], w]), h=1e-5)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_matches_cache_free_reference(self):
        rng = np.random.default_rng(23)
        data = random_binary(rng, 15, 6)
        b, w = 0.3, rng.normal(size=6) * 0.5
        m = binary_margins(b, w, data)
        gb, gw = binary_smooth_grad(m, data, 0.7)
        rb, rw = reference_binary_grad(b, w, data, 0.7)
        assert gb == pytest.approx(rb, rel=1e-12)
        np.testing.assert_allclose(gw, rw, rtol=1e-12, atol=1e-15)

    def test_gradient_lipschitz_bound(self):
        rng = np.random.default_rng(29)
        data = random_binary(rng, 25, 8)
        delta = 0.4
        L = lipschitz_binary(data, delta)
        for _ in range(30):
            u1 = rng.normal(size=9)
            u2 = rng.normal(size=9)
            g1 = np.concatenate(binary_smooth_grad(
                binary_margins(u1[0], u1[1:], data), data, delta), axis=None)
            g2 = np.concatenate(binary_smooth_grad(
                binary_margins(u2[0], u2[1:], data), data, delta), axis=None)
            assert np.linalg.norm(g1 - g2) <= L * np.linalg.norm(u1 - u2) + 1e-12


class TestLipschitz:
    def test_binary_direct_value(self):
        data = Dataset(np.array([[1.0, 1.0, 1.0]]), np.array([1]))
        assert lipschitz_binary(data, 1.0) == pytest.approx(4.0)

    def test_binary_zero_features(self):
        data = Dataset(np.zeros((5, 2)), np.array([1, -1, 1, -1, 1]))
        assert lipschitz_binary(data, 1.0) == pytest.approx(1.0)

    def test_delta_scaling(self):
        data = random_binary(np.random.default_rng(2), 9, 3)
        assert lipschitz_binary(data, 0.5) == pytest.approx(
            2.0 * lipschitz_binary(data, 1.0), rel=1e-14)

    def test_multi_direct_value(self):
        data = Dataset(np.array([[1.0, 1.0, 1.0]]), np.array([2]), n_classes=4)
        assert lipschitz_multi(data, 1.0, 4) == pytest.approx(16.0)

    def test_multi_forbids_single_class(self):
        data = Dataset(np.ones((2, 2)), np.array([1, 1]), n_classes=2)
        with pytest.raises(DomainError):
            lipschitz_multi(data, 1.0, 1)

    def test_multi_linear_in_classes(self):
        data = Dataset(np.random.default_rng(0).normal(size=(6, 3)),
                       np.array([1, 2, 3, 1, 2, 3]))
        assert lipschitz_multi(data, 1.0, 6) == pytest.approx(
            2 * lipschitz_multi(data, 1.0, 3), rel=1e-14)

    def test_empty_dataset_rejected(self):
        data = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), kind="binary")
        with pytest.raises(DomainError):
            lipschitz_binary(data, 1.0)


def feasible_multi(rng, p, J):
    b = rng.normal(size=J)
    b -= b.mean()
    W = rng.normal(size=(p, J)) * 0.4
    W -= W.mean(axis=1, keepdims=True)
    return MultiModel(b=b, W=W)


class TestMultiObjective:
    def test_zero_model_value(self):
        rng = np.random.default_rng(11)
        data = Dataset(rng.normal(size=(12, 5)), rng.integers(1, 5, 12),
                       n_classes=4)
        hp = Hyperparams(1.0, 1.0, 1.0, 1.0)
        parts = multi_objective(MultiModel(np.zeros(4), np.zeros((5, 4))),
                                data, hp)
        assert parts.smooth == pytest.approx(1.5, abs=1e-14)  # (J-1)/2
        assert parts.penalty == 0.0

    def test_infeasible_model_rejected(self):
        data = Dataset(np.zeros((2, 2)), np.array([1, 2]))
        with pytest.raises(ConstraintError):
            MultiModel(b=np.array([1.0, 0.0]), W=np.zeros((2, 2)))

    def test_model_made_infeasible_after_construction_rejected(self):
        data = Dataset(np.ones((2, 2)), np.array([1, 2]))
        hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
        model = MultiModel(b=np.zeros(2), W=np.zeros((2, 2)))
        model.W[0, 0] = 1e-6  # row sum 1e-6, beyond the 1e-8 tolerance
        with pytest.raises(ConstraintError):
            multi_objective(model, data, hp)
        with pytest.raises(ConstraintError):
            multi_smooth_grad(model, data, hp.delta)
        model.W[0, 0] = 0.0
        model.b = np.array([1e-6, 0.0])
        with pytest.raises(ConstraintError):
            multi_objective(model, data, hp)
        with pytest.raises(ConstraintError):
            multi_smooth_grad(model, data, hp.delta)

    def test_two_sample_hand_enumeration(self):
        # J = 2, symmetric samples: enumerate the two wrong-class terms.
        X = np.array([[1.0], [-1.0]])
        data = Dataset(X, np.array([1, 2]))
        b = np.array([0.5, -0.5])
        W = np.array([[2.0, -2.0]])
        hp = Hyperparams(0.0, 0.0, 0.0, 1.0)
        # sample 1 (y=1): wrong class 2 score = -0.5 - 2 = -2.5
        # sample 2 (y=2): wrong class 1 score = 0.5 - 2 = -1.5
        expect = 0.5 * (huber_loss(2.5, 1.0) + huber_loss(1.5, 1.0))
        parts = multi_objective(MultiModel(b, W), data, hp)
        assert parts.smooth == pytest.approx(expect, rel=1e-14)

    def test_total_is_sum(self):
        rng = np.random.default_rng(31)
        data = Dataset(rng.normal(size=(9, 4)), rng.integers(1, 4, 9),
                       n_classes=3)
        hp = Hyperparams(0.2, 0.4, 0.6, 0.8)
        parts = multi_objective(feasible_multi(rng, 4, 3), data, hp)
        assert parts.total == pytest.approx(parts.smooth + parts.penalty,
                                            rel=1e-15)


class TestMultiGrad:
    def test_far_wrong_scores_zero_grad(self):
        # wrong-class scores far below -1 contribute nothing
        data = Dataset(np.zeros((3, 2)), np.array([1, 2, 3]))
        b = np.zeros(3)
        W = np.zeros((2, 3))
        model = MultiModel(b, W)
        m = multi_margins(b, W, data) - 5.0  # every score at -5
        from hsvm.losses import multi_grad_from_margins
        gb, gW = multi_grad_from_margins(m + 10.0, data, 1.0)
        # scores at +5: wrong-class margins -5, linear region -> nonzero
        assert np.any(gb != 0)
        gb2, gW2 = multi_grad_from_margins(m, data, 1.0)
        np.testing.assert_array_equal(gb2, np.zeros(3))
        np.testing.assert_array_equal(gW2, np.zeros((2, 3)))

    @pytest.mark.parametrize("delta", [0.01, 0.1, 1.0])
    def test_matches_finite_differences(self, delta):
        rng = np.random.default_rng(41)
        n, p, J = 14, 7, 4
        data = Dataset(rng.normal(size=(n, p)), rng.integers(1, J + 1, n),
                       n_classes=J)
        model = feasible_multi(rng, p, J)
        gb, gW = multi_smooth_grad(model, data, delta)
        grad = np.concatenate([gb, gW.ravel()])

        from hsvm.losses import multi_smooth_from_margins

        def f(u):
            b = u[:J]
            W = u[J:].reshape(p, J)
            return multi_smooth_from_margins(
                multi_margins(b, W, data), data.labels, delta)

        u0 = np.concatenate([model.b, model.W.ravel()])
        fd = finite_diff_grad(f, u0, h=1e-5)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_single_sample_hand_enumeration(self):
        # one sample, J=3: exactly two wrong-class terms contribute
        X = np.array([[1.0, -1.0]])
        data = Dataset(X, np.array([2]), n_classes=3)
        b = np.array([0.1, 0.2, -0.3])
        b -= b.mean()
        W = np.array([[0.5, 0.0, -0.5], [0.2, -0.4, 0.2]])
        model = MultiModel(b, W)
        delta = 1.0
        scores = multi_margins(b, W, data)[0]
        gb, gW = multi_smooth_grad(model, data, delta)
        for j in (0, 2):  # wrong classes for label 2
            d = -huber_grad(-scores[j], delta)
            assert gb[j] == pytest.approx(d, rel=1e-14)
            np.testing.assert_allclose(gW[:, j], d * X[0], rtol=1e-14)
        assert gb[1] == 0.0
        np.testing.assert_array_equal(gW[:, 1], np.zeros(2))

    def test_label_kind_required(self):
        data = Dataset(np.zeros((2, 2)), np.array([1, -1]))
        rng = np.random.default_rng(0)
        with pytest.raises(LabelError):
            multi_smooth_grad(feasible_multi(rng, 2, 2), data, 1.0)

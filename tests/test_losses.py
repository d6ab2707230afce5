import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsvm import (
    BinaryModel,
    BinaryObjective,
    Dataset,
    DomainError,
    Hyperparams,
    LabelError,
    MultiModel,
    MultiObjective,
    ShapeError,
    huber_grad,
    huber_loss,
    lipschitz_binary,
    lipschitz_multi,
    objective,
)
from hsvm.errors import ConstraintError
from hsvm.losses import (
    binary_penalty,
    multi_grad_from_margins,
    multi_penalty,
    multi_smooth_from_margins,
    wrong_class_mask,
)

from oracles import _dphi, _phi, finite_diff_grad, reference_binary_grad


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


class TestBinaryIsTheOneColumnCase:
    """The binary formulas are the one-column case of the multi-class ones,
    bit for bit: phi at a margin t is the loss term of the wrong-class score
    -t, phi' is minus that term's coefficient, and the binary penalty is the
    multi-class penalty of one column."""

    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.7, 1.0, 2.0])
    def test_loss_and_grad(self, delta):
        # A third of the margins each in the flat, quadratic and linear
        # pieces, plus the two kinks.
        t = np.concatenate([
            1.0 - delta * np.random.default_rng(3).uniform(-1, 2, 998),
            [1.0, 1.0 - delta]])
        wrong, X = wrong_class_mask(np.array([1]), 2), np.zeros((1, 1))
        value, coef = [], []
        for score in -t:
            scores = np.array([[0.0, score]])
            value.append(multi_smooth_from_margins(scores, wrong, delta))
            coef.append(multi_grad_from_margins(scores, X, wrong, delta)[1][1])
        np.testing.assert_array_equal(huber_loss(t, delta), value)
        np.testing.assert_array_equal(huber_grad(t, delta), -np.array(coef))
        assert huber_loss(t[0], delta) == value[0]
        assert huber_grad(t[0], delta) == -coef[0]

    def test_penalty(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            hp = Hyperparams(*rng.uniform(0, 2, 3))
            w = rng.normal(size=rng.integers(1, 60)) * (rng.random() < 0.9)
            b = rng.normal()
            assert binary_penalty(b, w, hp) == multi_penalty([b], w[:, None],
                                                             hp)


class TestBinaryObjective:
    def test_zero_model_value(self):
        rng = np.random.default_rng(0)
        data = random_binary(rng, 13, 4)
        hp = Hyperparams(1.0, 1.0, 1.0, 1.0)
        parts = objective(BinaryModel(0.0, np.zeros(4)), data, hp)
        assert parts.smooth == pytest.approx(0.5, abs=1e-15)
        assert parts.penalty == 0.0
        assert parts.total == parts.smooth + parts.penalty

    def test_margin_beyond_one_is_free(self):
        data = Dataset(np.array([[2.0]]), np.array([1]))
        hp = Hyperparams(0.0, 0.0, 0.0, 1.0)
        parts = objective(BinaryModel(0.0, np.array([1.0])), data, hp)
        assert parts.smooth == 0.0

    def test_penalty_terms(self):
        data = random_binary(np.random.default_rng(1), 5, 3)
        hp = Hyperparams(2.0, 3.0, 4.0, 1.0)
        w = np.array([1.0, -2.0, 0.5])
        parts = objective(BinaryModel(1.5, w), data, hp)
        expect = 2.0 * 3.5 + 1.5 * (w @ w) + 2.0 * 1.5 ** 2
        assert parts.penalty == pytest.approx(expect, rel=1e-14)

    def test_convexity_sampled(self):
        rng = np.random.default_rng(7)
        data = random_binary(rng, 20, 6)
        hp = Hyperparams(0.3, 0.7, 0.2, 0.5)

        def F(u):
            return objective(BinaryModel(u[0], u[1:]), data, hp).total

        for _ in range(50):
            u = rng.normal(size=7)
            v = rng.normal(size=7)
            theta = rng.uniform()
            mid = theta * u + (1 - theta) * v
            assert F(mid) <= theta * F(u) + (1 - theta) * F(v) + 1e-12

    def test_point_inverts_model(self):
        rng = np.random.default_rng(8)
        obj = BinaryObjective(random_binary(rng, 6, 4), Hyperparams(1, 1, 1))
        u = rng.normal(size=5)
        np.testing.assert_array_equal(obj.point(obj.model(u)), u)

    def test_feature_count_mismatch(self):
        data = random_binary(np.random.default_rng(9), 6, 4)
        with pytest.raises(ShapeError):
            objective(BinaryModel(0.0, np.zeros(3)), data, Hyperparams(1, 1, 1))


def binary_grad_at(data, u, delta):
    obj = BinaryObjective(data, Hyperparams(0.0, 0.0, 0.0, delta))
    return obj.grad(obj.margins(u))


class TestBinaryGrad:
    def test_single_sample_at_zero(self):
        data = Dataset(np.zeros((1, 3)), np.array([1]))
        g = binary_grad_at(data, np.zeros(4), 1.0)
        assert g[0] == pytest.approx(-1.0)
        np.testing.assert_array_equal(g[1:], np.zeros(3))

    def test_flat_region_zero_grad(self):
        rng = np.random.default_rng(3)
        data = random_binary(rng, 8, 4)
        obj = BinaryObjective(data, Hyperparams(0.0, 0.0, 0.0, 1.0))
        g = obj.grad(np.full(8, 2.0))
        np.testing.assert_array_equal(g, np.zeros(5))

    @pytest.mark.parametrize("delta", [0.01, 0.1, 1.0])
    def test_matches_finite_differences(self, delta):
        rng = np.random.default_rng(17)
        data = random_binary(rng, 20, 10)
        obj = BinaryObjective(data, Hyperparams(0.0, 0.0, 0.0, delta))
        u = np.concatenate([[rng.normal()], rng.normal(size=10) * 0.4])
        grad = obj.grad(obj.margins(u))
        fd = finite_diff_grad(lambda v: obj.smooth(obj.margins(v)), u, h=1e-5)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_matches_cache_free_reference(self):
        rng = np.random.default_rng(23)
        data = random_binary(rng, 15, 6)
        b, w = 0.3, rng.normal(size=6) * 0.5
        g = binary_grad_at(data, np.concatenate([[b], w]), 0.7)
        rb, rw = reference_binary_grad(b, w, data, 0.7)
        assert g[0] == pytest.approx(rb, rel=1e-12)
        np.testing.assert_allclose(g[1:], rw, rtol=1e-12, atol=1e-15)

    def test_gradient_lipschitz_bound(self):
        rng = np.random.default_rng(29)
        data = random_binary(rng, 25, 8)
        delta = 0.4
        L = lipschitz_binary(data, delta)
        for _ in range(30):
            u1 = rng.normal(size=9)
            u2 = rng.normal(size=9)
            g1 = binary_grad_at(data, u1, delta)
            g2 = binary_grad_at(data, u2, delta)
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
        parts = objective(MultiModel(np.zeros(4), np.zeros((5, 4))), data, hp)
        assert parts.smooth == pytest.approx(1.5, abs=1e-14)  # (J-1)/2
        assert parts.penalty == 0.0

    def test_infeasible_model_rejected(self):
        data = Dataset(np.zeros((2, 2)), np.array([1, 2]))
        with pytest.raises(ConstraintError):
            MultiModel(b=np.array([1.0, 0.0]), W=np.zeros((2, 2)))

    def test_model_made_infeasible_after_construction_rejected(self):
        data = Dataset(np.ones((2, 2)), np.array([1, 2]))
        hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
        obj = MultiObjective(data, hp)
        model = MultiModel(b=np.zeros(2), W=np.zeros((2, 2)))
        model.W[0, 0] = 1e-6  # row sum 1e-6, beyond the 1e-8 tolerance
        with pytest.raises(ConstraintError):
            objective(model, data, hp)
        with pytest.raises(ConstraintError):
            obj.point(model)
        model.W[0, 0] = 0.0
        model.b = np.array([1e-6, 0.0])
        with pytest.raises(ConstraintError):
            objective(model, data, hp)
        with pytest.raises(ConstraintError):
            obj.point(model)

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
        parts = objective(MultiModel(b, W), data, hp)
        assert parts.smooth == pytest.approx(expect, rel=1e-14)

    def test_total_is_sum(self):
        rng = np.random.default_rng(31)
        data = Dataset(rng.normal(size=(9, 4)), rng.integers(1, 4, 9),
                       n_classes=3)
        hp = Hyperparams(0.2, 0.4, 0.6, 0.8)
        parts = objective(feasible_multi(rng, 4, 3), data, hp)
        assert parts.total == pytest.approx(parts.smooth + parts.penalty,
                                            rel=1e-15)

    def test_point_inverts_model(self):
        rng = np.random.default_rng(32)
        data = Dataset(rng.normal(size=(9, 4)), rng.integers(1, 4, 9),
                       n_classes=3)
        obj = MultiObjective(data, Hyperparams(1, 1, 1))
        model = feasible_multi(rng, 4, 3)
        back = obj.model(obj.point(model))
        np.testing.assert_array_equal(back.b, model.b)
        np.testing.assert_array_equal(back.W, model.W)

    @pytest.mark.parametrize("p, J", [(4, 4), (3, 3)])
    def test_shape_mismatch(self, p, J):
        rng = np.random.default_rng(33)
        data = Dataset(rng.normal(size=(9, 4)), rng.integers(1, 4, 9),
                       n_classes=3)
        with pytest.raises(ShapeError):
            objective(feasible_multi(rng, p, J), data, Hyperparams(1, 1, 1))


def multi_grad_at(data, model, delta):
    """(grad_b, grad_W) of the multi-class smooth part at ``model``."""
    obj = MultiObjective(data, Hyperparams(0.0, 0.0, 0.0, delta))
    g = obj.grad(obj.margins(obj.point(model)))
    return g[:obj.J], g[obj.J:].reshape(-1, obj.J)


class TestMultiGrad:
    def test_far_wrong_scores_zero_grad(self):
        # wrong-class scores far below -1 contribute nothing
        data = Dataset(np.zeros((3, 2)), np.array([1, 2, 3]))
        obj = MultiObjective(data, Hyperparams(0.0, 0.0, 0.0, 1.0))
        m = obj.margins(np.zeros(obj.dim)) - 5.0  # every score at -5
        # scores at +5: wrong-class margins -5, linear region -> nonzero
        assert np.any(obj.grad(m + 10.0)[:3] != 0)
        np.testing.assert_array_equal(obj.grad(m), np.zeros(obj.dim))

    @pytest.mark.parametrize("delta", [0.01, 0.1, 1.0])
    def test_matches_finite_differences(self, delta):
        rng = np.random.default_rng(41)
        n, p, J = 14, 7, 4
        data = Dataset(rng.normal(size=(n, p)), rng.integers(1, J + 1, n),
                       n_classes=J)
        obj = MultiObjective(data, Hyperparams(0.0, 0.0, 0.0, delta))
        u0 = obj.point(feasible_multi(rng, p, J))
        grad = obj.grad(obj.margins(u0))
        fd = finite_diff_grad(lambda v: obj.smooth(obj.margins(v)), u0, h=1e-5)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_single_sample_hand_enumeration(self):
        # one sample, J=3: exactly two wrong-class terms contribute
        X = np.array([[1.0, -1.0]])
        data = Dataset(X, np.array([2]), n_classes=3)
        b = np.array([0.1, 0.2, -0.3])
        b -= b.mean()
        W = np.array([[0.5, 0.0, -0.5], [0.2, -0.4, 0.2]])
        delta = 1.0
        scores = b + X[0] @ W
        gb, gW = multi_grad_at(data, MultiModel(b, W), delta)
        for j in (0, 2):  # wrong classes for label 2
            d = -huber_grad(-scores[j], delta)
            assert gb[j] == pytest.approx(d, rel=1e-14)
            np.testing.assert_allclose(gW[:, j], d * X[0], rtol=1e-14)
        assert gb[1] == 0.0
        np.testing.assert_array_equal(gW[:, 1], np.zeros(2))

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_fused_kernel_matches_phi_at_the_kinks(self, delta):
        # The negated scores t = -s sit at phi's kinks t = 1 (s = -1) and
        # t = 1 - delta (s = delta - 1), a hair either side of them, or
        # anywhere. One call gives the value, the gradient and the dual
        # loss term (1/n) sum (c - delta c^2 / 2), c = -phi'(-s) on the
        # wrong classes; the line search's value call agrees bit for bit.
        rng = np.random.default_rng(44)
        n, p, J = 40, 6, 4
        labels = rng.integers(1, J + 1, n)
        X = rng.normal(size=(n, p))
        kinks = np.array([-1.0, delta - 1.0])
        pool = np.concatenate([kinks, kinks + 1e-9, kinks - 1e-9,
                               3.0 * rng.normal(size=6)])
        scores = rng.choice(pool, size=(n, J))
        assert np.isin(kinks, scores).all()
        wrong = wrong_class_mask(labels, J)
        value, gb, gW, dual = multi_grad_from_margins(scores, X, wrong, delta)
        phi = _phi(-scores, delta) * wrong
        c = -_dphi(-scores, delta) * wrong
        assert value == pytest.approx(phi.sum() / n, rel=1e-14)
        assert multi_smooth_from_margins(scores, wrong, delta) == value
        np.testing.assert_allclose(gb, c.sum(axis=0) / n, rtol=1e-14)
        np.testing.assert_allclose(gW, X.T @ c / n, rtol=1e-12, atol=1e-15)
        assert dual == pytest.approx((c - 0.5 * delta * c * c).sum() / n,
                                     rel=1e-14)
        # exactly at the kinks: phi(1) = 0, c = 0; phi(1 - delta) =
        # delta / 2, c = 1
        at = np.array([[-1.0, delta - 1.0]])
        value, gb, _, dual = multi_grad_from_margins(
            at, np.zeros((1, 1)), np.ones((1, 2)), delta)
        assert value == 0.5 * delta and dual == 1.0 - 0.5 * delta
        np.testing.assert_array_equal(gb, [0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1])  # true class, wrong class
    def test_fused_kernel_rejects_non_finite_scores(self, bad, column):
        scores = np.zeros((3, 2))
        scores[1, column] = bad
        wrong = wrong_class_mask(np.array([1, 1, 2]), 2)
        with pytest.raises(DomainError, match="finite"):
            multi_grad_from_margins(scores, np.ones((3, 2)), wrong, 1.0)
        with pytest.raises(DomainError, match="finite"):
            multi_smooth_from_margins(scores, wrong, 1.0)

    def test_label_kind_required(self):
        data = Dataset(np.zeros((2, 2)), np.array([1, -1]))
        rng = np.random.default_rng(0)
        with pytest.raises(LabelError):
            multi_grad_at(data, feasible_multi(rng, 2, 2), 1.0)
        with pytest.raises(LabelError):
            objective(feasible_multi(rng, 2, 2), data, Hyperparams(1, 1, 1))

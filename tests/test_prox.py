import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsvm import (
    DomainError,
    Hyperparams,
    ShapeError,
    binary_prox_step,
    dual_residual,
    eq_constrained_l1_prox,
    multi_b_step,
    multi_w_step,
    shrink,
)

from hsvm import prox
from hsvm.prox import _zero_sum_prox_rows
from oracles import bruteforce_eq_prox


class TestShrink:
    def test_above_threshold(self):
        assert shrink(3.0, 1.0) == 2.0

    def test_below_threshold(self):
        assert shrink(-0.5, 1.0) == 0.0

    def test_identity_at_zero(self):
        x = np.array([1.5, -2.0, 0.0])
        np.testing.assert_array_equal(shrink(x, 0.0), x)

    def test_negative_threshold_rejected(self):
        with pytest.raises(DomainError):
            shrink(1.0, -0.1)

    @given(st.floats(-100, 100), st.floats(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_magnitude_reduction(self, t, nu):
        s = shrink(t, nu)
        assert abs(s) <= abs(t)
        assert s * t >= 0.0


class TestBinaryProxStep:
    def test_intercept_update(self):
        hp = Hyperparams(0.0, 0.0, 1.0, 1.0)
        b, w = binary_prox_step(2.0, np.zeros(2), 0.0, np.zeros(2), 1.0, hp)
        assert b == pytest.approx(1.0)

    def test_reduces_to_gradient_step(self):
        hp = Hyperparams(0.0, 0.0, 0.0, 1.0)
        rng = np.random.default_rng(0)
        u = rng.normal(size=5)
        g = rng.normal(size=5)
        L = 2.5
        b, w = binary_prox_step(u[0], u[1:], g[0], g[1:], L, hp)
        expect = u - g / L
        np.testing.assert_allclose(np.concatenate([[b], w]), expect, rtol=1e-14)

    def test_zero_fixed_point(self):
        hp = Hyperparams(0.7, 1.0, 1.0, 1.0)
        b, w = binary_prox_step(0.0, np.zeros(3), 0.0, np.zeros(3), 1.0, hp)
        assert b == 0.0
        np.testing.assert_array_equal(w, np.zeros(3))

    def test_shrinkage_before_division(self):
        hp = Hyperparams(1.0, 3.0, 0.0, 1.0)
        _, w = binary_prox_step(0.0, np.array([2.0]), 0.0, np.array([0.0]),
                                1.0, hp)
        # S_1(1*2 - 0)/(1+3) = 1/4
        assert w[0] == pytest.approx(0.25)

    def test_requires_positive_L(self):
        hp = Hyperparams(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            binary_prox_step(0.0, np.zeros(1), 0.0, np.zeros(1), 0.0, hp)


class TestDualResidual:
    def test_antisymmetric(self):
        assert dual_residual(np.array([1.0, -1.0]), 0.5, 0.0) == 0.0

    def test_derived_example(self):
        assert dual_residual(np.array([2.0, 1.0, 0.0]), 0.5, 1.0) == 0.0

    def test_bracketing_signs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.normal(size=rng.integers(2, 8))
            lam = rng.uniform(0.05, 2.0)
            assert dual_residual(z, lam, z.max() + lam) <= 0.0
            assert dual_residual(z, lam, z.min() - lam) >= 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_nonincreasing_in_sigma(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=rng.integers(2, 9))
        lam = rng.uniform(0.05, 2.0)
        sigmas = np.sort(rng.normal(size=6) * 3)
        vals = [dual_residual(z, lam, s) for s in sigmas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def kkt_residuals(z, lam, w, sigma):
    feas = abs(w.sum())
    nz = w != 0
    stat = 0.0
    if nz.any():
        stat = np.abs(w[nz] - z[nz] + sigma + lam * np.sign(w[nz])).max()
    zero_ok = 0.0
    if (~nz).any():
        zero_ok = max(0.0, (np.abs(z[~nz] - sigma) - lam).max())
    return feas, stat, zero_ok


def implied_multiplier(z, lam, w):
    """The sigma a candidate w implies: z_i - w_i - lam sign(w_i) averaged
    over its support, or the midpoint of [max z - lam, min z + lam] when
    w = 0. Any disagreement shows up in the KKT residuals."""
    nz = w != 0
    if nz.any():
        return float(np.mean(z[nz] - w[nz] - lam * np.sign(w[nz])))
    return 0.5 * (z.max() + z.min())


class TestEqConstrainedL1Prox:
    def test_antisymmetric_example(self):
        r = eq_constrained_l1_prox(np.array([1.0, -1.0]), 0.5)
        assert r.sigma == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(r.w, [0.5, -0.5])

    def test_three_point_example(self):
        r = eq_constrained_l1_prox(np.array([2.0, 1.0, 0.0]), 0.5)
        assert r.sigma == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(r.w, [0.5, 0.0, -0.5], atol=1e-15)

    @pytest.mark.parametrize("c", [-3.0, 0.0, 4.2])
    def test_constant_vector_maps_to_zero(self, c):
        r = eq_constrained_l1_prox(np.full(5, c), 0.8)
        np.testing.assert_array_equal(r.w, np.zeros(5))
        assert r.sigma == pytest.approx(c, abs=1e-12)  # flat-segment midpoint

    def test_flat_root_segment_midpoint(self):
        # max z - min z <= 2 lam: gamma' vanishes on [0.9, 1.0], w* = 0
        r = eq_constrained_l1_prox(np.array([0.0, 0.0, 0.0, 1.9]), 1.0)
        np.testing.assert_array_equal(r.w, np.zeros(4))
        assert r.sigma == pytest.approx(0.95, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eq_constrained_l1_prox(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(DomainError):
            eq_constrained_l1_prox(np.array([1.0]), 0.5)

    def test_sigma_in_global_bracket(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = rng.normal(size=rng.integers(2, 13)) * rng.uniform(0.1, 5)
            lam = rng.uniform(0.01, 3.0)
            r = eq_constrained_l1_prox(z, lam)
            assert z.min() - lam - 1e-12 <= r.sigma <= z.max() + lam + 1e-12

    def test_matches_bruteforce_and_kkt(self):
        rng = np.random.default_rng(5)
        for _ in range(1500):
            J = int(rng.integers(2, 13))
            z = rng.normal(size=J) * rng.uniform(0.1, 4)
            if rng.random() < 0.3:
                z = np.round(z, 1)  # provoke breakpoint ties
            if rng.random() < 0.05:
                z = np.full(J, z[0])
            lam = rng.uniform(0.01, 2.5)
            r = eq_constrained_l1_prox(z, lam)
            w_ref, _ = bruteforce_eq_prox(z, lam)
            assert np.abs(r.w - w_ref).max() <= 1e-12
            feas, stat, zero_ok = kkt_residuals(z, lam, r.w, r.sigma)
            assert feas <= 1e-10 and stat <= 1e-10 and zero_ok <= 1e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            J = int(rng.integers(2, 9))
            z1 = rng.normal(size=J) * 2
            z2 = z1 + rng.normal(size=J) * rng.uniform(0.01, 1)
            lam = rng.uniform(0.05, 1.5)
            w1 = eq_constrained_l1_prox(z1, lam).w
            w2 = eq_constrained_l1_prox(z2, lam).w
            assert np.linalg.norm(w1 - w2) <= np.linalg.norm(z1 - z2) + 1e-12


class TestMultiBStep:
    def test_two_class_halving(self):
        b = multi_b_step(np.array([1.0, -1.0]), np.zeros(2), 1.0, 1.0)
        np.testing.assert_allclose(b, [0.5, -0.5], rtol=1e-14)

    def test_feasible_fixed_point(self):
        b_hat = np.array([0.4, -0.1, -0.3])
        b = multi_b_step(b_hat, np.zeros(3), 2.0, 0.0)
        np.testing.assert_allclose(b, b_hat, atol=1e-14)

    def test_zero_sum_output(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            J = int(rng.integers(2, 9))
            b = multi_b_step(rng.normal(size=J), rng.normal(size=J),
                             rng.uniform(0.5, 5), rng.uniform(0, 2))
            assert abs(b.sum()) <= 1e-12

    def test_matches_elimination_oracle(self):
        # eliminate b_J = -(b_1+...+b_{J-1}) and solve the dense normal
        # equations of the reduced quadratic directly
        rng = np.random.default_rng(4)
        for _ in range(30):
            J = 4
            b_hat = rng.normal(size=J)
            g = rng.normal(size=J)
            L = rng.uniform(0.5, 4)
            lam3 = rng.uniform(0.0, 2)
            P = np.vstack([np.eye(J - 1), -np.ones((1, J - 1))])
            # min over r: <g, Pr - b_hat... quadratic in r
            A = (L + lam3) * (P.T @ P)
            rhs = P.T @ (L * b_hat - g)
            r = np.linalg.solve(A, rhs)
            expect = P @ r
            got = multi_b_step(b_hat, g, L, lam3)
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-14)

    def test_minimizer_property(self):
        # output beats feasible perturbations on the subproblem objective
        rng = np.random.default_rng(6)
        J = 5
        b_hat = rng.normal(size=J)
        g = rng.normal(size=J)
        L, lam3 = 2.0, 0.7

        def obj(b):
            return g @ (b - b_hat) + 0.5 * L * ((b - b_hat) @ (b - b_hat)) \
                + 0.5 * lam3 * (b @ b)

        b_star = multi_b_step(b_hat, g, L, lam3)
        for _ in range(40):
            d = rng.normal(size=J)
            d -= d.mean()
            assert obj(b_star) <= obj(b_star + 0.1 * d) + 1e-12


class TestMultiWStep:
    def test_zero_input_zero_output(self):
        W = multi_w_step(np.zeros((4, 3)), np.zeros((4, 3)), 1.0, 0.5, 0.5)
        np.testing.assert_array_equal(W, np.zeros((4, 3)))

    @pytest.mark.parametrize("grad_shape", [(4, 2), (3, 3), (12,)])
    def test_shape_mismatch_raises_shape_error(self, grad_shape):
        with pytest.raises(ShapeError, match="must be matching matrices"):
            multi_w_step(np.zeros((4, 3)), np.zeros(grad_shape), 1.0, 0.5, 0.5)

    def test_single_row_equals_scalar_prox(self):
        rng = np.random.default_rng(8)
        W_hat = rng.normal(size=(1, 5))
        g = rng.normal(size=(1, 5))
        L, l1, l2 = 2.0, 0.6, 0.3
        W = multi_w_step(W_hat, g, L, l1, l2)
        z = (L * W_hat[0] - g[0]) / (L + l2)
        ref = eq_constrained_l1_prox(z, l1 / (L + l2)).w
        np.testing.assert_allclose(W[0], ref, atol=1e-14)

    def test_rows_match_scalar_path(self):
        # every row against the brute-force oracle and the KKT conditions
        rng = np.random.default_rng(10)
        for _ in range(20):
            p, J = int(rng.integers(1, 8)), int(rng.integers(2, 7))
            W_hat = rng.normal(size=(p, J))
            g = rng.normal(size=(p, J))
            L = rng.uniform(0.5, 4)
            l1, l2 = rng.uniform(0.01, 1), rng.uniform(0, 1)
            W = multi_w_step(W_hat, g, L, l1, l2)
            lam = l1 / (L + l2)
            for i in range(p):
                z = (L * W_hat[i] - g[i]) / (L + l2)
                w_ref, _ = bruteforce_eq_prox(z, lam)
                assert np.abs(W[i] - w_ref).max() <= 1e-12
                sigma = implied_multiplier(z, lam, W[i])
                assert max(kkt_residuals(z, lam, W[i], sigma)) <= 1e-10

    @pytest.mark.parametrize("J", [20, 50])
    def test_kkt_beyond_oracle_range(self, J):
        # J too large for the brute-force oracle: certify by KKT alone, on
        # rounded rows (breakpoint ties) and constant rows (flat roots)
        rng = np.random.default_rng(J)
        Z = rng.normal(size=(300, J)) * rng.uniform(0.1, 5, size=(300, 1))
        Z[100:200] = np.round(Z[100:200], 1)
        Z[200:220] = Z[200:220, :1]
        Z[220:240] = np.round(Z[220:240])
        for lam in (0.01, 0.3, 2.5):
            W = multi_w_step(Z, np.zeros_like(Z), 1.0, lam, 0.0)
            assert np.all(W[200:220] == 0.0)
            for z, w in zip(Z, W):
                sigma = implied_multiplier(z, lam, w)
                assert max(kkt_residuals(z, lam, w, sigma)) <= 1e-10

    @staticmethod
    def mixed_rows(rng, J, lam):
        """Live, flat and constant rows, and rows whose spread is 2 lam,
        2 lam (1 -/+ 1e-15) or 2 lam (1 -/+ 1e-12) exactly, or just below
        that at 2 lam (1 - 1e-11); each row also offset by 2^20."""
        rows = [rng.normal(size=(20, J)),
                rng.uniform(0, lam, size=(20, J)),
                np.repeat(rng.normal(size=(5, 1)), J, axis=1)]
        for spread in 2 * lam * np.array([1.0, 1 - 1e-15, 1 + 1e-15,
                                          1 - 1e-12, 1 + 1e-12, 1 - 1e-11]):
            z = rng.uniform(0, spread, size=(4, J))
            z[:, 0], z[:, -1] = 0.0, spread
            rows.append(z)
        Z = np.vstack(rows)
        return rng.permutation(np.vstack([Z, Z + 2.0 ** 20]))

    # multi_w_step(W_hat, grad_W, L, lambda1, lambda2) with the threshold
    # lam = lambda1 / (L + lambda2) = lambda1 / 2. Then Z = (W_hat - grad_W)
    # / 2, and grad_W = -W_hat gives Z = W_hat exactly.
    L, L2 = 1.0, 1.0

    @classmethod
    def guess_rows(cls, rng, J, lam, k=12):
        """(W_hat, grad_W, kinds) whose rows of Z = (L W_hat - grad_W) /
        (L + L2) are live and distinct, and whose W_hat rows are a right
        sign guess ("right"), a wrong one with both signs ("flipped", or
        "wider" with a zero of the solution guessed nonzero), a guess with
        one sign ("one_sign"), a constant or zero row ("constant"), a zero
        row where every |z_i| <= lam and max z - min z = 2 lam ("edge"), a
        row offset by 2^20 ("offset") or a NaN ("nan")."""
        def target(zero=False):
            # A zero-sum w with sign pattern s, then a z whose prox is w:
            # z_i = sigma + w_i + lam s_i, or within 0.9 lam of sigma.
            s = rng.choice([-1.0, 0.0, 1.0], (k, J), p=[0.4, 0.2, 0.4])
            s[:, :2] = 1.0, -1.0
            if zero:
                s[:, 2] = 0.0
            s = rng.permuted(s, axis=1)
            w = s * rng.uniform(0.1, 2.0, (k, J))
            pos, neg = np.where(w > 0, w, 0.0), np.where(w < 0, -w, 0.0)
            w = pos * (neg.sum(axis=1) / pos.sum(axis=1))[:, None] - neg
            sigma = rng.normal(size=(k, 1))
            Zt = sigma + w + lam * s
            Zt[s == 0] = (sigma + rng.uniform(-0.9, 0.9, (k, J)) * lam)[s == 0]
            return Zt, s, w * rng.uniform(0.5, 2.0, (k, 1))

        rows = {}
        Zt, _, scaled = target()
        rows["right"] = scaled, Zt
        Zt, _, scaled = target()
        rows["flipped"] = -scaled, Zt
        if J > 2:
            Zt, s, scaled = target(zero=True)
            noise = 1e-3 * rng.choice([-1.0, 1.0], (k, J))
            rows["wider"] = np.where(s == 0, noise, scaled), Zt
        Zt = target()[0]
        one_sign = np.abs(rng.normal(size=(k, J)))
        one_sign *= rng.choice([-1.0, 1.0], (k, 1))
        one_sign[::2, 1:] = 0.0
        rows["one_sign"] = one_sign, Zt
        Zt = target()[0]
        rows["constant"] = np.repeat(rng.choice([0.0, 0.7, -2.0], (k, 1)), J,
                                     axis=1), Zt
        Zt, _, scaled = target()
        scaled[:, rng.integers(J)] = np.nan
        rows["nan"] = scaled, Zt
        W_hat = {name: Wh for name, (Wh, _) in rows.items()}
        grad = {name: np.nan_to_num(cls.L * Wh - (cls.L + cls.L2) * Zt)
                for name, (Wh, Zt) in rows.items()}
        # An empty guess passes the sign test on an edge row, whose w* is 0;
        # it must still go through the kernel.
        edge = rng.permuted(np.hstack([np.full((k, 1), -lam),
                                       np.full((k, 1), lam),
                                       rng.uniform(-lam, lam, (k, J - 2))]),
                            axis=1)
        W_hat["edge"], grad["edge"] = np.zeros((k, J)), -2.0 * edge
        W_hat["offset"] = target()[0] + 2.0 ** 20
        grad["offset"] = -W_hat["offset"]
        kinds = np.repeat(list(W_hat), k)
        return (np.vstack(list(W_hat.values())),
                np.vstack(list(grad.values())), kinds)

    @classmethod
    def traced_step(cls, monkeypatch, W_hat, grad, lam):
        """multi_w_step at threshold lam; the kernel applied to its Z; and
        which rows of Z multi_w_step sent through the kernel."""
        seen = set()

        def kernel(Z, lam):
            seen.update(row.tobytes() for row in Z)
            return _zero_sum_prox_rows(Z, lam)

        monkeypatch.setattr(prox, "_zero_sum_prox_rows", kernel)
        W = multi_w_step(W_hat, grad, cls.L, lam * (cls.L + cls.L2), cls.L2)
        monkeypatch.undo()
        Z = (cls.L * W_hat - grad) / (cls.L + cls.L2)
        sent = np.array([row.tobytes() in seen for row in Z], dtype=bool)
        return W, Z, _zero_sum_prox_rows(Z, lam)[0], sent

    @pytest.mark.parametrize("J", [2, 4, 50])
    def test_flat_row_skip_equals_kernel(self, J, monkeypatch):
        # Flat rows and every row sent through the kernel equal the
        # kernel's output bit for bit. A row solved from its W_hat guess has
        # the kernel's zero set and signs, is within 4 ulp of the row's
        # largest |z| of the kernel, and passes the KKT check.
        rng = np.random.default_rng(J + 300)
        solved = 0
        for lam in (0.3, 1e-3, 7.0):
            Z0 = self.mixed_rows(rng, J, lam)
            W_hat, grad, _ = self.guess_rows(rng, J, lam)
            W_hat, grad = np.vstack([W_hat, Z0]), np.vstack([grad, -Z0])
            W, Z, K, sent = self.traced_step(monkeypatch, W_hat, grad, lam)
            exact = sent | ~W.any(axis=1)
            assert np.array_equal(W[exact], K[exact], equal_nan=True)
            solved += np.count_nonzero(~exact)
            for z, w, k in zip(Z[~exact], W[~exact], K[~exact]):
                assert np.array_equal(np.sign(w), np.sign(k))
                assert np.abs(w - k).max() <= 4 * np.spacing(np.abs(z).max())
                sigma = implied_multiplier(z, lam, w)
                assert max(kkt_residuals(z, lam, w, sigma)) <= 1e-10
        assert solved > 0

    @pytest.mark.parametrize("J", [2, 4, 50])
    def test_layout_keeps_rows_and_kernel_calls(self, J, monkeypatch):
        # M-PGH passes F-order matrices: the same rows go through the
        # kernel as for C-order ones, and W agrees within 4 ulp of each
        # row's largest |z|, in the layout of the inputs.
        rng = np.random.default_rng(J + 600)
        for lam in (0.3, 1e-3, 7.0):
            Z0 = self.mixed_rows(rng, J, lam)
            W_hat, grad, _ = self.guess_rows(rng, J, lam)
            W_hat, grad = np.vstack([W_hat, Z0]), np.vstack([grad, -Z0])
            W, Z, _, sent = self.traced_step(monkeypatch, W_hat, grad, lam)
            W_F, _, _, sent_F = self.traced_step(
                monkeypatch, np.asfortranarray(W_hat),
                np.asfortranarray(grad), lam)
            assert W_F.flags["F_CONTIGUOUS"]
            np.testing.assert_array_equal(sent_F, sent)
            nan = np.isnan(W).any(axis=1)
            np.testing.assert_array_equal(np.isnan(W_F).any(axis=1), nan)
            ulp = 4 * np.spacing(np.abs(Z[~nan]).max(axis=1))
            assert np.all(np.abs(W_F - W)[~nan].max(axis=1) <= ulp)

    def test_rows_below_the_flat_line_skip_the_kernel(self, monkeypatch):
        seen = []

        def kernel(Z, lam):
            seen.append(Z.max(axis=1) - Z.min(axis=1) - 2 * lam * (1 - 1e-12))
            return _zero_sum_prox_rows(Z, lam)

        monkeypatch.setattr(prox, "_zero_sum_prox_rows", kernel)
        rng = np.random.default_rng(12)
        for J in (2, 4, 50):
            Z = self.mixed_rows(rng, J, 0.3)
            seen.clear()
            multi_w_step(Z, np.zeros_like(Z), 1.0, 0.3, 0.0)
            sent = np.concatenate(seen)
            assert sent.size > 0 and np.all(sent >= 0.0)

    @pytest.mark.parametrize("J", [2, 4, 50])
    def test_kernel_sees_only_rows_whose_guess_fails(self, J, monkeypatch):
        rng = np.random.default_rng(J + 400)
        for lam in (0.3, 1e-3):
            W_hat, grad, kinds = self.guess_rows(rng, J, lam)
            W, Z, K, sent = self.traced_step(monkeypatch, W_hat, grad, lam)
            right = kinds == "right"
            assert np.array_equal(np.sign(W_hat[right]), np.sign(K[right]))
            assert not sent[right].any()
            assert sent[~right].all()
            assert set(kinds) >= {"flipped", "one_sign", "constant", "edge",
                                  "offset", "nan"}
            assert not W[kinds == "edge"].any()
            assert np.isnan(W[kinds == "nan"]).all(axis=1).all()

    @pytest.mark.parametrize("J", [2, 4, 50])
    def test_zero_W_hat_sends_the_live_rows_straight_to_the_kernel(
            self, J, monkeypatch):
        # At a fit's first step W_hat = 0 and every guess is empty: the
        # live rows go to the kernel in one call, no guess is formed (the
        # kernel's shrink is the only one), and the step is the kernel's.
        rng = np.random.default_rng(J + 500)
        lam = 0.3
        Z = self.mixed_rows(rng, J, lam)
        W_hat, grad = np.zeros_like(Z), -(self.L + self.L2) * Z
        seen, shrinks = [], [0]

        def kernel(Z, lam):
            seen.append(Z.copy())
            return _zero_sum_prox_rows(Z, lam)

        def counted(t, nu):
            shrinks[0] += 1
            return shrink(t, nu)

        monkeypatch.setattr(prox, "_zero_sum_prox_rows", kernel)
        monkeypatch.setattr(prox, "shrink", counted)
        W = multi_w_step(W_hat, grad, self.L, lam * (self.L + self.L2),
                         self.L2)
        monkeypatch.undo()
        spread = Z.max(axis=1) - Z.min(axis=1)
        flat = spread <= 2 * lam * (1 - prox._FLAT_MARGIN)
        assert flat.any() and not flat.all()
        assert len(seen) == 1 and shrinks[0] == 1
        np.testing.assert_array_equal(seen[0], Z[~flat])
        np.testing.assert_array_equal(W[~flat],
                                      _zero_sum_prox_rows(Z[~flat], lam)[0])
        assert not W[flat].any()

    def test_memory_linear_in_classes(self):
        # one p x 2J x J float64 temporary would take 80 MB here
        rng = np.random.default_rng(16)
        W_hat = rng.normal(size=(2000, 50))
        g = rng.normal(size=(2000, 50))
        tracemalloc.start()
        try:
            multi_w_step(W_hat, g, 1.3, 0.2, 0.4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_common_row_offset(self):
        # the prox commutes with adding a constant to a row; dyadic inputs
        # make Z0 + 2^20 exact, so only the kernel's rounding is measured
        rng = np.random.default_rng(18)
        Z0 = np.round(rng.normal(size=(200, 30)) * 1024) / 1024
        zero = np.zeros_like(Z0)
        W0 = multi_w_step(Z0, zero, 1.0, 0.3, 0.0)
        W = multi_w_step(Z0 + 2.0 ** 20, zero, 1.0, 0.3, 0.0)
        assert np.abs(W - W0).max() <= 1e-12
        assert np.abs(W.sum(axis=1)).max() <= 1e-10

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(12)
        W = multi_w_step(rng.normal(size=(50, 4)), rng.normal(size=(50, 4)),
                         1.3, 0.2, 0.4)
        assert np.abs(W.sum(axis=1)).max() <= 1e-10

    def test_lambda1_zero_centers_rows(self):
        rng = np.random.default_rng(14)
        W_hat = rng.normal(size=(6, 3))
        g = rng.normal(size=(6, 3))
        W = multi_w_step(W_hat, g, 2.0, 0.0, 0.5)
        Z = (2.0 * W_hat - g) / 2.5
        np.testing.assert_allclose(W, Z - Z.mean(axis=1, keepdims=True),
                                   rtol=1e-14)

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import hsvm
from hsvm import (
    DomainError,
    RankTable,
    chi2_sf,
    compare_to_control,
    friedman,
    holm,
    normal_cdf,
    wilcoxon_z,
)
from hsvm.stats import average_ranks

mpmath.mp.dps = 40

# Per-dataset ranks of the five binary solvers (1 = most accurate,
# average ranks on ties); column averages are (1.75, 1.85, 3.65, 3.15, 4.6).
RANKS_5 = np.array([
    [1.5, 1.5, 4.0, 3.0, 5.0],
    [2.5, 2.5, 2.5, 2.5, 5.0],
    [2.5, 2.5, 2.5, 2.5, 5.0],
    [1.0, 2.0, 4.0, 3.0, 5.0],
    [2.0, 2.0, 4.5, 4.5, 2.0],
    [1.5, 1.5, 3.0, 4.0, 5.0],
    [1.5, 1.5, 4.0, 3.0, 5.0],
    [1.5, 1.5, 4.0, 4.0, 4.0],
    [2.0, 2.0, 4.0, 2.0, 5.0],
    [1.5, 1.5, 4.0, 3.0, 5.0],
])


class TestTailProbabilities:
    def test_normal_cdf_against_mpmath(self):
        for z in np.linspace(-8, 8, 81):
            ref = float(0.5 * mpmath.erfc(-z / mpmath.sqrt(2)))
            assert abs(normal_cdf(z) - ref) <= 1e-10

    def test_chi2_sf_against_mpmath(self):
        for df in (1, 2, 3, 4, 7, 10, 25):
            for x in (0.01, 0.5, 1.0, 2.0, 5.0, 10.0, 23.56, 50.0, 120.0):
                ref = float(mpmath.gammainc(df / 2, x / 2, mpmath.inf,
                                            regularized=True))
                assert abs(chi2_sf(x, df) - ref) <= 1e-10

    def test_gamma_q_edges(self):
        assert chi2_sf(0.0, 2) == 1.0
        assert chi2_sf(-1.0, 3) == 1.0
        with pytest.raises(DomainError):
            chi2_sf(1.0, 0)

    def test_import_loads_neither_scipy_stats_nor_special(self):
        # chi2_sf imports scipy.special on first use; an eager import of
        # it, or of scipy.stats, would slow every ``import hsvm``. Only
        # sparse input loads scipy.sparse, so a dense session never does.
        code = """
import io, sys
import hsvm
loaded = lambda: sorted({"scipy.stats", "scipy.special", "scipy.sparse"}
                        & set(sys.modules))
print(loaded())
binary = hsvm.gen_binary_gaussian(
    hsvm.SynthSpec("binary_gaussian", n=20, p=6, s=2))
four = hsvm.gen_fourclass(hsvm.SynthSpec("four_class", n=20, p=6, s=2))
hp = hsvm.Hyperparams(0.01, 1.0, 1.0)
for fit, predict, data in ((hsvm.fit_binary, hsvm.predict_binary, binary),
                           (hsvm.fit_multi, hsvm.predict_multi, four)):
    model = fit(data, hp).model
    predict(model, data.X)
    hsvm.evaluate(model, data)
    hsvm.write_libsvm(data, io.StringIO())
print(loaded())
"""
        src = os.path.dirname(os.path.dirname(hsvm.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                             capture_output=True, text=True).stdout
        assert out.split("\n")[:2] == ["[]", "[]"]


class TestAverageRanks:
    def test_plain_order(self):
        np.testing.assert_array_equal(average_ranks([10.0, 30.0, 20.0]),
                                      [1.0, 3.0, 2.0])

    def test_ties_get_midranks(self):
        np.testing.assert_array_equal(average_ranks([1.0, 1.0, 2.0]),
                                      [1.5, 1.5, 3.0])

    def test_descending_for_scores(self):
        np.testing.assert_array_equal(
            average_ranks([0.9, 0.7, 0.9], descending=True), [1.5, 3.0, 1.5])

    def test_row_sum_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            vals = rng.choice([0.1, 0.2, 0.3, 0.4], size=k)
            assert average_ranks(vals).sum() == pytest.approx(k * (k + 1) / 2)

    def test_matches_midrank_definition(self):
        # rank_i = #{x_j < x_i} + (#{x_j == x_i} + 1) / 2
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.integers(0, 5, size=int(rng.integers(1, 12))).astype(float)
            below = (x[None, :] < x[:, None]).sum(axis=1)
            equal = (x[None, :] == x[:, None]).sum(axis=1)
            np.testing.assert_array_equal(average_ranks(x),
                                          below + 0.5 * (equal + 1))
            np.testing.assert_array_equal(average_ranks(x, descending=True),
                                          average_ranks(-x))


class TestWilcoxon:
    def test_paper_z_for_T_half(self):
        # nine wins and one tie: T = 0.5
        a = np.arange(1.0, 11.0)
        b = a - np.array([0.0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
        t, z, p = wilcoxon_z(a, b)
        assert t == pytest.approx(0.5)
        assert z == pytest.approx(-2.7521, abs=1e-4)
        assert p == pytest.approx(0.0060, abs=5e-4)

    def test_paper_z_for_T_three_halves(self):
        # eight wins and two ties: T = 1.5
        a = np.arange(1.0, 11.0)
        d = np.array([0.0, 0.0, 1, 2, 3, 4, 5, 6, 7, 8])
        t, z, p = wilcoxon_z(a, a - d)
        assert t == pytest.approx(1.5)
        assert z == pytest.approx(-2.6502, abs=1e-4)
        assert p == pytest.approx(0.0080, abs=5e-4)

    def test_centered_statistic_gives_zero(self):
        # alternating wins of equal magnitude: R+ = R- = N(N+1)/4
        a = np.zeros(10)
        b = np.array([1.0, -1, 2, -2, 3, -3, 4, -4, 5, -5])
        t, z, p = wilcoxon_z(a, b)
        assert t == pytest.approx(10 * 11 / 4)
        assert z == 0.0
        assert p == pytest.approx(1.0)

    def test_rank_sum_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            a = rng.choice([0.5, 0.6, 0.7, 0.8], size=n)
            b = rng.choice([0.5, 0.6, 0.7, 0.8], size=n)
            d = a - b
            ranks = average_ranks(np.abs(d))
            r_plus = ranks[d > 0].sum() + 0.5 * ranks[d == 0].sum()
            r_minus = ranks[d < 0].sum() + 0.5 * ranks[d == 0].sum()
            assert r_plus + r_minus == pytest.approx(n * (n + 1) / 2)

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            wilcoxon_z(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, bad):
        a = np.array([0.9, 0.8, 0.7, 0.6])
        b = np.array([0.5, bad, 0.5, 0.5])
        with pytest.raises(DomainError, match="finite"):
            wilcoxon_z(a, b)
        with pytest.raises(DomainError, match="finite"):
            wilcoxon_z(b, a)


class TestFriedman:
    def test_reproduces_published_statistic(self):
        table = RankTable(RANKS_5, kind="ranks")
        chi2, p = friedman(table)
        assert chi2 == pytest.approx(23.56, abs=0.01)
        assert p == pytest.approx(9.78e-5, rel=0.02)

    def test_null_configuration(self):
        ranks = np.tile(np.array([2.0, 2.0, 2.0]), (6, 1))
        chi2, p = friedman(RankTable(ranks, kind="ranks"))
        assert chi2 == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0.4, 1.0, size=(8, 4))
        t1 = RankTable(scores)
        t2 = RankTable(np.exp(3.0 * scores))
        assert friedman(t1) == friedman(t2)

    def test_rank_row_validation(self):
        with pytest.raises(DomainError):
            RankTable(np.array([[1.0, 1.0]]), kind="ranks")

    def test_single_method_rejected(self):
        with pytest.raises(DomainError):
            friedman(RankTable(np.ones((3, 1)), kind="ranks"))

    @pytest.mark.parametrize("kind", ["raw_scores", "ranks"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_table_rejected(self, kind, bad):
        values = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
        values[2, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            RankTable(values, kind=kind)


class TestCompareToControl:
    def test_reproduces_published_pvalues(self):
        table = RankTable(RANKS_5, kind="ranks")
        z, p = compare_to_control(table, control=0)
        np.testing.assert_allclose(
            p[1:], [0.8875, 0.0072, 0.0477, 5.57e-5], rtol=0.02)
        assert z[0] == 0.0 and p[0] == 1.0

    def test_equal_ranks_give_unit_p(self):
        ranks = np.tile(np.array([1.5, 1.5, 3.0]), (5, 1))
        z, p = compare_to_control(RankTable(ranks, kind="ranks"), 0)
        assert z[1] == 0.0 and p[1] == 1.0

    def test_z_grows_like_sqrt_n(self):
        row = np.array([1.0, 2.0, 3.0])
        small = RankTable(np.tile(row, (10, 1)), kind="ranks")
        big = RankTable(np.tile(row, (40, 1)), kind="ranks")
        z_small, _ = compare_to_control(small, 0)
        z_big, _ = compare_to_control(big, 0)
        assert z_big[1] == pytest.approx(2.0 * z_small[1], rel=1e-12)

    def test_control_out_of_range(self):
        with pytest.raises(DomainError):
            compare_to_control(RankTable(RANKS_5, kind="ranks"), 9)


class TestHolm:
    P_PUBLISHED = np.array([0.8875, 0.0072, 0.0477, 5.57e-5])

    def test_alpha_005_rejects_two(self):
        reject = holm(self.P_PUBLISHED, 0.05)
        np.testing.assert_array_equal(reject, [False, True, False, True])

    def test_alpha_010_rejects_all_but_largest(self):
        reject = holm(self.P_PUBLISHED, 0.10)
        np.testing.assert_array_equal(reject, [False, True, True, True])

    def test_all_ones_reject_none(self):
        assert not holm(np.ones(5), 0.05).any()

    def test_stops_at_first_failure(self):
        # middle p fails its threshold, so the easy last one stays accepted
        p = np.array([0.001, 0.04, 0.002])
        reject = holm(p, 0.05)  # sorted: 0.001<0.0167, 0.002<0.025, 0.04<0.05
        np.testing.assert_array_equal(reject, [True, True, True])
        p = np.array([0.001, 0.03, 0.4])
        reject = holm(p, 0.05)  # 0.001<0.0167, 0.03>0.025 stop
        np.testing.assert_array_equal(reject, [True, False, False])

    def test_invalid_p_rejected(self):
        with pytest.raises(DomainError):
            holm(np.array([0.5, 1.2]), 0.05)
        with pytest.raises(DomainError):
            holm(np.array([0.001, math.nan]), 0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 7.0, -1.0, math.nan,
                                       math.inf])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(DomainError, match="alpha"):
            holm(self.P_PUBLISHED, alpha)


class TestEndToEndFromScores:
    def test_ranking_pipeline_matches_manual(self):
        scores = np.array([
            [0.90, 0.90, 0.80],
            [0.70, 0.60, 0.50],
            [0.85, 0.95, 0.75],
        ])
        table = RankTable(scores)
        ranks = table.ranks()
        np.testing.assert_array_equal(ranks[0], [1.5, 1.5, 3.0])
        np.testing.assert_array_equal(ranks[1], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ranks[2], [2.0, 1.0, 3.0])
        chi2, _ = friedman(table)
        avg = ranks.mean(axis=0)
        expect = 12 * 3 / (3 * 4) * ((avg ** 2).sum() - 3 * 16 / 4)
        assert chi2 == pytest.approx(expect, rel=1e-12)

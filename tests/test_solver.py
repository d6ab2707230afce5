import math

import numpy as np
import pytest
import scipy.sparse as sp

from hsvm import (
    ConstraintError,
    Dataset,
    DomainError,
    Hyperparams,
    LabelError,
    ShapeError,
    SolverOptions,
    ablation_run,
    check_stop,
    extrapolation_weight,
    fit_binary,
    fit_binary_two_stage,
    fit_multi,
    line_search,
    objective,
)
import hsvm.data
import hsvm.prox
import hsvm.solver
import hsvm.tuning
from hsvm.data import SynthSpec, gen_binary_gaussian, gen_fourclass
from hsvm.model import BinaryModel, MultiModel, evaluate
from hsvm.solver import BinaryObjective, MultiObjective

from oracles import (
    gathered_dual_bound,
    grid_minimize,
    kernel_only_w_step,
    multi_dual_direct,
    projected_subgradient,
)


def binary_data(seed=0, n=60, p=20, s=5, rho=0.0):
    return gen_binary_gaussian(
        SynthSpec(kind="binary_gaussian", n=n, p=p, s=s, rho=rho, seed=seed))


class TestSolverOptions:
    @pytest.mark.parametrize("field", ["tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(DomainError, match="finite"):
            SolverOptions(**{field: value})


class TestExtrapolationWeight:
    def test_first_iteration_is_zero(self):
        assert extrapolation_weight(1.0, 1.618, 1.0, 1.0) == 0.0

    def test_fista_two_steps(self):
        t1 = 0.5 * (1 + math.sqrt(5.0))
        t2 = 0.5 * (1 + math.sqrt(1 + 4 * t1 * t1))
        assert extrapolation_weight(t1, t2, 1.0, 1.0) == pytest.approx(
            0.2817, abs=1e-3)

    def test_step_ratio_cap_binds(self):
        assert extrapolation_weight(100.0, 100.5, 1.0, 4.0) == 0.5

    def test_validation(self):
        with pytest.raises(DomainError):
            extrapolation_weight(0.5, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            extrapolation_weight(1.0, 1.0, 0.0, 1.0)


class TestCheckStop:
    def test_identical_iterates_three_times(self):
        u = np.ones(4)
        counter = 0
        for i in range(3):
            stop, counter = check_stop(1.0, 1.0, 0.0, u, 1e-6, counter)
        assert stop

    def test_counter_resets_on_violation(self):
        u = np.ones(4)
        counter = 0
        _, counter = check_stop(1.0, 1.0, 0.0, u, 1e-6, counter)
        _, counter = check_stop(1.0, 1.0, 0.0, u, 1e-6, counter)
        stop, counter = check_stop(1.0, 0.5, 0.0, u, 1e-6, counter)
        assert not stop and counter == 0

    def test_boundary_counts_as_satisfied(self):
        # ratios exactly equal to tol pass (<=, not <)
        tol = 1e-6
        F_prev = 1.0
        F_curr = F_prev - tol * (1 + F_prev)
        u_prev = np.zeros(1)
        step_norm = tol * (1 + 0.0)
        counter = 0
        for _ in range(3):
            stop, counter = check_stop(F_prev, F_curr, step_norm, u_prev,
                                       tol, counter)
        assert stop


class _Quadratic:
    """f(u) = (c/2)|u - target|^2 with identity margins and no penalty: a
    duck-typed problem for the line search. The majorization with step
    constant L holds exactly when L >= c."""

    def __init__(self, target, c=1.0, L_global=1.0):
        self.target = np.asarray(target, dtype=float)
        self.c = c
        self.dim = self.target.size
        self.L_global = L_global
        self.L0 = L_global

    def margins(self, u):
        return u

    def smooth(self, m):
        return 0.5 * self.c * float(np.sum((m - self.target) ** 2))

    def grad(self, m):
        return self.c * (m - self.target)

    def prox(self, u_hat, grad, L):
        return u_hat - grad / L


class _Scripted(_Quadratic):
    """A quadratic whose every step lands on its minimiser, with scripted
    penalty values (1 once the script ends) and dual bounds (-inf off the
    script), both keyed by their call number from 1. It tests the loop's
    bookkeeping of the gap on its own."""

    def __init__(self, penalties, bounds):
        super().__init__(np.ones(2))
        self.penalties, self.bounds = list(penalties), dict(bounds)
        self.calls = {"smooth_grad": 0, "penalty": 0}

    def smooth_grad(self, m, *held):
        self.calls["smooth_grad"] += 1
        bound = self.bounds.get(self.calls["smooth_grad"], -math.inf)
        return self.smooth(m), self.grad(m), bound, held

    def penalty(self, u):
        self.calls["penalty"] += 1
        k = self.calls["penalty"]
        return float(self.penalties[k - 1]) if k <= len(self.penalties) else 1.0

    def nnz(self, u):
        return 0

    def model(self, u):
        return u.copy()

    def enter(self, u):
        return u

    full = model
    working_sets, support, certifies = 0, None, False


class TestLineSearch:
    def test_quadratic_accepts_exact_curvature(self):
        # f(u) = (c/2)|u|^2 has the majorization tight at L = c
        c = 3.0
        u_hat = np.array([2.0, -1.0])
        grad = c * u_hat
        f_hat = 0.5 * c * float(u_hat @ u_hat)

        prob = _Quadratic(np.zeros(2), c, L_global=10 * c)
        L, cand, m_cand, f_cand, gap, evals = line_search(prob, u_hat, f_hat,
                                                          grad, c)
        assert L == c and evals == 1
        assert gap >= -1e-12 * (1 + abs(f_hat))

    def test_cap_accepts_immediately(self):
        u_hat = np.zeros(2)
        grad = np.ones(2)
        # curvature far above the cap
        prob = _Quadratic(np.zeros(2), 200.0, L_global=5.0)

        L, _, _, _, _, evals = line_search(prob, u_hat, 0.0, grad, 5.0)
        assert L == 5.0 and evals == 1

    def test_grows_until_sufficient(self):
        c = 40.0
        u_hat = np.array([1.0])
        grad = c * u_hat
        f_hat = 0.5 * c

        prob = _Quadratic(np.zeros(1), c, L_global=1000.0)
        L, _, _, _, _, evals = line_search(prob, u_hat, f_hat, grad, 1.0)
        assert L >= c and evals > 1
        assert L <= 1000.0

    def test_returns_margins_of_accepted_candidate(self):
        prob = _Quadratic(np.array([1.0, -2.0, 0.5]), c=3.0, L_global=4.0)
        u_hat = np.zeros(3)
        m_hat = prob.margins(u_hat)
        _, cand, m_cand, f_cand, _, evals = line_search(
            prob, u_hat, prob.smooth(m_hat), prob.grad(m_hat), 0.5)
        assert evals > 1
        np.testing.assert_array_equal(m_cand, prob.margins(cand))
        assert f_cand == prob.smooth(m_cand)


class TestEnginePasses:
    """One iteration of ``_run_pg_loop`` that re-extrapolates and then
    re-updates, on a scripted problem: the quadratic with target (1, 2),
    L0 = 2, scripted penalties, and a line search that backtracks a
    scripted number of times per call (7 on call 2, once on call 4).

    - k = 1: one plain pass, omega = 0, at L0.
    - k = 2: the plain pass backtracks past the extrapolation cap, the
      re-extrapolated pass takes the tighter weight, and its candidate
      raises F (penalty 30), so a re-update follows from u. That one raises
      F too, and no second re-update follows.
    - k = 3: omega = 0 after the restart; the candidate raises F again and
      one re-update follows.
    """

    BACKTRACKS = {2: 7, 4: 1}
    PENALTIES = [5, 4, 30, 30, 40, 3]

    def run(self, monkeypatch, bounds):
        prob = _Scripted(penalties=self.PENALTIES, bounds=bounds)
        prob.target = np.array([1.0, 2.0])
        prob.L0, prob.L_global = 2.0, 100.0
        passes = []

        def backtracking(prob, u_hat, f_hat, grad, L_start):
            n = self.BACKTRACKS.get(len(passes) + 1, 0)
            passes.append((u_hat.copy(), L_start))
            L = L_start
            for _ in range(n):
                L = min(hsvm.solver.ETA * L, prob.L_global)
            cand = prob.prox(u_hat, grad, L)
            m_cand = prob.margins(cand)
            return L, cand, m_cand, prob.smooth(m_cand), 0.0, n + 1

        monkeypatch.setattr(hsvm.solver, "line_search", backtracking)
        res = hsvm.solver._run_pg_loop(
            prob, SolverOptions(max_iter=3, record_iterates=True))
        return prob, res, passes

    def test_each_pass_takes_its_weight_and_step_constant(self, monkeypatch):
        prob, res, passes = self.run(monkeypatch, {})
        eta = hsvm.solver.ETA
        L7 = 2.0
        for _ in range(7):
            L7 *= eta
        L8 = L7 * eta
        t1 = 0.5 * (1.0 + math.sqrt(5.0))
        t2 = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t1 * t1))
        assert (t1 - 1.0) / t2 > math.sqrt(2.0 / L7)  # the cap binds
        # iteration of each pass, and the expected omega and L_start
        want = [(1, 0.0, 2.0),
                (2, (t1 - 1.0) / t2, 2.0),
                (2, math.sqrt(2.0 / L7), L7),
                (2, 0.0, L7),
                (3, 0.0, L8),
                (3, 0.0, L8)]
        assert len(passes) == len(want)
        us = [np.zeros(2)] + res.iterates
        for (u_hat, L_start), (k, omega, L_want) in zip(passes, want):
            u, u_prev = us[k - 1], us[max(k - 2, 0)]
            d = u - u_prev
            got = float((u_hat - u) @ d / (d @ d)) if d.any() else 0.0
            np.testing.assert_allclose(u_hat, u + got * d, rtol=0, atol=1e-15)
            assert got == pytest.approx(omega, rel=1e-12, abs=1e-15)
            assert L_start == L_want
        assert res.iterations == 3
        assert res.trace.column("restarted").tolist() == [False, True, True]
        assert res.trace.column("omega").tolist() == [0.0, 0.0, 0.0]
        assert res.trace.column("L").tolist() == [2.0, L8, L8]
        assert res.trace.column("ls_evals").tolist() == [1, 8 + 1 + 2, 1 + 1]
        # iterations + re-extrapolated passes + re-updates
        assert res.grad_products == 3 + 1 + 2 == prob.calls["smooth_grad"]

    @pytest.mark.parametrize("best", range(1, 7))
    def test_best_bound_is_kept_from_every_pass(self, monkeypatch, best):
        bounds = {call: 0.25 for call in range(1, 7)}
        bounds[best] = 0.5
        _, res, passes = self.run(monkeypatch, bounds)
        assert len(passes) == 6
        F = res.final_objective
        assert res.gap == (F - 0.5) / F


class TestFitBinary:
    def test_symmetric_instance_stays_at_zero(self):
        X = np.array([[1.0], [-1.0]])
        data = Dataset(X, [1, -1])
        hp = Hyperparams(1.5, 1.0, 1.0, 1.0)
        res = fit_binary(data, hp)
        assert res.model.b == 0.0
        np.testing.assert_array_equal(res.model.w, np.zeros(1))
        assert res.converged

    def test_one_sample_starts_at_the_global_constant(self):
        # n = 1 is the one case where the default start 2 L_f / n exceeds
        # L_f; the line search caps it, so the first step takes L_f
        data = Dataset(np.array([[1.0, -2.0, 0.5]]), [1])
        hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
        res = fit_binary(data, hp)
        L_global = BinaryObjective(data, hp).L_global
        assert res.trace.column("L")[0] == L_global
        assert res.trace.column("L").max() == L_global

    def test_tiny_instance_matches_grid_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(4, 1))
        y = np.array([1, 1, -1, -1])
        data = Dataset(X, y)
        hp = Hyperparams(0.2, 0.5, 0.5, 1.0)
        res = fit_binary(data, hp, SolverOptions(tol=1e-10))

        def obj(u):
            from hsvm.model import BinaryModel
            return objective(
                BinaryModel(u[0], np.array([u[1]])), data, hp).total

        _, best, boundary = grid_minimize(obj, [(-3, 3), (-3, 3)], 1e-3)
        assert not boundary
        assert res.final_objective <= best + 1e-6

    def test_monotone_objective(self):
        data = binary_data(seed=1)
        res = fit_binary(data, Hyperparams(0.1, 1.0, 1.0, 1.0))
        F = res.trace.column("F")
        assert np.all(np.diff(F) <= 1e-12)

    def test_nonmonotone_can_oscillate(self):
        data = binary_data(seed=2, n=200, p=40, s=8)
        res = ablation_run(data, Hyperparams(0.05, 0.1, 0.1, 1.0),
                           "backtrack_no_monotone")
        assert not res.trace.column("restarted").any()

    def test_rejects_multiclass(self):
        data = Dataset(np.zeros((3, 2)), [1, 2, 3])
        with pytest.raises(LabelError):
            fit_binary(data, Hyperparams(0.1, 1, 1, 1))

    def test_label_flip_symmetry(self):
        data = binary_data(seed=4)
        flipped = Dataset(np.asarray(-data.X if not hasattr(data.X, "todense")
                                     else -data.X.todense()), -data.labels)
        hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
        r1 = fit_binary(data, hp)
        r2 = fit_binary(flipped, hp)
        assert r1.final_objective == pytest.approx(r2.final_objective,
                                                   rel=1e-9)

    def test_accepted_steps_satisfy_majorization(self):
        data = binary_data(seed=5)
        res = fit_binary(data, Hyperparams(0.1, 1.0, 1.0, 1.0))
        gaps = res.trace.column("suff_gap")
        assert np.all(gaps >= -1e-10 * (1 + np.abs(res.trace.column("F"))))

    def test_omega_respects_step_ratio_cap(self):
        data = binary_data(seed=6, n=150, p=30)
        res = fit_binary(data, Hyperparams(0.05, 0.5, 0.5, 1.0))
        L = res.trace.column("L")
        om = res.trace.column("omega")
        caps = np.sqrt(np.concatenate([[L[0]], L[:-1]]) / L)
        assert np.all(om <= caps + 1e-12)

    def test_L_never_exceeds_global_and_nondecreasing(self):
        data = binary_data(seed=7)
        from hsvm.losses import lipschitz_binary
        L_f = lipschitz_binary(data, 1.0)
        res = fit_binary(data, Hyperparams(0.1, 1.0, 1.0, 1.0))
        L = res.trace.column("L")
        assert np.all(L <= L_f + 1e-12)
        assert np.all(np.diff(L) >= -1e-12)

    def test_margin_products_bounded_by_evals(self):
        data = binary_data(seed=8)
        res = fit_binary(data, Hyperparams(0.1, 1.0, 1.0, 1.0))
        products = res.trace.column("n_products")
        evals = res.trace.column("ls_evals")
        assert np.all(products <= evals)
        assert np.all(products >= 1)

    def test_converged_flag_consistent(self):
        data = binary_data(seed=9)
        res = fit_binary(data, Hyperparams(0.1, 1, 1, 1),
                         SolverOptions(max_iter=3))
        assert not res.converged and res.stop_reason == "max_iter"
        assert res.iterations == 3

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_starts_from_u0_at_L0(self, layout):
        # from the optimum the fit stays there, at the step constant given
        data = binary_data(seed=4, n=100, p=3200, s=5)
        if layout == "csr":
            data = _as_csr(data)
        hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
        opts = SolverOptions(tol=1e-10)
        ref = fit_binary(data, hp, opts)
        u0 = np.concatenate([[ref.model.b], ref.model.w])
        L0 = ref.trace.column("L")[-1]
        res = fit_binary(data, hp, opts, u0=u0, L0=L0)
        assert res.converged and res.iterations <= ref.iterations // 4
        assert res.trace.column("L")[0] == L0
        assert res.final_objective <= ref.final_objective * (1 + 1e-12)
        np.testing.assert_array_equal(np.flatnonzero(res.model.w),
                                      np.flatnonzero(ref.model.w))
        with pytest.raises(ShapeError):
            fit_binary(data, hp, opts, u0=u0[:-1])

    @pytest.mark.parametrize("entry", [0, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
    def test_start_point_must_have_a_finite_objective(self, bad, entry):
        # a non-finite u0 is rejected as it enters; a finite one whose
        # penalty overflows is rejected before the first step
        data = binary_data(seed=0, n=50, p=300, s=5)
        u0 = np.zeros(301)
        u0[entry] = bad
        with pytest.raises(DomainError, match="finite"):
            fit_binary(data, Hyperparams(0.05, 1.0, 1.0, 1.0), u0=u0)


class TestFitBinaryTwoStage:
    def test_matches_single_stage_objective(self):
        data = binary_data(seed=11, n=80, p=200, s=6)
        hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
        r1 = fit_binary(data, hp)
        r2 = fit_binary_two_stage(data, hp)
        assert not r2.two_stage_fallback
        rel = abs(r1.final_objective - r2.final_objective) / r1.final_objective
        assert rel <= 1e-4

    def test_no_sparsity_degenerates_gracefully(self):
        data = binary_data(seed=12, n=40, p=10, s=3)
        hp = Hyperparams(0.0, 1.0, 1.0, 1.0)
        res = fit_binary_two_stage(data, hp)
        ref = fit_binary(data, hp)
        assert abs(res.final_objective - ref.final_objective) \
            <= 1e-4 * abs(ref.final_objective)
        assert res.support.size == 10

    def test_stage_boundary_marked(self, monkeypatch):
        # the screen at w = 0 keeps more than p/32 features, so the fit
        # starts full width, and a later full product forms the block
        grad_calls = [0]

        def counted(name):
            method = getattr(BinaryObjective, name)

            def wrapper(prob, *args):
                grad_calls[0] += 1
                return method(prob, *args)
            return wrapper

        for name in ("grad", "smooth_grad"):
            monkeypatch.setattr(BinaryObjective, name, counted(name))
        data = binary_data(seed=0, n=200, p=4000, s=10)
        res = fit_binary_two_stage(data, Hyperparams(0.1, 1.0, 1.0, 1.0))
        stages = res.trace.column("stage")
        assert stages[0] == 1 and stages[-1] >= 2
        assert set(np.diff(stages)) <= {0, 1}
        ks = res.trace.column("k")
        np.testing.assert_array_equal(ks, np.arange(1, res.iterations + 1))
        # every base's transpose product (smooth_grad), the screen's
        # included, and no other (grad)
        assert res.grad_products == grad_calls[0]

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("p, s, lambda1", [
        (4000, 10, 0.2),    # the screen forms the block every iteration keeps
        (4000, 10, 0.1),    # full width at first, then a block
        (2000, 20, 0.005)])  # no block: 640 live features, over p/32
    def test_one_path_with_fit_binary(self, layout, p, s, lambda1):
        data = binary_data(seed=0, n=200, p=p, s=s)
        if layout == "csr":
            data = _as_csr(data)
        hp = Hyperparams(lambda1, 1.0, 1.0, 1.0)
        plain = fit_binary(data, hp)
        res = fit_binary_two_stage(data, hp)
        assert res.converged and res.iterations == plain.iterations
        assert res.final_objective == plain.final_objective
        assert res.gap == plain.gap and res.model.b == plain.model.b
        np.testing.assert_array_equal(res.model.w, plain.model.w)
        np.testing.assert_array_equal(res.support, plain.support)
        assert res.trace.rows == plain.trace.rows
        stages = res.trace.column("stage")
        assert stages[0] == 1 and set(np.diff(stages)) <= {0, 1}
        assert np.isin(np.flatnonzero(res.model.w), res.support).all()
        # an explicit full X'c at the result: no frozen feature may enter
        prob = BinaryObjective(data, hp)
        m = prob.margins(prob.point(res.model))
        coef = hsvm.solver.huber_grad(m, hp.delta) * prob.y / prob.n
        g = np.asarray(data.X.T @ coef).ravel()
        frozen = np.ones(p, dtype=bool)
        frozen[res.support] = False
        assert np.all(np.abs(g[frozen]) <= hp.lambda1)
        if lambda1 == 0.005:
            assert res.support.size == p and set(stages) == {1}
        else:
            assert res.support.size * 32 <= p
            assert stages[-1] == (2 if lambda1 == 0.1 else 1)
        multi = fit_multi(gen_fourclass(SynthSpec(kind="four_class", n=40,
                                                  p=24, s=4, seed=19)), hp)
        assert set(multi.trace.column("stage")) == {1}
        assert multi.support is None

    def test_iteration_cap_reports_not_converged(self):
        data = binary_data(seed=15, n=60, p=80, s=5)
        opts = SolverOptions(max_iter=2)
        res = fit_binary_two_stage(data, Hyperparams(0.05, 1, 1, 1), opts)
        assert not res.converged and res.stop_reason == "max_iter"
        assert res.iterations == 2 and not res.two_stage_fallback

    @pytest.mark.parametrize("n, p, s, seed, hp", [
        (86, 2418, 18, 94, Hyperparams(0.0038028902349822075,
                                       0.09846480884967779,
                                       0.01505164407805447)),
        (52, 2390, 13, 110, Hyperparams(0.007497396332065327,
                                        0.021003180243829578,
                                        0.03100654518543955))])
    def test_converged_certifies_the_full_gap(self, n, p, s, seed, hp):
        # the fit's gap is from the best dual bound over its bases, which
        # bounds the full problem's suboptimality at its result: against a
        # tol=1e-13 reference, with 4 ulp of F for the rounding of the two
        # objectives
        data = binary_data(seed=seed, n=n, p=p, s=s)
        res = fit_binary_two_stage(data, hp)
        assert res.converged and res.stop_reason == "converged"
        assert 0 <= res.gap <= SolverOptions().tol
        assert set(np.diff(res.trace.column("stage"))) <= {0, 1}
        np.testing.assert_array_equal(
            res.trace.column("k"), np.arange(1, res.iterations + 1))
        ref = fit_binary(data, hp, SolverOptions(tol=1e-13))
        assert ref.converged
        F = res.final_objective
        assert F - ref.final_objective <= res.gap * F + 4 * np.spacing(F)

    @pytest.mark.parametrize("n, p, s, lambda1", [(200, 2000, 20, 0.005),
                                                   (200, 4000, 10, 0.1)])
    def test_kkt_certificate_on_small_lambda1(self, n, p, s, lambda1):
        # the old support-stability heuristic stopped 1e-5 to 2e-4 above
        # the optimum on some of the small-lambda1 instances and fell back
        # to the plain solver on others. Each fit stops within its gap of
        # the optimum, so both run to 1e-10 for a 1e-8 comparison. At
        # lambda1 = 0.005 no block forms (640 live features, over p/32);
        # at 0.1 one forms after the first iterations.
        hp = Hyperparams(lambda1, 1.0, 1.0, 1.0)
        opts = SolverOptions(tol=1e-10)
        stages = []
        for seed in range(4):
            data = binary_data(seed=seed, n=n, p=p, s=s)
            plain = fit_binary(data, hp, opts)
            res = fit_binary_two_stage(data, hp, opts)
            assert res.converged and not res.two_stage_fallback
            assert res.final_objective == pytest.approx(
                plain.final_objective, rel=1e-8)
            prob = BinaryObjective(data, hp)
            grad = prob.grad(prob.margins(prob.point(res.model)))[1:]
            frozen = np.ones(data.n_features, dtype=bool)
            frozen[res.support] = False
            assert np.all(np.abs(grad[frozen]) <= hp.lambda1 * (1 + opts.tol))
            np.testing.assert_array_equal(res.model.w[frozen], 0.0)
            stages.append(res.trace.column("stage")[-1])
        assert max(stages) >= 2 if lambda1 == 0.1 else stages == [1] * 4

    def test_iterates_of_every_round_in_full_coordinates(self):
        # one iterate per iteration, each as wide as the full problem; those
        # of the last working set are zero off it
        data = binary_data(seed=0, n=200, p=4000, s=10)
        hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
        res = fit_binary_two_stage(data, hp,
                                   SolverOptions(record_iterates=True))
        stages = res.trace.column("stage")
        assert stages[-1] >= 2
        assert len(res.iterates) == res.iterations
        assert all(u.shape == (data.n_features + 1,) for u in res.iterates)
        off = np.setdiff1d(np.arange(data.n_features), res.support)
        assert not any(np.any(u[1 + off]) for u, stage
                       in zip(res.iterates, stages) if stage == stages[-1])
        F = [objective(BinaryModel(b=u[0], w=u[1:]), data, hp).total
             for u in res.iterates]
        np.testing.assert_allclose(F, res.trace.column("F"), rtol=1e-12)
        np.testing.assert_array_equal(
            res.iterates[-1], np.concatenate([[res.model.b], res.model.w]))

    def test_rounds_make_no_full_width_forward_product(self, forwarded_X):
        # the screen's margins at zero read no column, and the screen
        # forms a working block (under p/32 features here) that every later
        # forward product reads instead of X
        data = binary_data(seed=0, n=200, p=4000, s=10)
        hp = Hyperparams(0.2, 1.0, 1.0, 1.0)
        opts = SolverOptions(tol=1e-10)     # see the KKT certificate test
        res = fit_binary_two_stage(data, hp, opts)
        full = [px for px in forwarded_X if px.a is data._X]
        assert full and all("matmul" not in px.used for px in full)
        assert res.converged and res.support.size * 32 <= data.n_features
        plain = fit_binary(data, hp, opts)
        assert res.final_objective == pytest.approx(plain.final_objective,
                                                    rel=1e-8)


class TestFitMulti:
    def test_huge_lambda1_keeps_weights_zero(self):
        rng = np.random.default_rng(16)
        data = Dataset(rng.normal(size=(20, 5)), rng.integers(1, 4, 20),
                       n_classes=3)
        hp = Hyperparams(50.0, 1.0, 1.0, 1.0)
        res = fit_multi(data, hp)
        np.testing.assert_array_equal(res.model.W, np.zeros((5, 3)))
        # intercept-only problem still solved to the oracle's accuracy
        b_o, W_o, obj_o = projected_subgradient(data, hp, 20000)
        assert res.final_objective <= obj_o + 1e-5

    def test_tiny_instance_matches_subgradient_oracle(self):
        rng = np.random.default_rng(17)
        data = Dataset(rng.normal(size=(6, 2)), np.array([1, 2, 3, 1, 2, 3]))
        hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
        res = fit_multi(data, hp, SolverOptions(tol=1e-10))
        _, _, obj_o = projected_subgradient(data, hp, 60000)
        assert abs(res.final_objective - obj_o) <= 1e-5

    def test_feasibility_of_returned_model(self):
        data = gen_fourclass(SynthSpec(kind="four_class", n=40, p=30, s=4,
                                       seed=18))
        res = fit_multi(data, Hyperparams(0.05, 1.0, 1.0, 1.0))
        assert res.model.feasibility_residual() <= 1e-8

    @pytest.mark.parametrize("step, message", [
        ("multi_w_step", "weight rows left the zero-sum subspace"),
        ("multi_b_step", "intercepts left the zero-sum subspace")])
    def test_step_leaving_subspace_raises(self, monkeypatch, step, message):
        exact = getattr(hsvm.solver, step)
        monkeypatch.setattr(hsvm.solver, step,
                            lambda *args: exact(*args) + 1e-6)
        data = gen_fourclass(SynthSpec(kind="four_class", n=40, p=30, s=4,
                                       seed=18))
        with pytest.raises(ConstraintError, match=message):
            fit_multi(data, Hyperparams(0.05, 1.0, 1.0, 1.0))

    def test_monotone_objective(self):
        data = gen_fourclass(SynthSpec(kind="four_class", n=40, p=24, s=4,
                                       seed=19))
        res = fit_multi(data, Hyperparams(0.05, 1.0, 1.0, 1.0))
        F = res.trace.column("F")
        assert np.all(np.diff(F) <= 1e-12)

    def test_final_objective_matches_public_evaluator(self):
        data = gen_fourclass(SynthSpec(kind="four_class", n=32, p=16, s=4,
                                       seed=20))
        hp = Hyperparams(0.05, 1.0, 1.0, 1.0)
        res = fit_multi(data, hp)
        parts = objective(res.model, data, hp)
        assert parts.total == pytest.approx(res.final_objective, rel=1e-12)

    def test_rejects_binary_labels(self):
        data = Dataset(np.zeros((2, 2)), [1, -1])
        with pytest.raises(LabelError):
            fit_multi(data, Hyperparams(0.1, 1, 1, 1))

    def test_fits_match_a_kernel_only_prox(self, monkeypatch):
        # multi_w_step solves most rows from the sign pattern of W_hat; on
        # 120 small fits it must give the path of a weight step that sends
        # every row through the sorting kernel.
        rng = np.random.default_rng(23)
        problems = []
        for _ in range(120):
            J = int(rng.integers(2, 7))
            n, p = int(rng.integers(20, 41)), int(rng.integers(4, 25))
            labels = rng.integers(1, J + 1, n)
            X = rng.normal(size=(J, p))[labels - 1] + rng.normal(size=(n, p))
            hp = Hyperparams(10 ** rng.uniform(-3, -0.5),
                             10 ** rng.uniform(-1, 0.5), 1.0, 1.0)
            problems.append((Dataset(X, labels, n_classes=J), hp))
        rows = {"stepped": 0, "sorted": 0}

        def counting(name, fn):
            def wrapper(*args):
                rows[name] += args[0].shape[0]
                return fn(*args)
            return wrapper

        monkeypatch.setattr(hsvm.solver, "multi_w_step",
                            counting("stepped", hsvm.solver.multi_w_step))
        monkeypatch.setattr(hsvm.prox, "_zero_sum_prox_rows",
                            counting("sorted", hsvm.prox._zero_sum_prox_rows))
        got = [fit_multi(data, hp) for data, hp in problems]
        monkeypatch.setattr(hsvm.solver, "multi_w_step", kernel_only_w_step)
        ref = [fit_multi(data, hp) for data, hp in problems]
        assert rows["sorted"] < 0.5 * rows["stepped"]
        for res, want in zip(got, ref):
            assert (res.iterations, res.converged) == (want.iterations,
                                                       want.converged)
            assert res.final_objective == pytest.approx(want.final_objective,
                                                        rel=1e-12, abs=0)
            assert np.array_equal(res.model.W == 0, want.model.W == 0)

    def test_learns_separated_classes(self):
        # s = 16 puts the nearest class pair 4 sigma apart
        data = gen_fourclass(SynthSpec(kind="four_class", n=120, p=30, s=16,
                                       rho=0.0, seed=21))
        res = fit_multi(data, Hyperparams(0.05, 1.0, 1.0, 1.0))
        assert evaluate(res.model, data).accuracy >= 0.95


class TestDualityGap:
    """With lambda2, lambda3 > 0 an M-PGH or B-PGH fit stops once
    F - D_best <= tol F, where D_best is the best dual bound given by the
    gradients it took; ``FitResult.gap`` is (F - D_best) / F. Fits with
    lambda2 = 0 or lambda3 = 0, and ``ablation_run``, stop on relative
    progress and have no gap."""

    REF = SolverOptions(tol=1e-13, max_iter=100_000)

    @staticmethod
    def problem(rng, csr):
        J = int(rng.choice([2, 3, 4, 7]))
        n, p = int(rng.integers(20, 61)), int(rng.integers(4, 31))
        labels = rng.integers(1, J + 1, n)
        X = rng.normal(size=(J, p))[labels - 1] + rng.normal(size=(n, p))
        if csr:
            X[rng.random(X.shape) < 0.6] = 0.0
            X = sp.csr_array(X)
        hp = Hyperparams(10 ** rng.uniform(-3, -0.5),
                         10 ** rng.uniform(-1.5, 1), 10 ** rng.uniform(-1.5, 1),
                         float(rng.choice([0.5, 1.0, 2.0])))
        return Dataset(X, labels, n_classes=J), hp

    def test_gap_bounds_the_true_suboptimality(self):
        # 64 fits, half of them on CSR. The reference run's objective is at
        # least the optimum F*, so F - F_ref <= F - F* <= gap F; 4 ulp of F
        # cover the rounding of the two objectives.
        rng = np.random.default_rng(61)
        for k in range(64):
            data, hp = self.problem(rng, csr=k % 2 == 1)
            res = fit_multi(data, hp)
            ref = fit_multi(data, hp, self.REF)
            assert res.converged and ref.converged
            assert 0.0 <= res.gap <= SolverOptions.tol
            assert ref.gap <= self.REF.tol
            F = res.final_objective
            assert F - ref.final_objective <= res.gap * F + 4 * np.spacing(F)

    def test_dual_bound_matches_the_definition(self):
        # At any feasible point the bound from the gradient is at most the
        # exact dual objective of its loss coefficients, which is at most
        # the optimum (weak duality); at the optimum all three agree.
        rng = np.random.default_rng(62)
        for k in range(16):
            data, hp = self.problem(rng, csr=k % 2 == 1)
            prob = MultiObjective(data, hp)
            opt = fit_multi(data, hp, self.REF)
            shape = opt.model.W.shape
            W = rng.normal(size=shape) * (rng.random(shape) < 0.5)
            W -= W.mean(axis=1, keepdims=True)
            b = rng.normal(size=prob.J)
            b -= b.mean()
            for model, exact_at_sign in ((opt.model, True),
                                         (MultiModel(b, W), False)):
                u = prob.point(model)
                _, _, bound, _ = prob.smooth_grad(prob.margins(u), u)
                exact = multi_dual_direct(model.b, model.W, data, hp)
                F_opt = opt.final_objective
                assert bound <= exact + 1e-12 * abs(exact)
                assert exact <= F_opt + 1e-12 * F_opt
                if exact_at_sign:
                    assert bound == pytest.approx(exact, rel=1e-12, abs=0)
                    assert bound == pytest.approx(F_opt, rel=1e-12, abs=0)

    @pytest.mark.parametrize("J", [2, 3, 4, 50])
    def test_dual_bound_equals_the_gathered_rows(self, J):
        # 60 random gradients and points per J: live and flat rows, rows
        # whose spread is 2 lambda1 exactly, and rows of W that are zero,
        # of one sign or mixed. dual_loss is 0, so the relative difference
        # is that of the two row sums.
        rng = np.random.default_rng(J + 70)
        labels = np.arange(J) + 1
        for _ in range(60):
            p = int(rng.integers(1, 41))
            hp = Hyperparams(*10 ** rng.uniform([-3, -1, -1], [0, 1, 1]))
            prob = MultiObjective(Dataset(rng.normal(size=(J, p)), labels,
                                          n_classes=J), hp)
            kind = rng.integers(0, 4, size=p)
            gW = rng.normal(size=(p, J)) * 10 ** rng.uniform(-3, 1, (p, 1))
            flat = kind == 1
            gW[flat] = rng.uniform(0, 2 * hp.lambda1, (flat.sum(), J))
            edge = kind == 2
            gW[edge] = rng.uniform(0, 2 * hp.lambda1, (edge.sum(), J))
            gW[edge, 0], gW[edge, -1] = 0.0, 2 * hp.lambda1
            W = rng.normal(size=(p, J)) * (rng.random((p, J)) < 0.6)
            sign = rng.integers(0, 3, size=p)
            W[sign == 0] = 0.0
            W[sign == 1] = np.abs(W[sign == 1])
            gb = rng.normal(size=J)
            u = np.concatenate([np.zeros(J), W.ravel(order="F")])
            grad = np.concatenate([gb, gW.ravel(order="F")])
            got = prob._dual_bound(0.0, grad, u)
            want = gathered_dual_bound(0.0, gb, gW, W, hp)
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_one_loss_call_per_base_and_per_candidate(self, monkeypatch):
        # the fused call serves every gradient, and the value-only call
        # every line-search candidate, never a base
        calls = {"multi_smooth_from_margins": 0, "multi_grad_from_margins": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(hsvm.solver, name,
                                counting(name, getattr(hsvm.solver, name)))
        data = gen_fourclass(SynthSpec(kind="four_class", n=40, p=24, s=4,
                                       seed=19))
        for hp in (Hyperparams(0.05, 1.0, 1.0, 1.0),
                   Hyperparams(0.05, 0.0, 1.0, 1.0)):
            for key in calls:
                calls[key] = 0
            res = fit_multi(data, hp)
            assert res.converged
            assert (calls["multi_smooth_from_margins"]
                    == res.trace.column("ls_evals").sum())
            assert calls["multi_grad_from_margins"] == res.grad_products

    def test_gap_keeps_the_best_bound_through_restarts(self):
        # F = 6, 4, then a candidate at 30 forces a restart, whose base
        # alone has a finite bound; F then falls 3, 2, 1. Only a loop that
        # keeps that bound, and keeps the best over the later bases, stops,
        # at the iteration where F = 1.
        prob = _Scripted(penalties=[5, 4, 30, 3, 2, 1], bounds={3: 1 - 1e-7})
        res = hsvm.solver._run_pg_loop(prob, SolverOptions(max_iter=50))
        assert res.trace.column("restarted")[:2].tolist() == [False, True]
        assert res.converged and res.iterations == 4
        assert res.gap == pytest.approx(1e-7, rel=1e-6)

    def test_gap_is_from_the_best_bound_of_every_base(self, monkeypatch):
        # restarted bases included; the bound need not grow monotonically
        bounds = []
        smooth_grad = MultiObjective.smooth_grad

        def recorded(prob, m, *held):
            out = smooth_grad(prob, m, *held)
            bounds.append(out[2])
            return out

        monkeypatch.setattr(MultiObjective, "smooth_grad", recorded)
        data = gen_fourclass(SynthSpec(kind="four_class", n=60, p=30, s=4,
                                       seed=24))
        res = fit_multi(data, Hyperparams(0.02, 0.3, 1.0, 1.0),
                        SolverOptions(tol=1e-9))
        assert res.trace.column("restarted").any()
        assert len(bounds) == res.grad_products
        assert np.any(np.diff(bounds) < 0)
        F = res.final_objective
        assert res.gap == (F - max(bounds)) / F

    @pytest.mark.parametrize("lambda2, lambda3", [(0.0, 1.0), (1.0, 0.0)])
    def test_progress_rule_without_strong_convexity(self, monkeypatch,
                                                    lambda2, lambda3):
        data = gen_fourclass(SynthSpec(kind="four_class", n=40, p=24, s=4,
                                       seed=19))
        stops = [0]
        rule = hsvm.solver.check_stop

        def counted(*args):
            stops[0] += 1
            return rule(*args)

        monkeypatch.setattr(hsvm.solver, "check_stop", counted)
        res = fit_multi(data, Hyperparams(0.05, lambda2, lambda3, 1.0))
        assert res.converged and res.gap is None
        assert stops[0] == res.iterations
        stops[0] = 0
        res = fit_multi(data, Hyperparams(0.05, 1.0, 1.0, 1.0))
        assert res.converged and res.gap is not None and stops[0] == 0
        # binary fits and the ablation's settings alike
        binary = binary_data(seed=3)
        hp = Hyperparams(0.05, lambda2, lambda3, 1.0)
        for fit in (fit_binary, fit_binary_two_stage):
            stops[0] = 0
            res = fit(binary, hp)
            assert res.converged and res.gap is None
            assert stops[0] == res.iterations
        hp = Hyperparams(0.05, 1.0, 1.0, 1.0)
        for fit in (fit_binary, fit_binary_two_stage):
            stops[0] = 0
            res = fit(binary, hp)
            assert res.converged and 0.0 <= res.gap <= SolverOptions.tol
            assert stops[0] == 0
        for setting in hsvm.solver.ABLATION_SETTINGS:
            stops[0] = 0
            res = ablation_run(binary, hp, setting)
            assert res.converged and res.gap is None
            assert stops[0] == res.iterations

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
    def test_gap_at_the_stop_is_within_tol(self, tol):
        data = gen_fourclass(SynthSpec(kind="four_class", n=60, p=30, s=4,
                                       seed=24))
        res = fit_multi(data, Hyperparams(0.02, 0.3, 1.0, 1.0),
                        SolverOptions(tol=tol))
        assert res.converged and 0.0 <= res.gap <= tol
        capped = fit_multi(data, Hyperparams(0.02, 0.3, 1.0, 1.0),
                           SolverOptions(tol=tol, max_iter=2))
        assert not capped.converged and capped.gap > tol

    def test_binary_gap_bounds_the_true_suboptimality(self):
        # 28 problems, half of them on CSR, each fitted by B-PGH and B-PGH-2:
        # 56 fits, some with a working block and some without. Every gap
        # is at least the suboptimality against a tol=1e-13 reference, with
        # 4 ulp of F for the rounding of the two objectives, and at most
        # tol.
        rng = np.random.default_rng(64)
        blocks = no_blocks = 0
        for k in range(28):
            p = int(rng.choice([10, 300, 2000, 4000]))
            data = binary_data(seed=k, n=int(rng.choice([30, 100, 200])),
                               p=p, s=int(rng.integers(3, 10)))
            if k % 2 == 1:
                data = _as_csr(data)
            hp = Hyperparams(10 ** rng.uniform(-2.5, -0.5),
                             10 ** rng.uniform(-1.5, 1),
                             10 ** rng.uniform(-1.5, 1),
                             float(rng.choice([0.5, 1.0, 2.0])))
            ref = fit_binary(data, hp, self.REF)
            assert ref.converged and ref.gap <= self.REF.tol
            for fit in (fit_binary, fit_binary_two_stage):
                res = fit(data, hp)
                assert res.converged and res.gap is not None
                F = res.final_objective
                assert (F - ref.final_objective
                        <= res.gap * F + 4 * np.spacing(F))
                assert res.gap <= SolverOptions.tol
                if fit is fit_binary:
                    if (res.trace.column("nnz") * 32 <= p).any():
                        blocks += 1
                    else:
                        no_blocks += 1
        assert blocks >= 8 and no_blocks >= 8


@pytest.fixture(scope="module")
def rich_data():
    return binary_data(seed=22, n=600, p=100, s=10)


class TestAblation:

    def test_three_settings_agree_on_objective(self, rich_data):
        hp = Hyperparams(0.05, 1.0, 1.0, 1.0)
        objs = {}
        iters = {}
        for setting in ("ours", "fixed_L_no_monotone", "backtrack_no_monotone"):
            res = ablation_run(rich_data, hp, setting)
            objs[setting] = res.final_objective
            iters[setting] = res.iterations
        rel = (max(objs.values()) - min(objs.values())) / min(objs.values())
        assert rel <= 1e-4
        assert iters["ours"] <= iters["backtrack_no_monotone"] \
            <= iters["fixed_L_no_monotone"]

    def test_fixed_L_uses_global_constant(self, rich_data):
        from hsvm.losses import lipschitz_binary
        hp = Hyperparams(0.05, 1.0, 1.0, 1.0)
        res = ablation_run(rich_data, hp, "fixed_L_no_monotone")
        L = res.trace.column("L")
        assert np.allclose(L, lipschitz_binary(rich_data, 1.0))

    def test_unknown_setting_rejected(self, rich_data):
        with pytest.raises(DomainError):
            ablation_run(rich_data, Hyperparams(0.1, 1, 1, 1), "bogus")


class TestLinearConvergence:
    def test_contraction_toward_reference(self):
        data = binary_data(seed=23, n=200, p=50, s=8)
        hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
        # the fit stops on its gap, so it runs to 1e-14 to leave iterates
        # past the first 19; the reference runs to the rounding of F
        ref = fit_binary(data, hp, SolverOptions(tol=1e-16, max_iter=20000))
        u_star = np.concatenate([[ref.model.b], ref.model.w])
        res = fit_binary(data, hp, SolverOptions(tol=1e-14,
                                                 record_iterates=True))
        d = np.array([np.linalg.norm(u - u_star) for u in res.iterates])
        d = d[19:]
        d = d[d > 1e-13]
        ratios = d[1:] / d[:-1]
        assert np.median(ratios) < 0.995
        slope = np.polyfit(np.arange(d.size), np.log(d), 1)[0]
        assert slope < 0


class _ForwardingMatrix:
    """Forwards attribute lookups to a wrapped matrix and records which of
    ``@``, ``.T @`` ("transpose") and column indexing were used."""

    def __init__(self, a, used=None, product="matmul"):
        self.a = a
        self.used = [] if used is None else used
        self.product = product

    def __matmul__(self, other):
        self.used.append(self.product)
        return self.a @ other

    @property
    def T(self):
        return _ForwardingMatrix(self.a.T, self.used, "transpose")

    def __getitem__(self, key):
        self.used.append("getitem")
        return self.a[key]

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.a, name)


@pytest.fixture
def forwarded_X(monkeypatch):
    """Serve every ``Dataset.X`` lookup through a new ``_ForwardingMatrix``;
    the list holds the proxies in the order they were handed out."""
    proxies = []

    def wrapped(ds):
        proxies.append(_ForwardingMatrix(ds._X))
        return proxies[-1]

    monkeypatch.setattr(Dataset, "X", property(wrapped))
    return proxies


@pytest.fixture
def no_finish(monkeypatch):
    """Hold off the exact finish of certified binary fits, for tests of the
    proximal gradient steps themselves."""
    monkeypatch.setattr(hsvm.solver, "_FINISH_AT", math.inf)


P_MARGINS = 320    # p/32 = 10


def _layouts(X):
    return {"C": np.ascontiguousarray(X), "F": np.asfortranarray(X),
            "csr": sp.csr_array(X)}


class TestObjectiveMargins:
    """Each objective's margins match the plain formula on every layout, at
    supports on both sides of the p/32 working-block gate."""

    HP = Hyperparams(0.1, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("layout", ["C", "F", "csr"])
    @pytest.mark.parametrize("model", ["binary", "multi"])
    @pytest.mark.parametrize("k", [0, 1, P_MARGINS // 32 - 1,
                                   P_MARGINS // 32 + 1, P_MARGINS])
    def test_matches_plain_product(self, layout, model, k):
        rng = np.random.default_rng(k)
        X = rng.normal(size=(50, P_MARGINS))
        J = 1 if model == "binary" else 4
        W = np.zeros((P_MARGINS, J))
        W[rng.choice(P_MARGINS, size=k, replace=False)] = rng.normal(
            size=(k, J))
        if model == "binary":
            y = rng.choice([-1, 1], size=50)
            prob = BinaryObjective(Dataset(_layouts(X)[layout], y), self.HP)
            b = rng.normal()
            # from the block of the support when it holds <= p/32 features
            got = prob.margins(prob.enter(np.concatenate([[b], W[:, 0]])))
            want = y * (b + X @ W[:, 0])
        else:
            labels = rng.integers(1, J + 1, size=50)
            data = Dataset(_layouts(X)[layout], labels, kind="multiclass",
                           n_classes=J)
            b = rng.normal(size=J)
            got = MultiObjective(data, self.HP).margins(
                np.concatenate([b, W.ravel(order="F")]))
            want = (X @ W + b).ravel()
        assert got.shape == want.shape
        if k == 0:
            np.testing.assert_array_equal(got, want)
        else:
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_dense_binary_margins_at_zero_read_no_column(self, forwarded_X,
                                                         layout):
        rng = np.random.default_rng(0)
        X = _layouts(rng.normal(size=(50, P_MARGINS)))[layout]
        prob = BinaryObjective(Dataset(X, rng.choice([-1, 1], size=50)),
                               self.HP)
        u = prob.enter(np.zeros(prob.dim))
        m = prob.margins(u)
        assert u.shape == (1,) and prob._XK.shape == (50, 0)
        # the empty block is a data set of its own; no product reads X
        full = [px for px in forwarded_X if px.a is X]
        assert full and all("matmul" not in px.used for px in full)
        assert m.shape == (50,) and not np.any(m)


def _as_csr(data):
    return Dataset(sp.csr_array(data.X), data.labels, kind=data.kind,
                   n_classes=data.n_classes)


class TestBinaryIsTwoClassMulti:
    """M-HSVM with J = 2 at (lambda1, lambda2, lambda3)/2, label +1 as
    class 1, has the B-HSVM optimum at (lambda1, lambda2, lambda3):
    W = (w, -w) and b = (b, -b), with the same objective value."""

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("lambda1", [0.02, 0.1])
    def test_half_penalties_give_the_binary_optimum(self, layout, lambda1):
        opts = SolverOptions(tol=1e-12)
        hp = Hyperparams(lambda1, 1.0, 1.0, 1.0)
        half = Hyperparams(lambda1 / 2, 0.5, 0.5, 1.0)
        for seed in range(12):
            data = binary_data(seed=seed, n=60, p=200)
            if layout == "csr":
                data = _as_csr(data)
            two = Dataset(data.X, np.where(data.labels == 1, 1, 2))
            rb, rm = fit_binary(data, hp, opts), fit_multi(two, half, opts)
            assert rb.converged and rm.converged
            assert rm.final_objective == pytest.approx(rb.final_objective,
                                                       rel=1e-10)
            w, b = rb.model.w, rb.model.b
            np.testing.assert_allclose(rm.model.W, np.column_stack([w, -w]),
                                       rtol=0, atol=1e-6)
            np.testing.assert_allclose(rm.model.b, [b, -b], rtol=0, atol=1e-6)


class TestNonFiniteFeatures:
    """A NaN, an inf or an entry whose square overflows fails every fit and
    ``objective`` with one ``DomainError`` naming the feature matrix,
    before any loss or prox sees it (tier-1 also fails on a warning)."""

    X = np.array([[1.0, 0.5], [0.2, -1.0], [-1.0, 0.3], [0.4, 2.0]])
    HP = Hyperparams(0.1, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200])
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("fit", ["fit_binary", "fit_binary_two_stage",
                                     "fit_multi", "objective_binary",
                                     "objective_multi"])
    def test_rejected_naming_the_feature_matrix(self, value, layout, fit):
        X = self.X.copy()
        X[1, 1] = value
        if layout == "csr":
            X = sp.csr_array(X)
        labels = [1, 2, 3, 1] if fit.endswith("multi") else [1, -1, 1, -1]
        data = Dataset(X, labels)
        calls = {
            "fit_binary": lambda: fit_binary(data, self.HP),
            "fit_binary_two_stage": lambda: fit_binary_two_stage(data,
                                                                 self.HP),
            "fit_multi": lambda: fit_multi(data, self.HP),
            "objective_binary": lambda: objective(
                BinaryModel(b=0.0, w=np.zeros(2)), data, self.HP),
            "objective_multi": lambda: objective(
                MultiModel(b=np.zeros(3), W=np.zeros((2, 3))), data, self.HP),
        }
        with pytest.raises(DomainError, match="^feature matrix "):
            calls[fit]()


class TestDenseMatchesCsrFits:
    """A dense problem whose iterates use at most p/32 features, where
    B-PGH works on its column block, fits as the same problem on CSR or in
    F order does: equal iteration counts and zero sets, equal objectives."""

    N, P = 200, 4000

    @pytest.mark.parametrize("fit", [fit_binary, fit_binary_two_stage])
    def test_binary_matches_csr(self, fit):
        data = binary_data(seed=1, n=self.N, p=self.P, s=10)
        hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
        dense, ref = fit(data, hp), fit(_as_csr(data), hp)
        assert not dense.two_stage_fallback and dense.converged
        assert (dense.trace.column("nnz") * 32 <= self.P).mean() > 0.5
        assert dense.iterations == ref.iterations
        np.testing.assert_array_equal(np.flatnonzero(dense.model.w),
                                      np.flatnonzero(ref.model.w))
        assert dense.final_objective == pytest.approx(ref.final_objective,
                                                      rel=1e-10)

    def test_multi_matches_csr(self):
        data = gen_fourclass(SynthSpec(kind="four_class", n=self.N, p=self.P,
                                       s=8, seed=1))
        hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
        dense, ref = fit_multi(data, hp), fit_multi(_as_csr(data), hp)
        assert dense.converged
        assert (dense.trace.column("nnz") * 32 <= self.P).mean() > 0.5
        assert dense.iterations == ref.iterations

        def rows(W):
            return np.flatnonzero(W.any(axis=1))

        np.testing.assert_array_equal(rows(dense.model.W), rows(ref.model.W))
        assert dense.final_objective == pytest.approx(ref.final_objective,
                                                      rel=1e-10)

    @pytest.mark.parametrize("fit", [fit_binary, fit_binary_two_stage,
                                     fit_multi])
    def test_fortran_order_fits_as_c_order(self, fit):
        if fit is fit_multi:
            data = gen_fourclass(SynthSpec(kind="four_class", n=self.N,
                                           p=self.P, s=8, seed=1))
        else:
            data = binary_data(seed=1, n=self.N, p=self.P, s=10)
        f_data = Dataset(np.asfortranarray(data.X), data.labels,
                         kind=data.kind, n_classes=data.n_classes)
        assert data.X.flags.c_contiguous and f_data.X.flags.f_contiguous
        hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
        c, f = fit(data, hp), fit(f_data, hp)
        assert c.converged and f.iterations == c.iterations

        def support(res):
            return np.flatnonzero(res.model.W if fit is fit_multi
                                  else res.model.w)

        np.testing.assert_array_equal(support(f), support(c))
        assert f.final_objective == pytest.approx(c.final_objective,
                                                  rel=1e-12)


class TestWorkingBlock:
    """B-PGH iterates in the working block's coordinates u = (b, w_K), and
    its transpose product reads only X[:, K] while the certificate holds;
    nothing the solve computes changes beyond rounding."""

    HP = Hyperparams(0.1, 1.0, 1.0, 1.0)
    # instances whose working set stays within p/32 features
    CASES = [(1, 200, 4000, 10), (2, 200, 4000, 10), (3, 100, 6400, 8)]

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("seed, n, p, s", CASES)
    def test_certificate_holds_at_every_skipped_step(self, monkeypatch,
                                                     no_finish, seed, n, p, s,
                                                     layout):
        data = binary_data(seed=seed, n=n, p=p, s=s)
        if layout == "csr":
            data = _as_csr(data)
        smooth_grad = BinaryObjective.smooth_grad
        refresh = BinaryObjective._refresh
        skipped, worst, refreshed = [0], [0.0], [False]

        def refreshing(prob, *args):
            refreshed[0] = True
            return refresh(prob, *args)

        def checked(prob, m, *held):
            refreshed[0] = False
            out = smooth_grad(prob, m, *held)
            g = out[1]
            if refreshed[0]:
                return out      # a full product, which re-forms the block
            skipped[0] += 1
            K = prob._K
            assert K.size * 32 <= p and g.size == 1 + K.size
            coef = hsvm.solver.huber_grad(m, prob.hp.delta) * prob.y / prob.n
            full = np.asarray(prob.X.T @ coef)
            frozen = np.ones(p, dtype=bool)
            frozen[K] = False
            worst[0] = max(worst[0], np.abs(full[frozen]).max())
            np.testing.assert_allclose(g[1:], full[K], rtol=1e-12,
                                       atol=1e-15)
            return out

        # past the gap stop at 1e-6, as deep as the progress rule's stop
        opts = SolverOptions(tol=1e-10)
        with monkeypatch.context() as mp:
            mp.setattr(BinaryObjective, "smooth_grad", checked)
            mp.setattr(BinaryObjective, "_refresh", refreshing)
            res = fit_binary(data, self.HP, opts)
        assert skipped[0] >= res.iterations // 2
        assert worst[0] <= self.HP.lambda1
        with monkeypatch.context() as mp:
            # no block is kept past the empty one at zero, so every
            # product is the full one
            mp.setattr(hsvm.solver, "_SUPPORT_FRACTION", 1 << 40)
            ref = fit_binary(data, self.HP, opts)
        assert res.iterations == ref.iterations
        assert res.grad_products == ref.grad_products
        np.testing.assert_array_equal(np.flatnonzero(res.model.w),
                                      np.flatnonzero(ref.model.w))
        assert res.final_objective == pytest.approx(ref.final_objective,
                                                    rel=1e-12)

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_kept_products_certify_only_what_a_full_product_shows(
            self, monkeypatch, no_finish, layout):
        # 60 random problems. Wherever a combination of kept products, not
        # the radius, skips B-PGH's full product, an explicit X'c shows
        # every frozen |g_j| <= lambda1
        recenter = BinaryObjective._recenter
        fired = [0]

        def checked(prob, coef):
            out = recenter(prob, coef)
            if out:
                fired[0] += 1
                frozen = np.ones(prob.dim - 1, dtype=bool)
                frozen[prob._K] = False
                g = np.asarray(prob.data._X.T @ coef).ravel()[frozen]
                assert np.abs(g).max(initial=0.0) <= prob.hp.lambda1
            return out

        monkeypatch.setattr(BinaryObjective, "_recenter", checked)
        rng = np.random.default_rng(41 if layout == "dense" else 42)
        for case in range(60):
            n = int(rng.choice([60, 100, 200]))
            data = binary_data(seed=case, n=n, p=int(rng.choice([1000, 2000])),
                               s=int(rng.integers(3, 16)))
            if layout == "csr":
                data = _as_csr(data)
            hp = Hyperparams(float(rng.choice([0.1, 0.2, 0.3, 0.4])),
                             float(rng.choice([0.1, 1.0])), 1.0, 1.0)
            fit_binary(data, hp)
        assert fired[0] >= 150

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_fits_match_full_coordinates(self, monkeypatch, no_finish,
                                         layout):
        # 50 random problems, p from 300 to 6400, against a fit that keeps
        # no block (every vector of the loop in full coordinates)
        rng = np.random.default_rng(31 if layout == "dense" else 32)
        blocks = 0
        for case in range(25):
            p = int(rng.choice([300, 800, 1600, 3200, 6400]))
            n = int(rng.choice([40, 100, 200]))
            data = binary_data(seed=case, n=n, p=p, s=int(rng.integers(3, 15)))
            if layout == "csr":
                data = _as_csr(data)
            hp = Hyperparams(float(rng.choice([0.02, 0.05, 0.1, 0.2])),
                             float(rng.choice([0.1, 1.0])), 1.0, 1.0)
            res = fit_binary(data, hp)
            blocks += bool((res.trace.column("nnz") * 32 <= p).any())
            with monkeypatch.context() as mp:
                mp.setattr(hsvm.solver, "_SUPPORT_FRACTION", 1 << 40)
                ref = fit_binary(data, hp)
            assert res.iterations == ref.iterations
            assert res.grad_products == ref.grad_products
            assert res.final_objective == pytest.approx(
                ref.final_objective, rel=1e-15, abs=0)
            assert res.model.w.shape == (p,)
        assert blocks >= 10

    def test_held_supports_stay_in_the_block(self):
        # after a full product the block keeps every weight of every
        # vector the loop holds, here one that neither the gradient nor the
        # base asks for, and gathers the gradient onto it
        data = binary_data(seed=1, n=200, p=4000, s=10)
        prob = BinaryObjective(data, self.HP)
        model = fit_binary(data, self.HP).model
        u_star = np.concatenate([[model.b], model.w])
        # on another objective: prob keeps no product to certify from
        ref = BinaryObjective(data, self.HP)
        g_star = ref.grad(ref.margins(ref.point(model)))
        j = np.flatnonzero((u_star[1:] == 0)
                           & (np.abs(g_star[1:]) < self.HP.lambda1))[0]
        v = u_star.copy()
        v[1 + j] = 1e-9
        u_prev = prob.enter(v)
        assert prob._K.size * 32 <= 4000 and j in prob._K
        u = u_star[prob._coords()]
        m = prob.margins(u)
        # no certificate yet and no kept product: a full product
        assert prob._rho == 0.0 and not prob._kept
        _, g, _, (u_hat, u, u_prev) = prob.smooth_grad(m, u, u, u_prev)
        assert j in prob._K and g.size == u.size == 1 + prob._K.size
        np.testing.assert_array_equal(prob.full(u_prev), v)
        np.testing.assert_array_equal(prob.full(u), u_star)
        np.testing.assert_array_equal(g, prob.grad(m)[prob._coords()])
        np.testing.assert_array_equal(prob.margins(u), m)

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_forwarding_matrix_gives_identical_fit(self, monkeypatch,
                                                   forwarded_X, layout):
        # the block path may use only what a wrapper of X forwards: @, .T,
        # indexing and attributes, as the benchmark's traced matrix does
        data = binary_data(seed=1, n=200, p=4000, s=10)
        if layout == "csr":     # _as_csr would read the wrapper
            data = Dataset(sp.csr_array(data._X), data.labels)
        res = fit_binary(data, self.HP)
        assert any("getitem" in proxy.used for proxy in forwarded_X)
        monkeypatch.undo()      # the plain matrix again
        plain = fit_binary(data, self.HP)
        assert res.iterations == plain.iterations
        assert res.final_objective == plain.final_objective
        np.testing.assert_array_equal(res.model.w, plain.model.w)

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_small_problem_never_builds_a_block(self, monkeypatch, layout):
        # 45 x 300 (a fold of the criterion-3 set): K always exceeds p/32,
        # so past the empty block at zero the solve pays only for the gate
        data = binary_data(seed=7, n=50, p=300, s=20)
        fold = hsvm.tuning.kfold_split(50, 10, data.labels, seed=7)[0]
        train = data.subset(np.setdiff1d(np.arange(50), fold))
        if layout == "csr":
            train = _as_csr(train)
        smooth_grad = BinaryObjective.smooth_grad
        blocks = []

        def recorded(prob, m, *held):
            out = smooth_grad(prob, m, *held)
            blocks.append(prob._K)
            return out

        monkeypatch.setattr(BinaryObjective, "smooth_grad", recorded)
        for lam1 in np.logspace(-2, -0.5, 4):
            for lam2 in (0.1, 1.0, 10.0):
                fit_binary(train, Hyperparams(lam1, lam2, lam2, 1.0))
        assert blocks and all(K is None for K in blocks)
        assert train._col_sqnorms is None

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_column_norms_only_for_a_block(self, layout):
        # they take a pass over X and a vector as wide as it: a fit reads
        # them once the gate passes, and M-PGH, which never keeps a block,
        # never asks for them
        multi = gen_fourclass(SynthSpec(kind="four_class", n=40, p=24, s=4,
                                        seed=0))
        data = binary_data(seed=1, n=200, p=4000, s=10)
        if layout == "csr":
            multi, data = _as_csr(multi), _as_csr(data)
        assert fit_multi(multi, self.HP).converged
        assert multi._row_sqnorms is not None
        assert multi._col_sqnorms is None
        prob = BinaryObjective(data, self.HP)
        assert hsvm.solver._run_pg_loop(prob, SolverOptions()).converged
        assert prob._K is not None and prob._K.size * 32 <= 4000
        assert data._col_sqnorms is not None

    def test_every_base_evaluates_its_value_once(self, monkeypatch):
        # every base, omega = 0 included (the first, the restart's
        # re-update and the one after it), takes one fused loss call for
        # its value and gradient, and every line-search candidate one
        # value call; no base calls huber_grad
        calls = dict.fromkeys(["huber_loss", "_loss_terms", "huber_grad"], 0)

        def counted(name):
            kernel = getattr(hsvm.solver, name)

            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(hsvm.solver, name, counted(name))
        # deep enough for two restarts, as the progress rule's stop was
        res = fit_binary(binary_data(seed=3), self.HP,
                         SolverOptions(tol=1e-12))
        assert res.trace.column("restarted").any()
        assert np.count_nonzero(res.trace.column("omega") == 0) > 1
        assert calls == {"huber_loss": res.trace.column("ls_evals").sum(),
                         "_loss_terms": res.grad_products, "huber_grad": 0}


class TestGradientAtZeroMemo:
    """The full transpose product at w = 0 depends only on X, y and delta:
    each data set forms it once per delta, in one slot."""

    HP = Hyperparams(0.1, 1.0, 1.0, 1.0)

    @staticmethod
    def transposes(forwarded_X, ds, fit, hp):
        """Full transpose products of X made by ``fit(ds, hp)``."""
        def count():
            return sum(px.used.count("transpose") for px in forwarded_X
                       if px.a is ds._X)
        before = count()
        res = fit(ds, hp)
        return count() - before, res

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_second_fit_from_zero_skips_the_product(self, forwarded_X,
                                                    layout):
        data = binary_data(seed=1, n=200, p=4000, s=10)
        if layout == "csr":     # _as_csr would read the wrapper
            data = Dataset(sp.csr_array(data._X), data.labels)
        other = Hyperparams(0.1, 1.0, 1.0, 0.5)
        first, r1 = self.transposes(forwarded_X, data, fit_binary, self.HP)
        again, r2 = self.transposes(forwarded_X, data, fit_binary, self.HP)
        assert first >= 2 and again == first - 1
        assert r2.iterations == r1.iterations
        np.testing.assert_array_equal(r2.model.w, r1.model.w)
        # another delta takes the slot, and the first delta pays again
        fresh = Dataset(data._X, data.labels)
        want, _ = self.transposes(forwarded_X, fresh, fit_binary, other)
        got, _ = self.transposes(forwarded_X, data, fit_binary, other)
        assert got == want
        assert self.transposes(forwarded_X, data, fit_binary,
                               self.HP)[0] == first
        # B-PGH-2's screen reads the slot plain B-PGH filled
        cold, _ = self.transposes(forwarded_X, fresh, fit_binary_two_stage,
                                  self.HP)
        warm, _ = self.transposes(forwarded_X, data, fit_binary_two_stage,
                                  self.HP)
        assert warm == cold - 1
        # a subset or a restriction is a new data set with its own slot
        for copy in (data.subset(np.arange(data.n)),
                     data.restrict_features(np.arange(data.n_features))):
            assert copy._at_zero is None
            assert self.transposes(forwarded_X, copy, fit_binary,
                                   self.HP)[0] == first

    def test_kept_products_replace_the_later_full_products(self,
                                                           forwarded_X):
        # at lambda1 = 0.25 every frozen gradient at the products a fit
        # holds stays well below lambda1: plain B-PGH makes only the one at
        # w = 0, and B-PGH-2 after it none, as it reads that one from the
        # data set's memo
        data = binary_data(seed=1, n=400, p=4000, s=20)
        hp = Hyperparams(0.25, 1.0, 1.0)
        fresh = Dataset(data._X, data.labels)
        plain, r1 = self.transposes(forwarded_X, data, fit_binary, hp)
        two, r2 = self.transposes(forwarded_X, data, fit_binary_two_stage, hp)
        assert (plain, two) == (1, 0)
        assert r1.converged and r2.converged and r2.gap <= 1e-6
        # on a fresh data set B-PGH-2 makes only the product at w = 0, and
        # forms the column norms its block's certificate reads
        cold, r3 = self.transposes(forwarded_X, fresh, fit_binary_two_stage,
                                   hp)
        assert cold == 1 and fresh._col_sqnorms is not None
        assert r3.iterations == r2.iterations
        assert r3.final_objective == pytest.approx(r2.final_objective,
                                                   rel=1e-14)
        assert r3.gap == pytest.approx(r2.gap, rel=1e-6)


class TestFinish:
    """A certified binary fit with a working block tries an exact finish,
    a finite Newton solve on the piece of F that holds its iterate, at
    iteration 2 and after a failed try at iteration k at 2k;
    its point ends the fit only once its own duality gap certifies it."""

    HP = Hyperparams(0.1, 1.0, 1.0, 1.0)

    @staticmethod
    def recording(monkeypatch):
        """Record every point the finish returns, in full coordinates."""
        finish = BinaryObjective.finish
        points = []

        def recorded(prob, u):
            v = finish(prob, u)
            points.append(None if v is None else prob.full(v))
            return v

        monkeypatch.setattr(BinaryObjective, "finish", recorded)
        return points

    def test_finish_matches_reference_fits(self, monkeypatch):
        # 120 random problems, half of them on CSR: n from 40 to 400, p
        # from 50 to 4000, random penalties. Every fit that ends on
        # the finish's point is within 1e-10 of a tol=1e-13 reference fit
        # that never tries it, and certifies its gap <= tol.
        rng = np.random.default_rng(73)
        finished = 0
        for case in range(120):
            n, p = 2 * int(rng.integers(20, 201)), int(rng.integers(50, 4001))
            data = binary_data(seed=case, n=n, p=p, s=int(rng.integers(2, 12)))
            if case % 2 == 1:
                data = _as_csr(data)
            hp = Hyperparams(10 ** rng.uniform(-2, -0.3),
                             10 ** rng.uniform(-1.5, 1),
                             10 ** rng.uniform(-1.5, 1),
                             float(rng.choice([0.5, 1.0, 2.0])))
            with monkeypatch.context() as mp:
                points = self.recording(mp)
                res = fit_binary(data, hp)
            with monkeypatch.context() as mp:
                mp.setattr(hsvm.solver, "_FINISH_AT", math.inf)
                ref = fit_binary(Dataset(data._X, data.labels), hp,
                                 TestDualityGap.REF)
            assert res.converged and ref.converged
            u = np.concatenate([[res.model.b], res.model.w])
            if points and points[-1] is not None and np.array_equal(
                    points[-1], u):
                finished += 1
                assert 0.0 <= res.gap <= SolverOptions.tol
                assert res.final_objective == pytest.approx(
                    ref.final_objective, rel=1e-10, abs=0)
        assert finished >= 50

    def test_finish_point_satisfies_the_optimality_conditions(self):
        # the finish's point is the optimum to rounding: an explicit full
        # gradient meets every KKT condition; the trace's last row and the
        # last recorded iterate are that point
        data = binary_data(seed=1, n=200, p=4000, s=10)
        hp = self.HP
        res = fit_binary(data, hp, SolverOptions(record_iterates=True))
        assert res.converged and res.iterations == 8
        row = res.trace.rows[-1]
        assert (row.k, row.omega, row.restarted) == (8, 0.0, False)
        assert row.F == res.final_objective
        assert row.nnz == np.count_nonzero(res.model.w)
        assert len(res.iterates) == res.iterations
        u = np.concatenate([[res.model.b], res.model.w])
        np.testing.assert_array_equal(res.iterates[-1], u)
        assert objective(res.model, data, hp).total == pytest.approx(
            res.final_objective, rel=1e-14)
        prob = BinaryObjective(data, hp)
        g = prob.grad(prob.margins(prob.point(res.model)))
        w, on = res.model.w, res.model.w != 0
        assert abs(g[0] + hp.lambda3 * res.model.b) <= 1e-14
        r = g[1:][on] + hp.lambda2 * w[on] + hp.lambda1 * np.sign(w[on])
        assert np.abs(r).max() <= 1e-14
        assert np.abs(g[1:][~on]).max() < hp.lambda1

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_finish_reads_x_through_forwarding_proxies(self, monkeypatch,
                                                       forwarded_X, layout):
        # the finish reads the block only through @, .T @ with array
        # operands and indexing, as the benchmark's traced matrix allows
        data = binary_data(seed=1, n=200, p=4000, s=10)
        if layout == "csr":     # _as_csr would read the wrapper
            data = Dataset(sp.csr_array(data._X), data.labels)
        res = fit_binary(data, self.HP)
        monkeypatch.undo()      # the plain matrix again
        fresh = Dataset(data._X, data.labels)   # gathers its own block
        plain = fit_binary(fresh, self.HP)
        assert res.iterations == plain.iterations == 8
        assert res.final_objective == plain.final_objective
        np.testing.assert_array_equal(res.model.w, plain.model.w)

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_both_fits_gather_the_block_and_form_its_gram_once(self,
                                                               monkeypatch,
                                                               layout):
        # B-PGH and then B-PGH-2 on one data set: both end on the finish
        # over the same block, which the data set gathers once, and whose
        # Gram matrix it forms once, from the block's own matrix
        data = binary_data(seed=1, n=200, p=4000, s=10)
        if layout == "csr":
            data = _as_csr(data)
        gathers, grams = [], []

        def counted(owner, name, log, keep):
            original = getattr(owner, name)

            def wrapped(a, *args, **kwargs):
                if keep(a, *args):
                    log.append(a)
                return original(a, *args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        # the gather of a non-empty block of X
        if layout == "csr":
            counted(sp.csr_array, "__getitem__", gathers,
                    lambda a, key: a is data._X and isinstance(key, tuple)
                    and len(key[1]) > 0)
        else:
            counted(np, "take", gathers,
                    lambda a, cols, *_: a is data._X and len(cols) > 0)
        counted(hsvm.data, "_gram", grams, lambda a: True)
        res = fit_binary(data, self.HP)
        two = fit_binary_two_stage(data, self.HP)
        assert res.converged and res.iterations == two.iterations == 8
        np.testing.assert_array_equal(two.support, res.support)
        assert two.final_objective == res.final_objective
        assert len(gathers) == 1 and len(grams) == 1
        block = data.restrict_features(res.support)
        assert grams[0] is block._X and block.gram() is block._zz

    def test_failing_finish_backs_off_and_changes_nothing(self, monkeypatch):
        # a finish that always fails is tried at iterations 2, 4, 8, 16,
        # ..., floor(log2(max_iter)) times, and the fit is the one that
        # never tries it, bit for bit
        data = binary_data(seed=2, n=100, p=3200, s=8)
        hp = Hyperparams(0.02, 0.05, 1.0, 1.0)
        for max_iter in (1, 7, 8, 60, 200):
            opts = SolverOptions(tol=1e-15, max_iter=max_iter)
            calls = []
            with monkeypatch.context() as mp:
                mp.setattr(BinaryObjective, "finish",
                           lambda prob, u: calls.append(u) or None)
                res = fit_binary(data, hp, opts)
            with monkeypatch.context() as mp:
                mp.setattr(hsvm.solver, "_FINISH_AT", math.inf)
                ref = fit_binary(Dataset(data._X, data.labels), hp, opts)
            assert res.iterations == max_iter
            assert len(calls) == math.floor(math.log2(max_iter))
            assert len(calls) == sum(k <= max_iter
                                     for k in (2, 4, 8, 16, 32, 64, 128))
            assert res.trace.rows == ref.trace.rows
            assert (res.gap, res.grad_products) == (ref.gap, ref.grad_products)
            assert res.model.b == ref.model.b
            np.testing.assert_array_equal(res.model.w, ref.model.w)

    def test_uncertified_fits_never_call_the_finish(self, monkeypatch):
        # lambda2 = 0 or lambda3 = 0, and every ablation setting: no dual
        # bound, so no point the finish returns could be certified
        def refused(prob, u):
            raise AssertionError("an uncertified fit tried the finish")

        monkeypatch.setattr(BinaryObjective, "finish", refused)
        data = binary_data(seed=1, n=200, p=4000, s=10)
        for hp in (Hyperparams(0.1, 0.0, 1.0), Hyperparams(0.1, 1.0, 0.0)):
            for fit in (fit_binary, fit_binary_two_stage):
                res = fit(data, hp)
                assert res.gap is None and res.iterations > 8
        for setting in hsvm.solver.ABLATION_SETTINGS:
            res = ablation_run(data, self.HP, setting)
            assert res.gap is None and res.iterations > 8


# The hsvm.solver globals that the benchmark's traced run rebinds. Each must
# stay a module global that the solve path calls, or its span goes missing;
# huber_grad, which no solve path calls, stays one that
# BinaryObjective.grad calls.
TRACED_SOLVER_NAMES = (
    "huber_loss", "huber_grad", "multi_smooth_from_margins",
    "multi_grad_from_margins", "binary_penalty", "multi_penalty",
    "lipschitz_binary", "lipschitz_multi", "binary_prox_step",
    "multi_w_step", "multi_b_step", "line_search", "fit_binary")


class TestTracedNames:
    def test_multi_and_two_stage_fits_call_every_traced_name(self, monkeypatch):
        calls = dict.fromkeys(TRACED_SOLVER_NAMES, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in TRACED_SOLVER_NAMES:
            monkeypatch.setattr(hsvm.solver, name,
                                counting(name, getattr(hsvm.solver, name)))
        hp = Hyperparams(0.05, 1.0, 1.0, 1.0)
        fit_multi(gen_fourclass(SynthSpec(kind="four_class", n=40, p=24, s=4,
                                          seed=19)), hp)
        fit_binary_two_stage(binary_data(seed=1), hp)
        assert [name for name, n in calls.items() if n == 0] == ["huber_grad"]
        prob = BinaryObjective(binary_data(seed=1), hp)
        prob.grad(prob.margins(prob.enter(np.zeros(prob.dim))))
        assert calls["huber_grad"] == 1

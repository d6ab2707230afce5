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
import hsvm.prox
import hsvm.solver
import hsvm.tuning
from hsvm.data import SynthSpec, gen_binary_gaussian, gen_fourclass
from hsvm.model import MultiModel, evaluate
from hsvm.solver import BinaryObjective, MultiObjective

from oracles import (
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

    certifies = True

    def __init__(self, penalties, bounds):
        super().__init__(np.ones(2))
        self.penalties, self.bounds = list(penalties), dict(bounds)
        self.calls = {"smooth_grad": 0, "penalty": 0}

    def smooth_grad(self, m, u, f=None):
        self.calls["smooth_grad"] += 1
        bound = self.bounds.get(self.calls["smooth_grad"], -math.inf)
        return self.smooth(m), self.grad(m), bound

    def penalty(self, u):
        self.calls["penalty"] += 1
        k = self.calls["penalty"]
        return float(self.penalties[k - 1]) if k <= len(self.penalties) else 1.0

    def nnz(self, u):
        return 0

    def model(self, u):
        return u.copy()


class TestLineSearch:
    def test_quadratic_accepts_exact_curvature(self):
        # f(u) = (c/2)|u|^2 has the majorization tight at L = c
        c = 3.0
        u_hat = np.array([2.0, -1.0])
        grad = c * u_hat
        f_hat = 0.5 * c * float(u_hat @ u_hat)

        L, cand, m_cand, f_cand, gap, evals = line_search(
            _Quadratic(np.zeros(2), c), u_hat, f_hat, grad, c, 10 * c, 1.5)
        assert L == c and evals == 1
        assert gap >= -1e-12 * (1 + abs(f_hat))

    def test_cap_accepts_immediately(self):
        u_hat = np.zeros(2)
        grad = np.ones(2)
        prob = _Quadratic(np.zeros(2), 200.0)  # curvature far above the cap

        L, _, _, _, _, evals = line_search(prob, u_hat, 0.0, grad,
                                           5.0, 5.0, 1.5)
        assert L == 5.0 and evals == 1

    def test_grows_until_sufficient(self):
        c = 40.0
        u_hat = np.array([1.0])
        grad = c * u_hat
        f_hat = 0.5 * c

        L, _, _, _, _, evals = line_search(_Quadratic(np.zeros(1), c), u_hat,
                                           f_hat, grad, 1.0, 1000.0, 2.0)
        assert L >= c and evals > 1
        assert L <= 1000.0

    def test_returns_margins_of_accepted_candidate(self):
        prob = _Quadratic(np.array([1.0, -2.0, 0.5]), c=3.0, L_global=4.0)
        u_hat = np.zeros(3)
        m_hat = prob.margins(u_hat)
        _, cand, m_cand, f_cand, _, evals = line_search(
            prob, u_hat, prob.smooth(m_hat), prob.grad(m_hat), 0.5, 4.0, 2.0)
        assert evals > 1
        np.testing.assert_array_equal(m_cand, prob.margins(cand))
        assert f_cand == prob.smooth(m_cand)


class TestFitBinary:
    def test_symmetric_instance_stays_at_zero(self):
        X = np.array([[1.0], [-1.0]])
        data = Dataset(X, [1, -1])
        hp = Hyperparams(1.5, 1.0, 1.0, 1.0)
        res = fit_binary(data, hp)
        assert res.model.b == 0.0
        np.testing.assert_array_equal(res.model.w, np.zeros(1))
        assert res.converged

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
        # lambda1 small enough that the screen misses features, so the
        # KKT check adds some and a second round runs
        grad_calls = [0]
        grad = BinaryObjective.grad

        def counted(prob, m, u=None):
            grad_calls[0] += 1
            return grad(prob, m, u)

        monkeypatch.setattr(BinaryObjective, "grad", counted)
        data = binary_data(seed=0, n=200, p=2000, s=20)
        res = fit_binary_two_stage(data, Hyperparams(0.005, 1.0, 1.0, 1.0))
        stages = res.trace.column("stage")
        assert stages[0] == 1 and stages[-1] >= 2
        assert set(np.diff(stages)) <= {0, 1}
        ks = res.trace.column("k")
        np.testing.assert_array_equal(ks, np.arange(1, res.iterations + 1))
        # the screen and every check are transpose products too
        assert res.grad_products == grad_calls[0]

    def test_iteration_cap_reports_not_converged(self):
        data = binary_data(seed=15, n=60, p=80, s=5)
        opts = SolverOptions(max_iter=2)
        res = fit_binary_two_stage(data, Hyperparams(0.05, 1, 1, 1), opts)
        assert not res.converged and res.stop_reason == "max_iter"
        assert res.iterations == 2 and not res.two_stage_fallback

    def test_kkt_certificate_on_small_lambda1(self):
        # the old support-stability heuristic stopped 1e-5 to 2e-4 above
        # the optimum on some of these instances and fell back to the plain
        # solver on others
        hp = Hyperparams(0.005, 1.0, 1.0, 1.0)
        opts = SolverOptions()
        rounds = []
        for seed in range(4):
            data = binary_data(seed=seed, n=200, p=2000, s=20)
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
            rounds.append(res.trace.column("stage")[-1])
        assert max(rounds) >= 2


    def test_rounds_make_no_full_width_forward_product(self, forwarded_X):
        # the screen's margins at zero read no column, and each check takes
        # the margins at its round's result from the round's own columns
        data = binary_data(seed=0, n=200, p=2000, s=20)
        hp = Hyperparams(0.005, 1.0, 1.0, 1.0)
        res = fit_binary_two_stage(data, hp)
        full = [px for px in forwarded_X if px.a is data._X]
        assert full and all("matmul" not in px.used for px in full)
        assert res.converged and res.trace.column("stage")[-1] >= 2
        plain = fit_binary(data, hp)
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
    """With lambda2, lambda3 > 0 an M-PGH fit stops once F - D_best <=
    tol F, where D_best is the best dual bound given by the gradients it
    took; ``FitResult.gap`` is (F - D_best) / F. Other fits stop on
    relative progress and have no gap."""

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
                _, _, bound = prob.smooth_grad(prob.margins(u), u)
                exact = multi_dual_direct(model.b, model.W, data, hp)
                F_opt = opt.final_objective
                assert bound <= exact + 1e-12 * abs(exact)
                assert exact <= F_opt + 1e-12 * F_opt
                if exact_at_sign:
                    assert bound == pytest.approx(exact, rel=1e-12, abs=0)
                    assert bound == pytest.approx(F_opt, rel=1e-12, abs=0)

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

        def recorded(prob, m, u, f=None):
            out = smooth_grad(prob, m, u, f)
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
        res = fit_binary(binary_data(seed=3), Hyperparams(0.05, 1.0, 1.0, 1.0))
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
        ref = fit_binary(data, hp, SolverOptions(tol=1e-12, max_iter=20000))
        u_star = np.concatenate([[ref.model.b], ref.model.w])
        res = fit_binary(data, hp, SolverOptions(tol=1e-9,
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
    ``@`` and column indexing were used."""

    def __init__(self, a):
        self.a = a
        self.used = []

    def __matmul__(self, other):
        self.used.append("matmul")
        return self.a @ other

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
            got = prob.margins(np.concatenate([[b], W[:, 0]]))
            want = y * (b + X @ W[:, 0])
        else:
            labels = rng.integers(1, J + 1, size=50)
            data = Dataset(_layouts(X)[layout], labels, kind="multiclass",
                           n_classes=J)
            b = rng.normal(size=J)
            got = MultiObjective(data, self.HP).margins(
                np.concatenate([b, W.ravel()]))
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
        m = prob.margins(np.zeros(prob.dim))
        assert forwarded_X and all(px.used == [] for px in forwarded_X)
        assert m.shape == (50,) and not np.any(m)


def _as_csr(data):
    return Dataset(sp.csr_array(data.X), data.labels, kind=data.kind,
                   n_classes=data.n_classes)


class TestDenseMatchesCsrFits:
    """A dense problem whose iterates use at most p/32 features, where
    B-PGH works on its column block, fits as the same problem on CSR does:
    equal iteration counts and zero sets, equal objectives."""

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


class TestWorkingBlock:
    """The B-PGH transpose product reads only the working block X[:, K]
    while its certificate holds; nothing the solve computes changes."""

    HP = Hyperparams(0.1, 1.0, 1.0, 1.0)
    # dense instances whose working set stays within p/32 features
    CASES = [(1, 200, 4000, 10), (2, 200, 4000, 10), (3, 100, 6400, 8)]

    @pytest.mark.parametrize("seed, n, p, s", CASES)
    def test_certificate_holds_at_every_skipped_step(self, monkeypatch,
                                                     seed, n, p, s):
        data = binary_data(seed=seed, n=n, p=p, s=s)
        grad = BinaryObjective.grad
        skipped, worst = [0], [0.0]

        def checked(prob, m, u=None):
            c_ref, K = prob._c_ref, prob._K
            g = grad(prob, m, u)
            if c_ref is None or prob._c_ref is not c_ref:
                return g        # a full product, which rebuilt the block
            skipped[0] += 1
            assert K.size * 32 <= p
            coef = hsvm.solver.huber_grad(m, prob.hp.delta) * prob.y / prob.n
            full = prob.X.T @ coef
            frozen = np.ones(p, dtype=bool)
            frozen[K] = False
            assert not np.any(g[1:][frozen])
            worst[0] = max(worst[0], np.abs(full[frozen]).max())
            np.testing.assert_allclose(g[1:][K], full[K], rtol=1e-12,
                                       atol=1e-15)
            return g

        with monkeypatch.context() as mp:
            mp.setattr(BinaryObjective, "grad", checked)
            res = fit_binary(data, self.HP)
        assert skipped[0] >= res.iterations // 2
        assert worst[0] <= self.HP.lambda1
        with monkeypatch.context() as mp:
            # no block is ever built, so every product is the full one
            mp.setattr(BinaryObjective, "_refresh",
                       lambda prob, w, gw, coef: None)
            ref = fit_binary(data, self.HP)
        assert res.iterations == ref.iterations
        assert res.grad_products == ref.grad_products
        np.testing.assert_array_equal(np.flatnonzero(res.model.w),
                                      np.flatnonzero(ref.model.w))
        assert res.final_objective == pytest.approx(ref.final_objective,
                                                    rel=1e-12)

    def test_point_outside_block_takes_full_products(self):
        data = binary_data(seed=1, n=200, p=4000, s=10)
        prob = BinaryObjective(data, self.HP)
        u = prob.point(fit_binary(data, self.HP).model)
        prob.grad(prob.margins(u), u)
        assert prob._K is not None and prob._K.size * 32 <= 4000
        # a weight off K so small that the coefficients barely move: only
        # the support test can send this point to the full products
        j = np.setdiff1d(np.arange(4000), prob._K)[0]
        u[1 + j] = 1e-9
        m = prob.margins(u)
        np.testing.assert_allclose(m, prob.y * (u[0] + data.X @ u[1:]),
                                   rtol=1e-12)
        np.testing.assert_array_equal(prob.grad(m, u), prob.grad(m))

    def test_forwarding_matrix_gives_identical_fit(self, monkeypatch,
                                                   forwarded_X):
        # the block path may use only what a wrapper of X forwards: @, .T,
        # indexing and attributes, as the benchmark's traced matrix does
        data = binary_data(seed=1, n=200, p=4000, s=10)
        res = fit_binary(data, self.HP)
        assert any("getitem" in proxy.used for proxy in forwarded_X)
        monkeypatch.undo()      # the plain matrix again
        plain = fit_binary(data, self.HP)
        assert res.iterations == plain.iterations
        assert res.final_objective == plain.final_objective
        np.testing.assert_array_equal(res.model.w, plain.model.w)

    def test_small_problem_never_builds_a_block(self, monkeypatch):
        # 45 x 300 (a fold of the criterion-3 set): K always exceeds p/32,
        # so the solve pays only for the gate
        data = binary_data(seed=7, n=50, p=300, s=20)
        fold = hsvm.tuning.kfold_split(50, 10, data.labels, seed=7)[0]
        train = data.subset(np.setdiff1d(np.arange(50), fold))
        grad = BinaryObjective.grad
        blocks = []

        def recorded(prob, m, u=None):
            g = grad(prob, m, u)
            blocks.append(prob._K)
            return g

        monkeypatch.setattr(BinaryObjective, "grad", recorded)
        for lam1 in np.logspace(-2, -0.5, 4):
            for lam2 in (0.1, 1.0, 10.0):
                fit_binary(train, Hyperparams(lam1, lam2, lam2, 1.0))
        assert blocks and all(K is None for K in blocks)

    def test_csr_never_builds_a_block(self):
        data = _as_csr(binary_data(seed=1, n=200, p=4000, s=10))
        prob = BinaryObjective(data, self.HP)
        res = hsvm.solver._run_pg_loop(prob, SolverOptions())
        assert res.converged and prob._K is None

    def test_known_smooth_value_reused_on_unextrapolated_steps(self,
                                                              monkeypatch):
        # a step with omega = 0 (the first, the restart's re-update and the
        # one after it) starts at the current iterate, whose smooth value
        # the previous line search returned; every other step evaluates
        # the smooth part once at its extrapolated point
        calls = [0]
        loss = hsvm.solver.huber_loss

        def counted(m, delta):
            calls[0] += 1
            return loss(m, delta)

        monkeypatch.setattr(hsvm.solver, "huber_loss", counted)
        res = fit_binary(binary_data(seed=3), self.HP)
        omega = res.trace.column("omega")
        assert res.trace.column("restarted").any()
        assert calls[0] == (1 + res.trace.column("ls_evals").sum()
                            + res.grad_products - np.count_nonzero(omega == 0))


# The hsvm.solver globals that the benchmark's traced run rebinds. Each must
# stay a module global that the solve path calls, or its span goes missing.
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
        assert [name for name, n in calls.items() if n == 0] == []

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from hsvm import (
    Dataset,
    DomainError,
    Hyperparams,
    LabelError,
    SolverOptions,
    ablation_run,
    binary_objective,
    check_stop,
    detect_support,
    extrapolation_weight,
    fit_binary,
    fit_binary_two_stage,
    fit_multi,
    line_search,
    multi_objective,
)
from hsvm.data import SynthSpec, gen_binary_gaussian, gen_fourclass
from hsvm.model import evaluate
from hsvm.solver import _run_pg_loop, _support_product

from oracles import grid_minimize, projected_subgradient


def binary_data(seed=0, n=60, p=20, s=5, rho=0.0):
    return gen_binary_gaussian(
        SynthSpec(kind="binary_gaussian", n=n, p=p, s=s, rho=rho, seed=seed))


class TestSolverOptions:
    @pytest.mark.parametrize("field", ["tol", "stage1_tol", "eta", "L0"])
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
            stop, counter = check_stop(1.0, 1.0, u, u, 1e-6, counter, 3)
        assert stop

    def test_counter_resets_on_violation(self):
        u = np.ones(4)
        counter = 0
        _, counter = check_stop(1.0, 1.0, u, u, 1e-6, counter)
        _, counter = check_stop(1.0, 1.0, u, u, 1e-6, counter)
        stop, counter = check_stop(1.0, 0.5, u, u, 1e-6, counter)
        assert not stop and counter == 0

    def test_boundary_counts_as_satisfied(self):
        # ratios exactly equal to tol pass (<=, not <)
        tol = 1e-6
        F_prev = 1.0
        F_curr = F_prev - tol * (1 + F_prev)
        u_prev = np.zeros(1)
        u_curr = np.array([tol * (1 + 0.0)])
        counter = 0
        for _ in range(3):
            stop, counter = check_stop(F_prev, F_curr, u_prev, u_curr,
                                       tol, counter, 3)
        assert stop


class TestDetectSupport:
    def test_stable_pattern(self):
        pats = [(1, 3), (1, 3), (1, 3)]
        np.testing.assert_array_equal(detect_support(pats, 3), [1, 3])

    def test_unstable_pattern(self):
        assert detect_support([(1,), (1, 2), (1,)], 3) is None

    def test_window_one_returns_last(self):
        np.testing.assert_array_equal(detect_support([(5,), (2, 4)], 1), [2, 4])

    def test_too_few_patterns(self):
        assert detect_support([(1,)], 3) is None


class _Quadratic:
    """f(u) = (c/2)|u - target|^2 with identity margins and no penalty: a
    duck-typed problem for the engine and the line search. The
    majorization with step constant L holds exactly when L >= c."""

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

    def penalty(self, u):
        return 0.0

    def prox(self, u_hat, grad, L):
        return u_hat - grad / L

    def nnz(self, u):
        return int(np.count_nonzero(u))

    def model(self, u):
        return u.copy()


class TestSupportHistory:
    def test_memory_bounded_when_support_never_settles(self):
        # support alternates between two disjoint 1000-index sets, so
        # stage 1 runs to max_iter; the kept supports must not grow with it
        prob = _Quadratic(np.linspace(-1.0, 1.0, 20_000))
        calls = [0]

        def support(u):
            calls[0] += 1
            return np.arange(1000) + 1000 * (calls[0] % 2)

        prob.support = support

        def peak(max_iter):
            opts = SolverOptions(max_iter=max_iter, consec_stop=10 ** 6,
                                 backtracking=False, extrapolation="none")
            tracemalloc.start()
            try:
                res = _run_pg_loop(prob, opts, support_window=3)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert res.iterations == max_iter and res.stop_reason == "max_iter"
            assert res.support is None
            return top

        assert peak(400) <= 1.5 * peak(100)


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
            return binary_objective(
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
        opts = SolverOptions(monotone=False)
        res = fit_binary(data, Hyperparams(0.05, 0.1, 0.1, 1.0), opts)
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
        opts = SolverOptions(check_margin_drift=True)
        res = fit_binary(data, Hyperparams(0.1, 1.0, 1.0, 1.0), opts)
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
        if not res.two_stage_fallback:
            assert res.support.size == 10

    def test_stage_boundary_marked(self):
        data = binary_data(seed=13, n=80, p=120, s=5)
        res = fit_binary_two_stage(data, Hyperparams(0.1, 1.0, 1.0, 1.0))
        stages = res.trace.column("stage")
        assert stages[0] == 1 and stages[-1] == 2
        assert np.all(np.diff(stages) >= 0)
        ks = res.trace.column("k")
        assert np.all(np.diff(ks) == 1)

    def test_requires_looser_stage1_tol(self):
        data = binary_data(seed=14)
        with pytest.raises(DomainError):
            fit_binary_two_stage(data, Hyperparams(0.1, 1, 1, 1),
                                 SolverOptions(tol=1e-2, stage1_tol=1e-3))

    def test_fallback_on_unstable_support(self):
        data = binary_data(seed=15, n=60, p=80, s=5)
        opts = SolverOptions(max_iter=2)  # too few to stabilize
        res = fit_binary_two_stage(data, Hyperparams(0.05, 1, 1, 1), opts)
        assert res.two_stage_fallback


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
        parts = multi_objective(res.model, data, hp)
        assert parts.total == pytest.approx(res.final_objective, rel=1e-12)

    def test_rejects_binary_labels(self):
        data = Dataset(np.zeros((2, 2)), [1, -1])
        with pytest.raises(LabelError):
            fit_multi(data, Hyperparams(0.1, 1, 1, 1))

    def test_learns_separated_classes(self):
        # s = 16 puts the nearest class pair 4 sigma apart
        data = gen_fourclass(SynthSpec(kind="four_class", n=120, p=30, s=16,
                                       rho=0.0, seed=21))
        res = fit_multi(data, Hyperparams(0.05, 1.0, 1.0, 1.0))
        assert evaluate(res.model, data).accuracy >= 0.95


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


P_SUPPORT = 320    # p/32 = 10


def _support_operand(rng, p, shape, k):
    V = np.zeros((p,) + shape)
    rows = rng.choice(p, size=k, replace=False)
    V[rows] = rng.normal(size=(k,) + shape)
    return V


def _layouts(X):
    return {"C": np.ascontiguousarray(X), "F": np.asfortranarray(X),
            "csr": sp.csr_array(X)}


class TestSupportProduct:
    @pytest.mark.parametrize("layout", ["C", "F", "csr"])
    @pytest.mark.parametrize("shape", [(), (4,)])
    @pytest.mark.parametrize("k", [1, P_SUPPORT // 32 - 1, P_SUPPORT // 32 + 1,
                                   P_SUPPORT])
    def test_matches_plain_product(self, layout, shape, k):
        rng = np.random.default_rng(k)
        X = _layouts(rng.normal(size=(50, P_SUPPORT)))[layout]
        V = _support_operand(rng, P_SUPPORT, shape, k)
        got = _support_product(X, V)
        want = X @ V
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("layout", ["C", "F", "csr"])
    @pytest.mark.parametrize("shape", [(), (4,)])
    def test_zero_operand_gives_exact_zeros(self, layout, shape):
        rng = np.random.default_rng(0)
        X = _layouts(rng.normal(size=(50, P_SUPPORT)))[layout]
        got = _support_product(X, np.zeros((P_SUPPORT,) + shape))
        assert got.shape == (50,) + shape
        assert not np.any(got)

    @pytest.mark.parametrize("shape", [(), (4,)])
    def test_dense_gathers_only_below_threshold(self, shape):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, P_SUPPORT))
        for k, path in [(P_SUPPORT // 32, ["getitem"]),
                        (P_SUPPORT // 32 + 1, ["matmul"])]:
            proxy = _ForwardingMatrix(X)
            _support_product(proxy, _support_operand(rng, P_SUPPORT, shape, k))
            assert proxy.used == path

    def test_rows_counted_not_entries(self):
        # 40 nonzero entries spread over 40 of 320 rows pass the entry count
        # (40 * 32 <= 1280) but not the row count
        V = np.zeros((P_SUPPORT, 4))
        V[np.arange(40) * 8, 0] = 1.0
        proxy = _ForwardingMatrix(np.ones((5, P_SUPPORT)))
        np.testing.assert_array_equal(_support_product(proxy, V),
                                      np.ones((5, P_SUPPORT)) @ V)
        assert proxy.used == ["matmul"]

    def test_sparse_never_gathers(self):
        rng = np.random.default_rng(2)
        X = sp.csr_array(rng.normal(size=(50, P_SUPPORT)))
        proxy = _ForwardingMatrix(X)
        _support_product(proxy, _support_operand(rng, P_SUPPORT, (), 1))
        assert proxy.used == ["matmul"]


def _as_csr(data):
    return Dataset(sp.csr_array(data.X), data.labels, kind=data.kind,
                   n_classes=data.n_classes)


class TestSupportProductFits:
    """A dense problem whose iterates use fewer than p/32 features takes
    the column-gather product; the same fit on CSR takes the plain one."""

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

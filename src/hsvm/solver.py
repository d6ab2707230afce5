"""Accelerated proximal gradient solvers for the huberized SVM objectives.

Three training entry points share one iteration skeleton:

* ``fit_binary``   -- B-PGH: extrapolated proximal gradient with
  backtracking on the step constant and a monotone re-update whenever the
  extrapolated step increases the objective.
* ``fit_binary_two_stage`` -- B-PGH-2: a support-identification stage run
  with the fixed global step constant and no extrapolation, followed by a
  full-accuracy solve restricted to the detected support.
* ``fit_multi``    -- M-PGH: the same loop over (b, W) with the closed-form
  zero-sum intercept step and the row-decomposed dual prox.

Per iteration the data matrix is touched by one gradient (transpose)
product and one forward margin product per candidate evaluation; the
extrapolated margins are formed from the two cached margin vectors, never
from a fresh product. On a dense matrix the forward product reads only
the columns of the features the candidate uses, once those are at most
1/32 of all features: proximal gradient identifies the solution's support
after finitely many steps, so on sparse problems this holds for all but
the first few products. The transpose product reads the whole matrix.
The step constant only grows within an iteration
(L_k = min(eta^{n_k} L_{k-1}, L_global)) and each accepted step satisfies
the sufficient-decrease inequality; the extrapolation weight is capped at
sqrt(L_{k-1}/L_k), re-extrapolating when backtracking raised L.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import islice
from typing import IO, Callable, Optional, Sequence

import numpy as np

from .data import Dataset
from .errors import ConstraintError, DomainError, LabelError, StateError
from .losses import (
    Hyperparams,
    binary_penalty,
    huber_grad,
    huber_loss,
    lipschitz_binary,
    lipschitz_multi,
    multi_grad_from_margins,
    multi_penalty,
    multi_smooth_from_margins,
)
from .model import BinaryModel, MultiModel
from .prox import binary_prox_step, multi_b_step, multi_w_step

EXTRAPOLATION_MODES = ("fista_capped", "none")


@dataclass
class SolverOptions:
    """Run configuration shared by all solvers.

    ``L0 = None`` selects the defaults 2 L_f / n (binary) and L_m / (n J)
    (multi), both clamped to the global constant. ``backtracking = False``
    pins the step constant to the global Lipschitz constant, as used by the
    first stage of the two-stage method and by the fixed-step ablation.
    """

    eta: float = 1.5
    L0: Optional[float] = None
    tol: float = 1e-6
    max_iter: int = 5000
    extrapolation: str = "fista_capped"
    monotone: bool = True
    backtracking: bool = True
    consec_stop: int = 3
    stage1_tol: float = 1e-3
    support_stable_iters: int = 3
    record_iterates: bool = False
    check_margin_drift: bool = False

    def __post_init__(self):
        if self.eta <= 1:
            raise DomainError("eta must exceed 1")
        if self.tol <= 0 or self.stage1_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.max_iter < 1 or self.consec_stop < 1 or self.support_stable_iters < 1:
            raise DomainError("iteration counts must be positive")
        if self.extrapolation not in EXTRAPOLATION_MODES:
            raise DomainError(f"unknown extrapolation mode {self.extrapolation!r}")
        if self.L0 is not None and self.L0 <= 0:
            raise DomainError("L0 must be positive")


@dataclass
class TraceRow:
    k: int
    F: float
    L: float
    omega: float
    step_norm: float
    restarted: bool
    nnz: int
    stage: int = 1
    n_products: int = 1      # forward margin products spent this iteration
    ls_evals: int = 1        # candidate evaluations (1 + retries)
    suff_gap: float = 0.0    # majorization bound minus smooth value at accept


class SolverTrace:
    """Per-iteration diagnostics; rows are appended as iterations finish."""

    CSV_HEADER = "k,F,L,omega,step,restart,nnz"

    def __init__(self):
        self.rows: list[TraceRow] = []

    def append(self, row: TraceRow):
        self.rows.append(row)

    def __len__(self):
        return len(self.rows)

    def column(self, name) -> np.ndarray:
        return np.asarray([getattr(r, name) for r in self.rows])

    def to_csv(self, stream: IO[str]) -> None:
        stream.write(self.CSV_HEADER + "\n")
        for r in self.rows:
            stream.write(f"{r.k},{r.F:.17g},{r.L:.17g},{r.omega:.17g},"
                         f"{r.step_norm:.17g},{int(r.restarted)},{r.nnz}\n")


@dataclass
class SolverState:
    """Mutable loop state: current/previous iterates and margins, the FISTA
    scalar, and the accepted step constants."""

    u_curr: np.ndarray
    u_prev: np.ndarray
    t_curr: float
    L_curr: float
    L_prev: float
    margins_curr: np.ndarray
    margins_prev: np.ndarray
    k: int
    F_curr: float


@dataclass
class FitResult:
    model: object
    trace: SolverTrace
    iterations: int
    converged: bool
    final_objective: float
    stop_reason: str = "max_iter"
    two_stage_fallback: bool = False
    support: Optional[np.ndarray] = None
    iterates: Optional[list] = None
    grad_products: int = 0


def extrapolation_weight(t_prev, t_curr, L_prev, L_curr) -> float:
    """min((t_prev - 1)/t_curr, sqrt(L_prev/L_curr)); the caller advances t
    by the FISTA recursion t_k = (1 + sqrt(1 + 4 t_{k-1}^2)) / 2."""
    if t_prev < 1 or t_curr < 1:
        raise DomainError("FISTA scalars must be >= 1")
    if L_prev <= 0 or L_curr <= 0:
        raise DomainError("step constants must be positive")
    return min((t_prev - 1.0) / t_curr, math.sqrt(L_prev / L_curr))


def check_stop(F_prev, F_curr, u_prev, u_curr, tol, counter, consec=3):
    """Relative-progress stopping rule; both ratios must stay below tol for
    ``consec`` consecutive iterations. Returns (stop, updated counter)."""
    du = np.linalg.norm(np.ravel(u_prev) - np.ravel(u_curr))
    obj_ok = (F_prev - F_curr) / (1.0 + abs(F_prev)) <= tol
    step_ok = du / (1.0 + np.linalg.norm(np.ravel(u_prev))) <= tol
    counter = counter + 1 if (obj_ok and step_ok) else 0
    return counter >= consec, counter


def detect_support(recent_patterns: Sequence, stable_iters: int):
    """The common nonzero pattern once the last ``stable_iters`` recorded
    patterns are identical, else None."""
    if stable_iters < 1:
        raise DomainError("stable_iters must be positive")
    if len(recent_patterns) < stable_iters:
        return None
    tail = [np.asarray(p) for p in islice(
        recent_patterns, len(recent_patterns) - stable_iters, None)]
    if all(np.array_equal(t, tail[0]) for t in tail):
        return np.asarray(tail[0], dtype=np.int64)
    return None


def line_search(u_hat, f_hat, grad, prox_step, smooth_value,
                L_start, L_global, eta):
    """Backtracking on the step constant: starting from L_start, multiply
    by eta (capped at L_global) until the proximal candidate u+ satisfies

        f(u+) <= f(u_hat) + <grad, u+ - u_hat> + (L/2) ||u+ - u_hat||^2.

    The cap always satisfies the test, so termination is guaranteed.
    Returns (L, candidate, f(candidate), gap, evals).
    """
    L = min(L_start, L_global)
    evals = 0
    while True:
        cand = prox_step(L)
        f_cand = smooth_value(cand)
        evals += 1
        d = cand - u_hat
        bound = f_hat + float(grad @ d) + 0.5 * L * float(d @ d)
        gap = bound - f_cand
        # Tiny slack absorbs roundoff when the bound holds with equality.
        if gap >= -1e-12 * (1.0 + abs(bound)) or L >= L_global:
            return L, cand, f_cand, gap, evals
        L = min(eta * L, L_global)


class _Problem:
    """Objective plumbing shared by the binary and multi-class engines.

    ``margins_of`` performs the single forward data product per candidate;
    ``grad_at`` performs the transpose product. Both count into the
    instrumentation counters read by the trace.
    """

    def __init__(self, margins_of, smooth_from_margins, grad_from_margins,
                 penalty, prox, nnz_of, dim):
        self.margins_of = margins_of
        self.smooth_from_margins = smooth_from_margins
        self.grad_from_margins = grad_from_margins
        self.penalty = penalty
        self.prox = prox
        self.nnz_of = nnz_of
        self.dim = dim


def _run_pg_loop(prob: _Problem, opts: SolverOptions, L_global: float,
                 stage: int = 1,
                 support_of: Optional[Callable] = None,
                 support_window: Optional[int] = None,
                 feasibility_check: Optional[Callable] = None):
    """Shared iteration loop; see the module docstring for the scheme.

    With ``support_of`` and ``support_window`` the loop also stops once the
    last ``support_window`` supports agree; only those are kept, so a
    support that never settles costs no memory per iteration.
    """
    u0 = np.zeros(prob.dim)
    m0 = prob.margins_of(u0)
    f0 = prob.smooth_from_margins(m0)
    if opts.backtracking:
        L_init = min(opts.L0, L_global) if opts.L0 is not None else L_global
    else:
        L_init = L_global
    st = SolverState(
        u_curr=u0, u_prev=u0.copy(), t_curr=1.0, L_curr=L_init,
        L_prev=L_init, margins_curr=m0, margins_prev=m0.copy(), k=0,
        F_curr=f0 + prob.penalty(u0))
    trace = SolverTrace()
    iterates = [] if opts.record_iterates else None
    patterns: deque = deque(maxlen=support_window)
    grad_products = 0
    counter = 0
    stop_reason = "max_iter"
    use_extrap = opts.extrapolation == "fista_capped"

    for k in range(1, opts.max_iter + 1):
        products = 0
        evals = 0
        t_prev = st.t_curr
        t_curr = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))
        fista_w = (t_prev - 1.0) / t_curr

        holder = {}

        def smooth_value(u):
            m = prob.margins_of(u)
            holder["margins"] = m
            return prob.smooth_from_margins(m)

        L_start = st.L_curr if opts.backtracking else L_global
        while True:
            omega = (min(fista_w, math.sqrt(st.L_curr / L_start))
                     if use_extrap else 0.0)
            m_hat = (st.margins_curr
                     + omega * (st.margins_curr - st.margins_prev))
            u_hat = st.u_curr + omega * (st.u_curr - st.u_prev)
            f_hat = prob.smooth_from_margins(m_hat)
            grad = prob.grad_from_margins(m_hat)
            grad_products += 1

            def prox_step(L, u_hat=u_hat, grad=grad):
                return prob.prox(u_hat, grad, L)

            L_acc, cand, f_cand, gap, ev = line_search(
                u_hat, f_hat, grad, prox_step, smooth_value,
                L_start, L_global, opts.eta)
            evals += ev
            products += ev
            if not use_extrap or L_acc == L_start:
                break
            if omega <= math.sqrt(st.L_curr / L_acc) + 1e-15:
                break
            # Backtracking raised L beyond the extrapolation cap;
            # re-extrapolate with the tighter weight at the new constant.
            L_start = L_acc
        omega_used = omega
        m_cand = holder["margins"]
        F_cand = f_cand + prob.penalty(cand)

        restarted = False
        if opts.monotone and F_cand > st.F_curr:
            # Extrapolated step increased F: re-update from the previous
            # iterate (omega = 0) and reset the momentum scalar.
            restarted = True
            f_curr = prob.smooth_from_margins(st.margins_curr)
            grad0 = prob.grad_from_margins(st.margins_curr)
            grad_products += 1

            def prox_step0(L, grad0=grad0):
                return prob.prox(st.u_curr, grad0, L)

            L_acc, cand, f_cand, gap, ev2 = line_search(
                st.u_curr, f_curr, grad0, prox_step0, smooth_value,
                L_acc, L_global, opts.eta)
            evals += ev2
            products += ev2
            m_cand = holder["margins"]
            F_cand = f_cand + prob.penalty(cand)
            omega_used = 0.0
            t_curr = 1.0

        step_norm = float(np.linalg.norm(cand - st.u_curr))
        F_prev = st.F_curr
        u_prev_iter = st.u_curr
        st.u_prev, st.u_curr = st.u_curr, cand
        st.margins_prev, st.margins_curr = st.margins_curr, m_cand
        st.L_prev, st.L_curr = st.L_curr, L_acc
        st.t_curr = t_curr
        st.F_curr = F_cand
        st.k = k

        if feasibility_check is not None:
            feasibility_check(cand)
        if opts.check_margin_drift and k % 100 == 0:
            fresh = prob.margins_of(cand)
            if np.abs(fresh - m_cand).max() > 1e-8:
                raise StateError("margin cache drifted beyond 1e-8")

        trace.append(TraceRow(
            k=k, F=F_cand, L=L_acc, omega=omega_used, step_norm=step_norm,
            restarted=restarted, nnz=prob.nnz_of(cand), stage=stage,
            n_products=products, ls_evals=evals, suff_gap=gap))
        if iterates is not None:
            iterates.append(cand.copy())

        if support_window is not None and support_of is not None:
            patterns.append(support_of(cand))
            if detect_support(patterns, support_window) is not None:
                stop_reason = "support_stable"
                break

        stop, counter = check_stop(F_prev, F_cand, u_prev_iter, cand,
                                   opts.tol, counter, opts.consec_stop)
        if stop:
            stop_reason = "converged"
            break

    support = (detect_support(patterns, support_window)
               if support_window is not None else None)
    return st, trace, stop_reason, support, iterates, grad_products


# A dense forward product X @ V gathers the columns of X at the nonzero
# rows of V once at most 1/32 of those rows are nonzero. Gathering random
# columns of a 2000 x 20000 C-order X costs 0.46x the full product at
# p/32, 0.8x at p/16 and 1.65x at p/8.
_SUPPORT_FRACTION = 32


def _support_product(X, V):
    """``X @ V`` for V of shape (p,) or (p, J). A dense X with at most p/32
    nonzero rows of V is read only at those columns.

    A sparse X always takes the plain product, which already scales with
    nnz(X). Sparse is recognised by ``tocsr`` rather than by type, so a
    wrapper that forwards attributes to the matrix takes the same path as
    the matrix itself. The nonzero count is checked first because it is
    far cheaper than finding the nonzero rows of a dense V.
    """
    if (hasattr(X, "tocsr")
            or np.count_nonzero(V) * _SUPPORT_FRACTION > V.size):
        return X @ V
    active = V if V.ndim == 1 else V.any(axis=1)
    rows = np.flatnonzero(active)
    if rows.size * _SUPPORT_FRACTION > V.shape[0]:
        return X @ V
    return X[:, rows] @ V[rows]


def _binary_problem(data: Dataset, hp: Hyperparams):
    X = data.X
    y = data.labels.astype(float)
    n = data.n
    p = data.n_features
    delta = hp.delta

    def margins_of(u):
        return y * (u[0] + np.asarray(_support_product(X, u[1:])).ravel())

    def smooth_from_margins(m):
        return float(np.mean(huber_loss(m, delta)))

    def grad_from_margins(m):
        coef = huber_grad(m, delta) * y / n
        return np.concatenate([[coef.sum()], np.asarray(X.T @ coef).ravel()])

    def penalty(u):
        return binary_penalty(u[0], u[1:], hp)

    def prox(u_hat, grad, L):
        b, w = binary_prox_step(u_hat[0], u_hat[1:], grad[0], grad[1:], L, hp)
        return np.concatenate([[b], w])

    def nnz_of(u):
        return int(np.count_nonzero(u[1:]))

    return _Problem(margins_of, smooth_from_margins, grad_from_margins,
                    penalty, prox, nnz_of, dim=p + 1)


def _binary_result(st, trace, stop_reason, support, iterates, grad_products,
                   fallback=False) -> FitResult:
    model = BinaryModel(b=float(st.u_curr[0]), w=st.u_curr[1:].copy())
    return FitResult(
        model=model, trace=trace, iterations=st.k,
        converged=stop_reason == "converged", final_objective=st.F_curr,
        stop_reason=stop_reason, two_stage_fallback=fallback,
        support=support, iterates=iterates, grad_products=grad_products)


def fit_binary(data: Dataset, hp: Hyperparams,
               opts: Optional[SolverOptions] = None) -> FitResult:
    """Train the binary model by extrapolated proximal gradient descent,
    starting from the zero vector."""
    opts = opts or SolverOptions()
    if data.kind != "binary":
        raise LabelError("fit_binary requires +1/-1 labels")
    L_f = lipschitz_binary(data, hp.delta)
    run_opts = opts
    if opts.backtracking and opts.L0 is None:
        run_opts = replace(opts, L0=min(2.0 * L_f / data.n, L_f))
    out = _run_pg_loop(_binary_problem(data, hp), run_opts, L_f)
    return _binary_result(*out)


def fit_binary_two_stage(data: Dataset, hp: Hyperparams,
                         opts: Optional[SolverOptions] = None) -> FitResult:
    """Two-stage solve: detect the weight support with the fixed global
    step constant and no extrapolation at the loose stage tolerance, then
    re-solve at full tolerance with the complement frozen at zero.

    Falls back to the plain solver (flagged on the result) if the support
    never stabilizes within the iteration budget.
    """
    opts = opts or SolverOptions()
    if data.kind != "binary":
        raise LabelError("fit_binary_two_stage requires +1/-1 labels")
    if opts.tol >= opts.stage1_tol:
        raise DomainError("two-stage use requires tol < stage1_tol")
    L_f = lipschitz_binary(data, hp.delta)
    stage1_opts = replace(opts, backtracking=False, extrapolation="none",
                          tol=opts.stage1_tol)
    st1, trace1, reason1, support, iters1, gp1 = _run_pg_loop(
        _binary_problem(data, hp), stage1_opts, L_f, stage=1,
        support_of=lambda u: np.flatnonzero(u[1:]),
        support_window=opts.support_stable_iters)
    if support is None:
        result = fit_binary(data, hp, opts)
        result.two_stage_fallback = True
        return result

    # Stage 2 on the reduced problem; indices map back via `support`.
    reduced = data.restrict_features(support)
    res2 = fit_binary(reduced, hp, opts)
    w_full = np.zeros(data.n_features)
    w_full[support] = res2.model.w
    model = BinaryModel(b=res2.model.b, w=w_full)

    trace = SolverTrace()
    for row in trace1.rows:
        trace.append(row)
    offset = len(trace1)
    for row in res2.trace.rows:
        trace.append(replace(row, k=row.k + offset, stage=2))
    return FitResult(
        model=model, trace=trace, iterations=st1.k + res2.iterations,
        converged=res2.converged, final_objective=res2.final_objective,
        stop_reason=res2.stop_reason, support=support,
        iterates=res2.iterates, grad_products=gp1 + res2.grad_products)


def fit_multi(data: Dataset, hp: Hyperparams,
              opts: Optional[SolverOptions] = None) -> FitResult:
    """Train the multi-class model; every iterate satisfies the zero-sum
    constraints by construction of the two prox steps."""
    opts = opts or SolverOptions()
    if data.kind != "multiclass":
        raise LabelError("fit_multi requires labels in 1..J")
    J = data.n_classes
    if J < 2:
        raise LabelError("need at least two classes")
    p = data.n_features
    n = data.n
    X = data.X
    delta = hp.delta
    L_m = lipschitz_multi(data, delta, J)

    def unpack(u):
        return u[:J], u[J:].reshape(p, J)

    def margins_of(u):
        b, W = unpack(u)
        return (np.asarray(_support_product(X, W)) + b).ravel()

    def smooth_from_margins(m):
        return multi_smooth_from_margins(m.reshape(n, J), data.labels, delta)

    def grad_from_margins(m):
        gb, gW = multi_grad_from_margins(m.reshape(n, J), data, delta)
        return np.concatenate([gb, gW.ravel()])

    def penalty(u):
        b, W = unpack(u)
        return multi_penalty(b, W, hp)

    def prox(u_hat, grad, L):
        bh, Wh = unpack(u_hat)
        gb, gW = unpack(grad)
        b = multi_b_step(bh, gb, L, hp.lambda3)
        W = multi_w_step(Wh, gW, L, hp.lambda1, hp.lambda2)
        return np.concatenate([b, W.ravel()])

    def nnz_of(u):
        return int(np.count_nonzero(u[J:]))

    def feasibility_check(u):
        b, W = unpack(u)
        if np.abs(W.sum(axis=1)).max(initial=0.0) > 1e-10:
            raise ConstraintError("weight rows left the zero-sum subspace")
        if abs(b.sum()) > 1e-12:
            raise ConstraintError("intercepts left the zero-sum subspace")

    run_opts = opts
    if opts.backtracking and opts.L0 is None:
        run_opts = replace(opts, L0=min(L_m / (n * J), L_m))
    prob = _Problem(margins_of, smooth_from_margins, grad_from_margins,
                    penalty, prox, nnz_of, dim=J + p * J)
    st, trace, stop_reason, _, iterates, gp = _run_pg_loop(
        prob, run_opts, L_m, feasibility_check=feasibility_check)
    b, W = unpack(st.u_curr)
    model = MultiModel(b=b.copy(), W=W.copy())
    return FitResult(
        model=model, trace=trace, iterations=st.k,
        converged=stop_reason == "converged", final_objective=st.F_curr,
        stop_reason=stop_reason, iterates=iterates, grad_products=gp)


ABLATION_SETTINGS = ("ours", "fixed_L_no_monotone", "backtrack_no_monotone")


def ablation_run(data: Dataset, hp: Hyperparams, setting: str,
                 opts: Optional[SolverOptions] = None) -> FitResult:
    """Run fit_binary under one of the step-rule/monotonicity settings
    compared in the solver ablation; all share the stopping rule."""
    opts = opts or SolverOptions()
    if setting == "ours":
        run = replace(opts, backtracking=True, monotone=True,
                      extrapolation="fista_capped")
    elif setting == "fixed_L_no_monotone":
        run = replace(opts, backtracking=False, monotone=False,
                      extrapolation="fista_capped")
    elif setting == "backtrack_no_monotone":
        run = replace(opts, backtracking=True, monotone=False,
                      extrapolation="fista_capped")
    else:
        raise DomainError(f"unknown ablation setting {setting!r}")
    return fit_binary(data, hp, run)

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

Each model is one problem object (``_BinaryProblem``, ``_MultiProblem``)
over a flat parameter vector u. It owns the label check, the global
Lipschitz constant and the default initial step constant, and provides
``margins``, ``smooth``, ``grad``, ``penalty``, ``prox``, ``nnz`` and
``model``. ``_run_pg_loop`` runs on such an object and returns the
``FitResult``.

Per iteration the data matrix is touched by one gradient (transpose)
product and one forward margin product per candidate evaluation.
``line_search`` returns the accepted candidate's margins along with it,
and the extrapolated margins are formed from the two cached margin
vectors, never from a fresh product. On a dense matrix the forward
product reads only the columns of the features the candidate uses, once
those are at most 1/32 of all features: proximal gradient identifies the
solution's support after finitely many steps, so on sparse problems this
holds for all but the first few products. The transpose product reads
the whole matrix. The step constant only grows within an iteration
(L_k = min(eta^{n_k} L_{k-1}, L_global)) and each accepted step satisfies
the sufficient-decrease inequality; the extrapolation weight
(``extrapolation_weight``) is capped at sqrt(L_{k-1}/L_k),
re-extrapolating when backtracking raised L.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import islice
from typing import IO, Optional, Sequence

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
        # Every comparison with NaN is false, so the range checks below
        # would let a NaN through.
        reals = (self.eta, self.tol, self.stage1_tol,
                 1.0 if self.L0 is None else self.L0)
        if not all(math.isfinite(v) for v in reals):
            raise DomainError("eta, tol, stage1_tol and L0 must be finite")
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


def line_search(prob, u_hat, f_hat, grad, L_start, L_global, eta):
    """Backtracking on the step constant: starting from L_start, multiply
    by eta (capped at L_global) until the proximal candidate
    u+ = prob.prox(u_hat, grad, L) satisfies

        f(u+) <= f(u_hat) + <grad, u+ - u_hat> + (L/2) ||u+ - u_hat||^2.

    The cap always satisfies the test, so termination is guaranteed.
    Returns (L, candidate, margins of candidate, f(candidate), gap, evals).
    """
    L = min(L_start, L_global)
    evals = 0
    while True:
        cand = prob.prox(u_hat, grad, L)
        m_cand = prob.margins(cand)
        f_cand = prob.smooth(m_cand)
        evals += 1
        d = cand - u_hat
        bound = f_hat + float(grad @ d) + 0.5 * L * float(d @ d)
        gap = bound - f_cand
        # Tiny slack absorbs roundoff when the bound holds with equality.
        if gap >= -1e-12 * (1.0 + abs(bound)) or L >= L_global:
            return L, cand, m_cand, f_cand, gap, evals
        L = min(eta * L, L_global)


def _step(prob, u_base, m_base, L_start, eta):
    """One proximal gradient step from ``u_base`` (whose margins are
    ``m_base``): smooth value, one transpose product, then the line
    search. Returns what ``line_search`` returns."""
    f_base = prob.smooth(m_base)
    grad = prob.grad(m_base)
    return line_search(prob, u_base, f_base, grad, L_start, prob.L_global,
                       eta)


def _run_pg_loop(prob, opts: SolverOptions,
                 support_window: Optional[int] = None) -> FitResult:
    """Shared iteration loop; see the module docstring for the scheme.

    With ``support_window`` the loop also stops once the last
    ``support_window`` values of ``prob.support`` agree; only those are
    kept, so a support that never settles costs no memory per iteration.
    """
    u = np.zeros(prob.dim)
    m = prob.margins(u)
    F = prob.smooth(m) + prob.penalty(u)
    u_prev, m_prev = u, m
    t = 1.0
    if opts.backtracking:
        L = min(opts.L0 if opts.L0 is not None else prob.L0, prob.L_global)
    else:
        L = prob.L_global
    trace = SolverTrace()
    iterates = [] if opts.record_iterates else None
    patterns: deque = deque(maxlen=support_window)
    support = None
    grad_products = 0
    counter = 0
    stop_reason = "max_iter"
    use_extrap = opts.extrapolation == "fista_capped"

    for k in range(1, opts.max_iter + 1):
        evals = 0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        L_start = L
        while True:
            omega = (extrapolation_weight(t, t_next, L, L_start)
                     if use_extrap else 0.0)
            m_hat = m + omega * (m - m_prev)
            u_hat = u + omega * (u - u_prev)
            L_acc, cand, m_cand, f_cand, gap, ev = _step(
                prob, u_hat, m_hat, L_start, opts.eta)
            grad_products += 1
            evals += ev
            if (not use_extrap or L_acc == L_start
                    or omega <= math.sqrt(L / L_acc) + 1e-15):
                break
            # Backtracking raised L beyond the extrapolation cap;
            # re-extrapolate with the tighter weight at the new constant.
            L_start = L_acc
        F_cand = f_cand + prob.penalty(cand)

        restarted = opts.monotone and F_cand > F
        if restarted:
            # Extrapolated step increased F: re-update from the previous
            # iterate (omega = 0) and reset the momentum scalar.
            L_acc, cand, m_cand, f_cand, gap, ev = _step(
                prob, u, m, L_acc, opts.eta)
            grad_products += 1
            evals += ev
            F_cand = f_cand + prob.penalty(cand)
            omega = 0.0
            t_next = 1.0

        step_norm = float(np.linalg.norm(cand - u))
        F_prev, F = F, F_cand
        u_prev, u = u, cand
        m_prev, m = m, m_cand
        L = L_acc
        t = t_next

        if opts.check_margin_drift and k % 100 == 0:
            if np.abs(prob.margins(u) - m).max() > 1e-8:
                raise StateError("margin cache drifted beyond 1e-8")

        trace.append(TraceRow(
            k=k, F=F, L=L, omega=omega, step_norm=step_norm,
            restarted=restarted, nnz=prob.nnz(u), n_products=evals,
            ls_evals=evals, suff_gap=gap))
        if iterates is not None:
            iterates.append(u.copy())

        if support_window is not None:
            patterns.append(prob.support(u))
            support = detect_support(patterns, support_window)
            if support is not None:
                stop_reason = "support_stable"
                break

        stop, counter = check_stop(F_prev, F, u_prev, u,
                                   opts.tol, counter, opts.consec_stop)
        if stop:
            stop_reason = "converged"
            break

    return FitResult(
        model=prob.model(u), trace=trace, iterations=k,
        converged=stop_reason == "converged", final_objective=F,
        stop_reason=stop_reason, support=support, iterates=iterates,
        grad_products=grad_products)


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


class _BinaryProblem:
    """B-PGH objective over u = (b, w): the mean huberized hinge loss of
    the margins y (b + X w) plus the elastic-net penalty. The default
    initial step constant is 2 L_f / n, clamped to the global L_f."""

    def __init__(self, data: Dataset, hp: Hyperparams):
        if data.kind != "binary":
            raise LabelError("binary solvers require +1/-1 labels")
        self.X = data.X
        self.y = data.labels.astype(float)
        self.n = data.n
        self.hp = hp
        self.dim = data.n_features + 1
        self.L_global = lipschitz_binary(data, hp.delta)
        self.L0 = min(2.0 * self.L_global / data.n, self.L_global)

    def margins(self, u):
        fwd = np.asarray(_support_product(self.X, u[1:])).ravel()
        return self.y * (u[0] + fwd)

    def smooth(self, m):
        return float(np.mean(huber_loss(m, self.hp.delta)))

    def grad(self, m):
        coef = huber_grad(m, self.hp.delta) * self.y / self.n
        return np.concatenate([[coef.sum()],
                               np.asarray(self.X.T @ coef).ravel()])

    def penalty(self, u):
        return binary_penalty(u[0], u[1:], self.hp)

    def prox(self, u_hat, grad, L):
        b, w = binary_prox_step(u_hat[0], u_hat[1:], grad[0], grad[1:], L,
                                self.hp)
        return np.concatenate([[b], w])

    def nnz(self, u):
        return int(np.count_nonzero(u[1:]))

    def support(self, u):
        return np.flatnonzero(u[1:])

    def model(self, u):
        return BinaryModel(b=float(u[0]), w=u[1:].copy())


class _MultiProblem:
    """M-PGH objective over u = (b, vec W) with b of length J and W of
    shape (p, J). The prox keeps both in the zero-sum subspace, which is
    checked on every candidate. The default initial step constant is
    L_m / (n J), clamped to the global L_m."""

    def __init__(self, data: Dataset, hp: Hyperparams):
        if data.kind != "multiclass":
            raise LabelError("fit_multi requires labels in 1..J")
        J = data.n_classes
        if J < 2:
            raise LabelError("need at least two classes")
        self.data = data
        self.X = data.X
        self.hp = hp
        self.J = J
        self.dim = J + data.n_features * J
        self.L_global = lipschitz_multi(data, hp.delta, J)
        self.L0 = min(self.L_global / (data.n * J), self.L_global)

    def _split(self, u):
        return u[:self.J], u[self.J:].reshape(-1, self.J)

    def margins(self, u):
        b, W = self._split(u)
        return (np.asarray(_support_product(self.X, W)) + b).ravel()

    def smooth(self, m):
        return multi_smooth_from_margins(m.reshape(-1, self.J),
                                         self.data.labels, self.hp.delta)

    def grad(self, m):
        gb, gW = multi_grad_from_margins(m.reshape(-1, self.J), self.data,
                                         self.hp.delta)
        return np.concatenate([gb, gW.ravel()])

    def penalty(self, u):
        return multi_penalty(*self._split(u), self.hp)

    def prox(self, u_hat, grad, L):
        bh, Wh = self._split(u_hat)
        gb, gW = self._split(grad)
        b = multi_b_step(bh, gb, L, self.hp.lambda3)
        W = multi_w_step(Wh, gW, L, self.hp.lambda1, self.hp.lambda2)
        if np.abs(W.sum(axis=1)).max(initial=0.0) > 1e-10:
            raise ConstraintError("weight rows left the zero-sum subspace")
        if abs(b.sum()) > 1e-12:
            raise ConstraintError("intercepts left the zero-sum subspace")
        return np.concatenate([b, W.ravel()])

    def nnz(self, u):
        return int(np.count_nonzero(u[self.J:]))

    def model(self, u):
        b, W = self._split(u)
        return MultiModel(b=b.copy(), W=W.copy())


def fit_binary(data: Dataset, hp: Hyperparams,
               opts: Optional[SolverOptions] = None) -> FitResult:
    """Train the binary model by extrapolated proximal gradient descent,
    starting from the zero vector."""
    return _run_pg_loop(_BinaryProblem(data, hp), opts or SolverOptions())


def fit_binary_two_stage(data: Dataset, hp: Hyperparams,
                         opts: Optional[SolverOptions] = None) -> FitResult:
    """Two-stage solve: detect the weight support with the fixed global
    step constant and no extrapolation at the loose stage tolerance, then
    re-solve at full tolerance with the complement frozen at zero.

    Falls back to the plain solver (flagged on the result) if the support
    never stabilizes within the iteration budget.
    """
    opts = opts or SolverOptions()
    if opts.tol >= opts.stage1_tol:
        raise DomainError("two-stage use requires tol < stage1_tol")
    res1 = _run_pg_loop(
        _BinaryProblem(data, hp),
        replace(opts, backtracking=False, extrapolation="none",
                tol=opts.stage1_tol),
        support_window=opts.support_stable_iters)
    support = res1.support
    if support is None:
        return replace(fit_binary(data, hp, opts), two_stage_fallback=True)

    # Stage 2 on the reduced problem; indices map back via `support`.
    res2 = fit_binary(data.restrict_features(support), hp, opts)
    w_full = np.zeros(data.n_features)
    w_full[support] = res2.model.w
    trace = SolverTrace()
    trace.rows = res1.trace.rows + [
        replace(row, k=row.k + res1.iterations, stage=2)
        for row in res2.trace.rows]
    return replace(
        res2, model=BinaryModel(b=res2.model.b, w=w_full), trace=trace,
        iterations=res1.iterations + res2.iterations, support=support,
        grad_products=res1.grad_products + res2.grad_products)


def fit_multi(data: Dataset, hp: Hyperparams,
              opts: Optional[SolverOptions] = None) -> FitResult:
    """Train the multi-class model; every iterate satisfies the zero-sum
    constraints by construction of the two prox steps."""
    return _run_pg_loop(_MultiProblem(data, hp), opts or SolverOptions())


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

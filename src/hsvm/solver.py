"""Accelerated proximal gradient solvers for the huberized SVM objectives.

Three training entry points share one iteration skeleton:

* ``fit_binary``   -- B-PGH: extrapolated proximal gradient with
  backtracking on the step constant and a monotone re-update whenever the
  extrapolated step increases the objective.
* ``fit_binary_two_stage`` -- B-PGH-2: B-PGH on a working set of
  features. The set starts as the features whose gradient at zero exceeds
  lambda1 in magnitude, and grows by every frozen feature that fails the
  full-problem optimality check |grad_j f| <= lambda1, until none fails.
* ``fit_multi``    -- M-PGH: the same loop over (b, W) with the closed-form
  zero-sum intercept step and the row-decomposed dual prox.

Each model is one objective object (``BinaryObjective``, ``MultiObjective``)
over a flat parameter vector u, the only code for its margins and
gradient. It owns the label check, the global Lipschitz constant and the
default initial step constant, and provides ``margins``, ``smooth``,
``grad``, ``smooth_grad``, ``penalty``, ``prox``, ``nnz``, ``model`` and
its inverse ``point``, plus the flag ``certifies``. ``_run_pg_loop`` runs
on it; ``objective`` evaluates a model.

Per iteration the data matrix is touched by one gradient (transpose)
product and one forward margin product per candidate evaluation.
``line_search`` returns the accepted candidate's margins along with it,
and the extrapolated margins are formed from the two cached margin
vectors, never from a fresh product. On a dense matrix B-PGH keeps a
working block of columns, the only code that reads a subset of X:
proximal gradient identifies the solution's support after finitely many
steps, and while a frozen feature cannot enter the support (safe
screening in the sense of Fercoq, Gramfort & Salmon 2015, used only to
skip work; see ``BinaryObjective``) both products read only the block.
B-PGH-2 runs the loop on a copy of the working-set columns and forms the
margins of each round's result from those columns; its screen and checks
make full transpose products. Both M-PGH products read all of X. The step
constant only grows within an iteration (L_k = min(ETA^{n_k} L_{k-1},
L_global)) and each accepted step satisfies the sufficient-decrease
inequality; the extrapolation weight (``extrapolation_weight``) is capped
at sqrt(L_{k-1}/L_k), re-extrapolating when backtracking raised L.

The objective gives the smooth value and the gradient at each base in one
call (``smooth_grad``); for M-PGH that is one fused loss call, and the
line search's candidates take the value-only call. The stop rule depends
on the objective. M-PGH with lambda2, lambda3 > 0 (the paper's linear
convergence assumption) has a finite dual, so each gradient also gives a
lower bound D on the optimum (``MultiObjective._dual_bound``, in the
manner of the gap-safe rules of Ndiaye et al. 2017). The loop keeps the
best D over every base, restarts included, and stops once
F - D_best <= tol F: ``converged=True`` certifies a relative duality gap
<= tol, recorded in ``FitResult.gap``. Every other fit stops on relative
progress (``check_stop``) and has no gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import IO, Optional

import numpy as np

from .data import Dataset
from .errors import ConstraintError, DomainError, LabelError, ShapeError
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
    wrong_class_mask,
)
from .model import FEASIBILITY_TOL, BinaryModel, MultiModel
from .prox import (binary_prox_step, multi_b_step, multi_w_step, row_range,
                   sign_pattern_sigma)

CONSEC_STOP = 3  # consecutive small-progress iterations that end a solve
ETA = 1.5  # backtracking factor of the step constant


@dataclass
class SolverOptions:
    """Run configuration shared by all solvers. Every solver starts from
    its objective's default step constant, grows it by the module constant
    ``ETA`` and re-updates after an objective increase; only the settings
    of ``ablation_run`` choose another step policy.

    ``tol`` is the stop rule's tolerance. An M-PGH fit with lambda2,
    lambda3 > 0 stops once its certified relative duality gap is <= tol.
    Binary fits, and M-PGH fits with lambda2 = 0 or lambda3 = 0, stop after
    ``CONSEC_STOP`` iterations whose relative objective decrease and
    relative step are both <= tol (``check_stop``).
    """

    tol: float = 1e-6
    max_iter: int = 5000
    record_iterates: bool = False

    def __post_init__(self):
        # Every comparison with NaN is false, so the range check below
        # would let a NaN through.
        if not math.isfinite(self.tol):
            raise DomainError("tol must be finite")
        if self.tol <= 0:
            raise DomainError("tol must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be positive")


@dataclass
class TraceRow:
    k: int
    F: float
    L: float
    omega: float
    step_norm: float
    restarted: bool
    nnz: int
    stage: int = 1           # B-PGH-2 working-set round; 1 for other solvers
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
    stop_reason: str = "max_iter"   # or "converged"
    two_stage_fallback: bool = False  # always False, kept for its readers
    support: Optional[np.ndarray] = None  # B-PGH-2's final working set
    iterates: Optional[list] = None
    grad_products: int = 0
    gap: Optional[float] = None  # certified relative duality gap, if any


def extrapolation_weight(t_prev, t_curr, L_prev, L_curr) -> float:
    """min((t_prev - 1)/t_curr, sqrt(L_prev/L_curr)); the caller advances t
    by the FISTA recursion t_k = (1 + sqrt(1 + 4 t_{k-1}^2)) / 2."""
    if t_prev < 1 or t_curr < 1:
        raise DomainError("FISTA scalars must be >= 1")
    if L_prev <= 0 or L_curr <= 0:
        raise DomainError("step constants must be positive")
    return min((t_prev - 1.0) / t_curr, math.sqrt(L_prev / L_curr))


def check_stop(F_prev, F_curr, step_norm, u_prev, tol, counter):
    """Relative-progress stopping rule on the objective decrease and on the
    step length ``step_norm`` = ||u_curr - u_prev||; both ratios must stay
    below tol for ``CONSEC_STOP`` consecutive iterations. Returns (stop,
    updated counter)."""
    obj_ok = (F_prev - F_curr) / (1.0 + abs(F_prev)) <= tol
    step_ok = step_norm / (1.0 + np.linalg.norm(np.ravel(u_prev))) <= tol
    counter = counter + 1 if (obj_ok and step_ok) else 0
    return counter >= CONSEC_STOP, counter


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


def _step(prob, u_base, m_base, f_base, L_start):
    """One proximal gradient step from ``u_base`` (whose margins are
    ``m_base`` and smooth value ``f_base``, computed here when None): one
    call for the smooth value and the gradient, which is one transpose
    product, then the line search. Returns the smooth value and the dual
    bound at the base, then what ``line_search`` returns."""
    f_base, grad, dual = prob.smooth_grad(m_base, u_base, f_base)
    return (f_base, dual) + line_search(prob, u_base, f_base, grad, L_start,
                                        prob.L_global, ETA)


def _run_pg_loop(prob, opts: SolverOptions, monotone=True) -> FitResult:
    """Shared iteration loop from the step constant ``prob.L0``; see the
    module docstring for the scheme. ``monotone=False`` drops the
    re-update, for the ablation."""
    u = np.zeros(prob.dim)
    m = prob.margins(u)
    f = F = None  # formed by the first step, whose base is u itself
    D_best = -math.inf  # best dual bound over every base so far
    u_prev, m_prev = u, m
    t = 1.0
    L = prob.L0
    trace = SolverTrace()
    iterates = [] if opts.record_iterates else None
    grad_products = 0
    counter = 0
    stop_reason = "max_iter"

    for k in range(1, opts.max_iter + 1):
        evals = 0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        L_start = L
        while True:
            omega = extrapolation_weight(t, t_next, L, L_start)
            if omega == 0.0:
                # The base is u itself, whose smooth value f is known.
                u_hat, m_hat, f_hat = u, m, f
            else:
                u_hat, m_hat, f_hat = (u + omega * (u - u_prev),
                                       m + omega * (m - m_prev), None)
            f_hat, dual, L_acc, cand, m_cand, f_cand, gap, ev = _step(
                prob, u_hat, m_hat, f_hat, L_start)
            D_best = max(D_best, dual)
            grad_products += 1
            evals += ev
            if L_acc == L_start or omega <= math.sqrt(L / L_acc) + 1e-15:
                break
            # Backtracking raised L beyond the extrapolation cap;
            # re-extrapolate with the tighter weight at the new constant.
            L_start = L_acc
        if F is None:
            f, F = f_hat, f_hat + prob.penalty(u)
        F_cand = f_cand + prob.penalty(cand)

        restarted = monotone and F_cand > F
        if restarted:
            # Extrapolated step increased F: re-update from the previous
            # iterate (omega = 0) and reset the momentum scalar.
            _, dual, L_acc, cand, m_cand, f_cand, gap, ev = _step(
                prob, u, m, f, L_acc)
            D_best = max(D_best, dual)
            grad_products += 1
            evals += ev
            F_cand = f_cand + prob.penalty(cand)
            omega = 0.0
            t_next = 1.0

        step_norm = float(np.linalg.norm(cand - u))
        F_prev, F, f = F, F_cand, f_cand
        u_prev, u = u, cand
        m_prev, m = m, m_cand
        L = L_acc
        t = t_next

        trace.append(TraceRow(
            k=k, F=F, L=L, omega=omega, step_norm=step_norm,
            restarted=restarted, nnz=prob.nnz(u), n_products=evals,
            ls_evals=evals, suff_gap=gap))
        if iterates is not None:
            iterates.append(u.copy())

        if prob.certifies:
            stop = F - D_best <= opts.tol * F
        else:
            stop, counter = check_stop(F_prev, F, step_norm, u_prev,
                                       opts.tol, counter)
        if stop:
            stop_reason = "converged"
            break

    return FitResult(
        model=prob.model(u), trace=trace, iterations=k,
        converged=stop_reason == "converged", final_objective=F,
        stop_reason=stop_reason, iterates=iterates,
        grad_products=grad_products,
        gap=(F - D_best) / F if prob.certifies else None)


# B-PGH keeps its working block only while it holds at most 1/32 of the
# features. The block is a copy of X[:, K], rebuilt whenever K changes.
# Gathering random columns of a 2000 x 20000 C-order X costs 0.46x a full
# product at p/32, 0.8x at p/16 and 1.65x at p/8, so past p/32 a rebuild
# soon costs more than the full products the block saves.
_SUPPORT_FRACTION = 32


class BinaryObjective:
    """B-PGH objective F = f + g over u = (b, w): the mean huberized hinge
    loss of the margins y (b + X w) plus the elastic-net penalty. The
    default initial step constant is 2 L_f / n, clamped to the global L_f.

    On a dense X the objective keeps a working block, refreshed at each
    full transpose product made at a point u: the features
    K = supp(w) | {j : |g_j| >= lambda1}, the C-order copy X[:, K], the
    loss coefficients c_ref of that product and a radius rho (see
    ``_refresh``). It exists only while |K| <= p/32. It starts empty with
    rho = 0, so the margins at w = 0 read no column and the first gradient
    is a full product. The forward product of any w with supp(w) in K
    reads X[:, K], and the gradient at a u with supp(w) in K and
    ||c - c_ref|| < rho reads only X[:, K] and returns exact zeros
    elsewhere. Those zeros change nothing: by Cauchy-Schwarz every other
    |g_j| stays below lambda1, so its weight, zero at u, stays zero after
    the prox, and its term of the line search's <g, d> is zero either way.
    """

    # B-PGH stops on relative progress (``check_stop``), so its gradient
    # carries no dual bound.
    certifies = False

    def __init__(self, data: Dataset, hp: Hyperparams):
        if data.kind != "binary":
            raise LabelError("the binary objective needs binary labels "
                             f"(+1/-1), data has {data.kind}")
        self.X = data.X
        self.y = data.labels.astype(float)
        self.n = data.n
        self.hp = hp
        self.dim = data.n_features + 1
        self.L_global = lipschitz_binary(data, hp.delta)
        self.L0 = min(2.0 * self.L_global / data.n, self.L_global)
        # A sparse X already reads only its nonzeros and never gets a
        # working block. Sparse is recognised by ``tocsr`` rather than by
        # type, so a wrapper that forwards attributes to the matrix takes
        # the same path as the matrix itself.
        self._col_norms = None
        self._K = None        # working features, or None without a block
        self._XK = None       # C-order copy of X[:, K]
        self._c_ref = None    # coefficients of the last full product
        self._rho = 0.0       # certified radius around _c_ref
        if not hasattr(self.X, "tocsr"):
            self._col_norms = np.sqrt(data.col_sqnorms())
            self._K, self._XK = np.empty(0, np.intp), np.empty((self.n, 0))
            self._c_ref = np.zeros(self.n)

    def _in_block(self, w):
        """Whether supp(w) lies in the working features K (K is unique)."""
        return np.count_nonzero(w) == np.count_nonzero(w[self._K])

    def margins(self, u):
        w = u[1:]
        if self._K is not None and self._in_block(w):
            fwd = self._XK @ w[self._K]
        else:
            fwd = np.asarray(self.X @ w).ravel()
        return self.y * (u[0] + fwd)

    def smooth(self, m):
        return float(huber_loss(m, self.hp.delta).sum() / self.n)

    def smooth_grad(self, m, u, f=None):
        """(f, gradient, -inf) at the point u with margins m; a given f is
        returned as it is."""
        if f is None:
            f = self.smooth(m)
        return f, self.grad(m, u), -math.inf

    def grad(self, m, u=None):
        """Gradient at the point u with margins m. Without u (the two-stage
        screen and checks) it is always the full product."""
        coef = huber_grad(m, self.hp.delta) * self.y / self.n
        if (u is not None and self._K is not None
                and self._in_block(u[1:])
                and np.linalg.norm(coef - self._c_ref) < self._rho):
            gw = np.zeros(self.dim - 1)
            gw[self._K] = self._XK.T @ coef
        else:
            gw = np.asarray(self.X.T @ coef).ravel()
            if u is not None and self._col_norms is not None:
                self._refresh(u[1:], gw, coef)
        return np.concatenate([[coef.sum()], gw])

    def _refresh(self, w, gw, coef):
        """Rebuild the working block from the full gradient ``gw`` at a
        point with weights ``w`` and loss coefficients ``coef``.

        For a frozen j (not in K) and coefficients c, Cauchy-Schwarz gives
        |g_j(c)| <= |g_j(coef)| + ||X_j|| ||c - coef||. So ||c - coef|| < rho0,
        rho0 = min_j (lambda1 - |g_j|) / ||X_j||, keeps every frozen |g_j|
        below lambda1. rho0 is then shrunk by 4 (n + 2) eps (rho0 + ||coef||).
        That covers the rounding of both gradients as a floating-point
        product would compute them (Higham's dot-product bound,
        gamma_n ||X_j|| ||c|| each, with ||c|| below ||coef|| + rho0), and
        the rounding of the norms and of rho0, so a full product would give
        |g_j| <= lambda1 and a zero prox output.
        """
        lam = self.hp.lambda1
        # The support alone is counted first: on small dense problems it
        # usually exceeds p/32 already, and the count is the cheap part.
        keep = None
        if np.count_nonzero(w) * _SUPPORT_FRACTION <= w.size:
            keep = np.abs(gw) >= lam
            keep |= w != 0
        if keep is None or np.count_nonzero(keep) * _SUPPORT_FRACTION > w.size:
            self._K = self._XK = self._c_ref = None
            return
        K = np.flatnonzero(keep)
        frozen = ~keep
        with np.errstate(divide="ignore"):
            rho0 = np.min((lam - np.abs(gw[frozen])) / self._col_norms[frozen],
                          initial=np.inf)
        if self._K is None or not np.array_equal(K, self._K):
            self._K, self._XK = K, np.ascontiguousarray(self.X[:, K])
        slack = 4.0 * (self.n + 2) * np.finfo(float).eps
        self._c_ref = coef
        self._rho = (1.0 - slack) * rho0 - slack * np.linalg.norm(coef)

    def penalty(self, u):
        return binary_penalty(u[0], u[1:], self.hp)

    def prox(self, u_hat, grad, L):
        b, w = binary_prox_step(u_hat[0], u_hat[1:], grad[0], grad[1:], L,
                                self.hp)
        return np.concatenate([[b], w])

    def nnz(self, u):
        return int(np.count_nonzero(u[1:]))

    def model(self, u):
        return BinaryModel(b=float(u[0]), w=u[1:].copy())

    def point(self, model: BinaryModel):
        """The u with ``self.model(u) == model``."""
        if model.w.size != self.dim - 1:
            raise ShapeError(f"w has {model.w.size} entries, not {self.dim - 1}")
        return np.concatenate([[model.b], model.w])


class MultiObjective:
    """M-PGH objective H = l + G over u = (b, vec W) with b of length J and
    W of shape (p, J). The prox keeps both in the zero-sum subspace, which
    is checked on every candidate. The default initial step constant is
    L_m / (n J), clamped to the global L_m.

    With lambda2, lambda3 > 0 (``certifies``) every gradient also gives a
    lower bound on the optimum, the dual objective at the loss
    coefficients C of the gradient's point (see ``_dual_bound``).
    """

    def __init__(self, data: Dataset, hp: Hyperparams):
        if data.kind != "multiclass":
            raise LabelError("the multi-class objective needs multiclass "
                             f"labels (1..J), data has {data.kind}")
        J = data.n_classes
        self.data = data
        self.X = data.X
        self.hp = hp
        self.J = J
        self.dim = J + data.n_features * J
        self.L_global = lipschitz_multi(data, hp.delta, J)
        self.L0 = min(self.L_global / (data.n * J), self.L_global)
        self._wrong = wrong_class_mask(data.labels, J)
        # Otherwise the penalty's conjugate is an indicator, and the
        # gradient's dual point is almost never feasible.
        self.certifies = hp.lambda2 > 0 and hp.lambda3 > 0

    def _split(self, u):
        return u[:self.J], u[self.J:].reshape(-1, self.J)

    def margins(self, u):
        b, W = self._split(u)
        return (np.asarray(self.X @ W) + b).ravel()

    def smooth(self, m):
        return multi_smooth_from_margins(m.reshape(-1, self.J), self._wrong,
                                         self.hp.delta)

    def smooth_grad(self, m, u, f=None):
        """(f, gradient, dual bound) at the point u with margins m, from one
        fused loss call; the bound is -inf unless ``certifies``. The call
        forms f anyway, so a given f is not needed."""
        f, gb, gW, dual_loss = multi_grad_from_margins(
            m.reshape(-1, self.J), self.X, self._wrong, self.hp.delta)
        dual = (self._dual_bound(dual_loss, gb, gW, u) if self.certifies
                else -math.inf)
        return f, np.concatenate([gb, gW.ravel()]), dual

    def grad(self, m, u=None):
        """Gradient at the point u with margins m; reads only m."""
        _, gb, gW, _ = multi_grad_from_margins(
            m.reshape(-1, self.J), self.X, self._wrong, self.hp.delta)
        return np.concatenate([gb, gW.ravel()])

    def _dual_bound(self, dual_loss, gb, gW, u):
        """Dual objective at the loss coefficients C behind the gradient
        (gb, gW), taken at the point u:

            D = dual_loss - sum_k ||S_lam1(v_k - sigma_k)||^2 / (2 lam2)
                          - ||gb - mean(gb)||^2 / (2 lam3),

        with v_k = -(row k of gW). The middle sum is the zero-sum
        elastic-net conjugate, min over sigma_k of each row's term, so any
        sigma_k gives a valid lower bound on the optimum. A flat row
        (spread <= 2 lam1) takes the midpoint and contributes 0. Every
        other row takes sigma_k from the sign pattern of its row of W,
        as ``multi_w_step``'s guess does: exact once the support of W is
        the optimum's. A row of W without a nonzero takes the midpoint.
        """
        lam1, J = self.hp.lambda1, self.J
        hi, lo = row_range(gW)
        live = np.flatnonzero(hi - lo > 2.0 * lam1)
        V = -gW[live]
        sigma, n_act, _ = sign_pattern_sigma(
            V, np.sign(u[J:].reshape(-1, J)[live]), lam1)
        empty = n_act == 0
        sigma[empty] = -0.5 * (hi + lo)[live[empty]]
        R = np.abs(V - sigma[:, None])
        R -= lam1
        np.maximum(R, 0.0, out=R)  # |S_lam1(v - sigma)|
        q = gb - gb.mean()
        return (dual_loss - float(np.vdot(R, R)) / (2.0 * self.hp.lambda2)
                - float(q @ q) / (2.0 * self.hp.lambda3))

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

    def point(self, model: MultiModel):
        """The u with ``self.model(u) == model``, for a feasible model."""
        shape = (self.data.n_features, self.J)
        if model.W.shape != shape:
            raise ShapeError(f"W has shape {model.W.shape}, expected {shape}")
        if model.feasibility_residual() > FEASIBILITY_TOL:
            raise ConstraintError("model violates the zero-sum constraints")
        return np.concatenate([model.b, model.W.ravel()])


@dataclass(frozen=True)
class ObjectiveParts:
    smooth: float
    penalty: float
    total: float


def objective(model, data: Dataset, hp: Hyperparams) -> ObjectiveParts:
    """Evaluate F = f + g at a ``BinaryModel`` or H = l + G at a feasible
    ``MultiModel``, with the objective object the solver runs on."""
    cls = BinaryObjective if isinstance(model, BinaryModel) else MultiObjective
    obj = cls(data, hp)
    u = obj.point(model)
    smooth = obj.smooth(obj.margins(u))
    penalty = obj.penalty(u)
    return ObjectiveParts(smooth=smooth, penalty=penalty,
                          total=smooth + penalty)


def fit_binary(data: Dataset, hp: Hyperparams,
               opts: Optional[SolverOptions] = None) -> FitResult:
    """Train the binary model by extrapolated proximal gradient descent,
    starting from the zero vector."""
    return _run_pg_loop(BinaryObjective(data, hp), opts or SolverOptions())


def fit_binary_two_stage(data: Dataset, hp: Hyperparams,
                         opts: Optional[SolverOptions] = None) -> FitResult:
    """B-PGH on a working set S of features, certified on the full problem.

    S starts as {j : |grad_j f(0)| > lambda1}, the support of the first
    fixed-step proximal gradient iterate from zero. Each round (``stage``
    on the trace) runs ``fit_binary`` on the columns in S, the other
    weights frozen at zero, then adds to S every frozen j that fails the
    optimality check |grad_j f| <= lambda1 (1 + tol) at the result, whose
    margins come from the round's columns. The rounds end when none fails,
    or when one does not converge.
    """
    opts = opts or SolverOptions()
    prob = BinaryObjective(data, hp)
    grad = prob.grad(prob.margins(np.zeros(prob.dim)))
    support = np.flatnonzero(np.abs(grad[1:]) > hp.lambda1)
    trace, iterations, grad_products = SolverTrace(), 0, 1
    for stage in range(1, data.n_features + 2):  # each adds a feature
        sub = data.restrict_features(support)
        res = fit_binary(sub, hp, opts)
        trace.rows += [replace(row, k=row.k + iterations, stage=stage)
                       for row in res.trace.rows]
        iterations += res.iterations
        grad_products += res.grad_products
        u = np.zeros(prob.dim)
        u[0] = res.model.b
        u[1 + support] = res.model.w
        if not res.converged:
            break
        # The round's own columns give the margins at its result; only
        # the check's transpose product reads all of X.
        sub_prob = BinaryObjective(sub, hp)
        grad = prob.grad(sub_prob.margins(sub_prob.point(res.model)))
        grad_products += 1
        violates = np.abs(grad[1:]) > hp.lambda1 * (1.0 + opts.tol)
        violates[support] = False
        if not violates.any():
            break
        support = np.union1d(support, np.flatnonzero(violates))
    return replace(res, model=prob.model(u), trace=trace,
                   iterations=iterations, support=support,
                   grad_products=grad_products)


def fit_multi(data: Dataset, hp: Hyperparams,
              opts: Optional[SolverOptions] = None) -> FitResult:
    """Train the multi-class model; every iterate satisfies the zero-sum
    constraints by construction of the two prox steps."""
    return _run_pg_loop(MultiObjective(data, hp), opts or SolverOptions())


# setting -> (fixed step, monotone); all extrapolate with the capped weight.
_ABLATION = {"ours": (False, True),
             "fixed_L_no_monotone": (True, False),
             "backtrack_no_monotone": (False, False)}
ABLATION_SETTINGS = tuple(_ABLATION)


def ablation_run(data: Dataset, hp: Hyperparams, setting: str,
                 opts: Optional[SolverOptions] = None) -> FitResult:
    """Run B-PGH under one of the step-rule/monotonicity settings compared
    in the solver ablation, the only place where the step policy is
    chosen; all share the stopping rule. A fixed step starts at the global
    constant, where the line search accepts at once."""
    if setting not in _ABLATION:
        raise DomainError(f"unknown ablation setting {setting!r}")
    fixed, monotone = _ABLATION[setting]
    prob = BinaryObjective(data, hp)
    if fixed:
        prob.L0 = prob.L_global
    return _run_pg_loop(prob, opts or SolverOptions(), monotone)

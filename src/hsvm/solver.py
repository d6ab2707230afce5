"""Accelerated proximal gradient solvers for the huberized SVM objectives.

Three training entry points share one iteration skeleton:

* ``fit_binary``   -- B-PGH: extrapolated proximal gradient with
  backtracking on the step constant and a monotone re-update whenever the
  extrapolated step increases the objective.
* ``fit_binary_two_stage`` -- B-PGH-2: the paper's two stages, identify
  the support and solve the restricted problem, are B-PGH's own phases
  (its working block, below), so it is one call of ``fit_binary``.
* ``fit_multi``    -- M-PGH: the same loop over (b, W) with the closed-form
  zero-sum intercept step and the row-decomposed dual prox.

Each model is one objective object (``BinaryObjective``, ``MultiObjective``)
over a flat parameter vector u, the only code for its margins and
gradient. It owns the label check, the global Lipschitz constant and the
default initial step constant, and provides ``margins``, ``smooth``,
``grad``, ``smooth_grad``, ``penalty``, ``prox``, ``nnz``, ``model``, its
inverse ``point``, and the coordinate moves ``enter`` and ``full``.
``_run_pg_loop`` runs on it from any start point; ``objective`` evaluates
a model.

Per iteration ``_run_pg_loop`` takes one step in passes, each a base, one
gradient (transpose) product there and a line search with one forward
margin product per candidate. The plain pass extrapolates; a
re-extrapolated pass follows when backtracking raised the step constant
past the extrapolation cap; a re-update pass from the last iterate, with
omega = 0 and momentum reset, follows once if the candidate raised F.
Every base, omega = 0 included, is u + omega (u - u_prev) with margins
m + omega (m - m_prev), from the margins ``line_search`` returns with each
candidate. One call per base, ``smooth_grad(m, u_hat, u, u_prev)``, gives
its smooth value, gradient and dual bound from one loss call, and returns
the loop's vectors in the pass's coordinates. B-PGH's iterates live in the
coordinates of a working block of columns, dense or CSR alike, taken
through ``Dataset.restrict_features``, the only code that reads a subset
of X: proximal gradient identifies the solution's support after finitely
many steps, and a frozen feature that cannot enter the support (safe
screening in the sense of Fercoq, Gramfort & Salmon 2015; see
``BinaryObjective``) drops out of every operation. From zero, the first
full transpose product, at w = 0 and formed once per data set and delta,
is the screen that forms the block; each trace row's ``stage`` numbers
the working set its iteration ran on. X' is linear, so a fit keeps its
latest full products and skips the next one whenever a combination of
them already proves every frozen |g_j| < lambda1
(``BinaryObjective._recenter``). Both M-PGH products read all of X. The
step constant only grows within an iteration (L_k = min(ETA^{n_k}
L_{k-1}, L_global), ``line_search`` the one place that caps it, the
default start included) and each accepted step satisfies the
sufficient-decrease inequality; the extrapolation weight
(``extrapolation_weight``) is capped at sqrt(L_{k-1}/L_k).

The bound picks the stop rule. With lambda2, lambda3 > 0 (the paper's
linear convergence assumption) both models have a finite dual, so each
gradient also gives a finite lower bound D on the optimum
(``BinaryObjective._dual_bound``, ``MultiObjective._dual_bound``, in the
manner of the gap-safe rules of Ndiaye et al. 2017); every gradient of a
fit with lambda2 = 0 or lambda3 = 0, or of ``ablation_run``, gives
D = -inf. The loop keeps the best D over every base, restarts included.
Once it is finite, the fit stops when F - D_best <= tol F:
``converged=True`` certifies a relative duality gap <= tol, recorded in
``FitResult.gap`` as max(F - D_best, 0)/F (at an exact optimum rounding
can put D_best a few ulp above F). Until then it stops on relative
progress (``check_stop``), and a fit with no finite D has no gap. A
certified binary fit with a block also tries an exact finish, a finite
Newton solve over the block (``BinaryObjective.finish``), at iteration 8
and then after twice the last wait. A try costs a Gram matrix of the
block, n (|K| + 1)^2 flops, and a few (|K| + 1)-square solves. Its point
ends the fit, as one more trace row and iterate, only if F does not
rise, its dual bound certifies it and the product there moves no feature
into the block: such a fit is at the optimum to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .data import Dataset, issparse
from .errors import ConstraintError, DomainError, LabelError, ShapeError
from .losses import (
    Hyperparams,
    _dual_loss,
    _loss_terms,
    _pieces,
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
from .model import FEASIBILITY_TOL, BinaryModel, MultiModel, weight_zeros
from .prox import (binary_prox_step, multi_b_step, multi_w_step,
                   sign_pattern_sigma)

CONSEC_STOP = 3  # consecutive small-progress iterations that end a solve
ETA = 1.5  # backtracking factor of the step constant


@dataclass
class SolverOptions:
    """Run configuration shared by all solvers. Every solver starts from
    its objective's default step constant, grows it by the module constant
    ``ETA`` and re-updates after an objective increase; only the settings
    of ``ablation_run`` choose another step policy.

    ``tol`` is the stop rule's tolerance. A fit with lambda2, lambda3 > 0,
    B-PGH, B-PGH-2 and M-PGH alike, stops once its certified relative
    duality gap is <= tol. Fits with lambda2 = 0 or lambda3 = 0, and every
    ``ablation_run`` setting, stop after ``CONSEC_STOP`` iterations whose
    relative objective decrease and relative step are both <= tol
    (``check_stop``).

    ``max_iter`` caps the iterations of one fit. A certified binary fit
    with a working block may stop sooner, on its exact finish (see the
    module docstring), whose gap passes the same test.
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
    stage: int = 1           # index of the working set the iteration ran on
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
    support: Optional[np.ndarray] = None  # a binary fit's final working set
    iterates: Optional[list] = None
    grad_products: int = 0
    gap: Optional[float] = None  # certified max(F - D, 0)/F, if any


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


def line_search(prob, u_hat, f_hat, grad, L_start):
    """Backtracking on the step constant: from min(L_start, prob.L_global),
    multiply by ``ETA`` (capped at prob.L_global) until the proximal
    candidate u+ = prob.prox(u_hat, grad, L) satisfies

        f(u+) <= f(u_hat) + <grad, u+ - u_hat> + (L/2) ||u+ - u_hat||^2.

    The cap always satisfies the test, so termination is guaranteed.
    Returns (L, candidate, margins of candidate, f(candidate), gap, evals).
    """
    L = min(L_start, prob.L_global)
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
        if gap >= -1e-12 * (1.0 + abs(bound)) or L >= prob.L_global:
            return L, cand, m_cand, f_cand, gap, evals
        L = min(ETA * L, prob.L_global)


def _run_pg_loop(prob, opts: SolverOptions, monotone=True, u0=None,
                 L0=None) -> FitResult:
    """Shared iteration loop from ``u0`` (default zero) and the step
    constant ``L0`` (default ``prob.L0``). Its inner loop, the one PG step
    site, runs the passes of the module docstring; each pass, and each
    finish try, counts its dual bound, gradient product and evaluations
    once. The re-update is the monotone restart of Beck & Teboulle's
    MFISTA (2009); ``monotone=False`` drops it, for the ablation. A row's
    ``stage`` is 1 at the first iteration and grows by 1 at each later one
    whose full products changed the working set (``working_sets``)."""
    u = prob.enter(weight_zeros(prob.dim) if u0 is None else u0)
    m = prob.margins(u)
    F = None  # formed by the first step, whose base is u itself
    D_best = -math.inf  # best dual bound over every base so far
    u_prev, m_prev = u, m
    t = 1.0
    L = prob.L0 if L0 is None else L0
    trace = SolverTrace()
    iterates = [] if opts.record_iterates else None
    grad_products = 0
    counter = 0
    stage, sets = 0, None
    stop_reason = "max_iter"
    next_try = wait = _FINISH_AT

    for k in range(1, opts.max_iter + 1):
        evals = 0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        L_start = L
        restarted = finished = False
        if k == next_try and prob.certifies:
            v, block = prob.finish(u), prob.support  # v: optimal on block
            if v is not None:
                m_v = prob.margins(v)
                F_v = prob.smooth(m_v) + prob.penalty(v)
                evals += 1
            if v is not None and F_v <= F:
                _, _, dual, (v, u, u_prev) = prob.smooth_grad(m_v, v, u,
                                                              u_prev)
                D_best = max(D_best, dual)
                grad_products += 1
                finished = (F_v - D_best <= opts.tol * F_v
                            and np.isin(prob.support, block).all())
            next_try, wait = next_try + 2 * wait, 2 * wait
            if finished:
                cand, m_cand, F_cand, L_acc, omega, gap = v, m_v, F_v, L, 0, 0
        while not finished:
            omega = 0.0 if restarted else extrapolation_weight(
                t, t_next, L, L_start)
            u_hat = u + omega * (u - u_prev)
            m_hat = m + omega * (m - m_prev)
            f_hat, grad, dual, (u_hat, u, u_prev) = prob.smooth_grad(
                m_hat, u_hat, u, u_prev)
            if F is None and not math.isfinite(F := f_hat + prob.penalty(u)):
                raise DomainError("the objective at the start is not finite")
            L_acc, cand, m_cand, f_cand, gap, ev = line_search(
                prob, u_hat, f_hat, grad, L_start)
            D_best = max(D_best, dual)
            grad_products += 1
            evals += ev
            L_start = L_acc
            if omega > math.sqrt(L / L_acc) + 1e-15:
                # Backtracking raised L beyond the extrapolation cap;
                # re-extrapolate with the tighter weight at the new constant.
                continue
            F_cand = f_cand + prob.penalty(cand)
            if restarted or not (monotone and F_cand > F):
                break
            # The step increased F: re-update from the previous iterate
            # (omega = 0) and reset the momentum scalar.
            restarted, t_next = True, 1.0

        step_norm = float(np.linalg.norm(cand - u))
        F_prev, F = F, F_cand
        u_prev, u = u, cand
        m_prev, m = m, m_cand
        L = L_acc
        t = t_next
        # sets is None before the first row, whose working set is the first
        stage += sets != prob.working_sets
        sets = prob.working_sets

        trace.append(TraceRow(
            k=k, F=F, L=L, omega=omega, step_norm=step_norm,
            restarted=restarted, nnz=prob.nnz(u), stage=stage,
            n_products=evals, ls_evals=evals, suff_gap=gap))
        if iterates is not None:
            iterates.append(prob.full(u))

        if D_best > -math.inf:
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
        stop_reason=stop_reason, support=prob.support, iterates=iterates,
        grad_products=grad_products,
        gap=max(F - D_best, 0.0) / F if D_best > -math.inf else None)


# B-PGH keeps its working block only while it holds at most 1/32 of the
# features; the block is the copy X[:, K], rebuilt whenever K changes. A
# gather costs 2.3x, 4.2x and 7.8x a full X'c product at p/32, p/16 and p/8
# on a 2000 x 20000 C-order X, and 2.5-3x on a 4000 x 50 000 text-like CSR
# X, so past p/32 a rebuild soon costs more than the full products saved.
_SUPPORT_FRACTION = 32
# The latest full transpose products, with their coefficients, that a
# binary fit keeps to certify frozen features from (``_recenter``): 4 of a
# 2000 x 20 000 X hold 0.7 MB, and certify every base of a warm
# large_dense fit.
_KEPT = 4
# The iteration of a fit's first exact finish (each failed try doubles the
# wait for the next), and the most Newton steps a finish takes.
_FINISH_AT, _FINISH_STEPS = 8, 10


def _gram(A):
    """Z'Z for Z = [1, A], A dense or CSR, as a dense array."""
    s = A.T @ np.ones(A.shape[0])
    G = A.T @ A
    return np.block([[np.full((1, 1), float(A.shape[0])), s[None]],
                     [s[:, None], G.toarray() if issparse(G) else G]])


class BinaryObjective:
    """B-PGH objective F = f + g over u = (b, w): the mean huberized hinge
    loss of the margins y (b + X w) plus the elastic-net penalty. The
    default initial step constant is 2 L_f / n; ``line_search`` caps it.

    While it keeps a working block of features K, the copy X[:, K]
    (``Dataset.restrict_features``: F-order for a dense X, CSR for a CSR
    one), the loop's vectors are in its coordinates u = (b, w_K);
    otherwise, as on construction, in full ones. From w = 0 the block is
    empty (``enter``), so the margins read no column. ``smooth_grad``
    re-forms it at each full product (``_refresh``); the first, at w = 0,
    is the paper's screen. A gradient whose loss coefficients are within a
    radius of that product's reads only X[:, K]: every frozen |g_j| stays
    below lambda1, so its weight, zero in every vector the loop holds,
    stays zero. Past the radius, the latest ``_KEPT`` full products, from
    the one at w = 0 on, can still prove it: their coefficients' span holds
    a point near enough, whose product is their combination
    (``_recenter``). Then K stays, that point becomes the reference, and
    only X[:, K] is read; otherwise a full product follows.
    ``working_sets`` counts the changes of the working set, and ``support``
    is the working set: K, or every feature while no block is kept.

    With lambda2, lambda3 > 0 (``certifies``) every gradient also gives a
    finite lower bound on the optimum (``_dual_bound``), and the fit stops
    on the duality gap.
    """

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
        self.L0 = 2.0 * self.L_global / data.n
        self.data = data
        self._K = self._XK = None  # working features and X[:, K]; None: full
        self.working_sets = 0
        self._c_ref = self._rho = 0.0  # the block's certificate
        self._kept = []  # (c, X'c) of the latest _KEPT full products
        # Otherwise the penalty's conjugate is an indicator, and the
        # gradient's dual point is almost never feasible.
        self.certifies = hp.lambda2 > 0 and hp.lambda3 > 0

    def margins(self, u):
        fwd = self.X @ u[1:] if self._K is None else self._XK @ u[1:]
        return self.y * (u[0] + np.asarray(fwd).ravel())

    def smooth(self, m):
        return float(huber_loss(m, self.hp.delta).sum() / self.n)

    def smooth_grad(self, m, *held):
        """(f, gradient, dual bound, held) at the base held[0] with margins
        m from one loss call. While the certificate holds, the product reads
        only X[:, K] and ``held``, the vectors the loop holds, is returned as
        it came; otherwise the full product re-forms the block
        (``_refresh``), and the gradient and ``held`` come back in its
        coordinates."""
        f, C = _loss_terms(m, self.hp.delta)
        coef = -C * self.y / self.n
        if self._K is not None and (
                np.linalg.norm(coef - self._c_ref) < self._rho
                or self._recenter(coef)):
            gw = self._XK.T @ coef
        else:
            gw, held = self._refresh([self.full(v) for v in held], coef,
                                     self._transpose(m, coef))
        grad = np.concatenate([[coef.sum()], gw])
        return f, grad, self._dual_bound(C, grad), held

    def _dual_bound(self, C, grad):
        """Dual objective at the loss coefficients C (a = -C) behind the
        gradient grad = (g_b, g_w), -inf unless ``certifies``:

            D = mean(C (1 - delta C/2)) - g_b^2 / (2 lam3)
                                        - ||S_lam1(g_w)||^2 / (2 lam2).

        On a working block g_w holds only K's entries: every frozen
        |g_j| < lambda1 (the block's certificate), so its S_lam1 term is 0.
        """
        if not self.certifies:
            return -math.inf
        r = np.abs(grad[1:]) - self.hp.lambda1
        np.maximum(r, 0.0, out=r)  # |S_lam1(g_w)|
        return (_dual_loss(C, self.hp.delta)
                - grad[0] * grad[0] / (2.0 * self.hp.lambda3)
                - float(r @ r) / (2.0 * self.hp.lambda2))

    @property
    def support(self):
        return np.arange(self.dim - 1) if self._K is None else self._K

    def grad(self, m):
        """The full gradient at margins m, from a full product."""
        coef = huber_grad(m, self.hp.delta) * self.y / self.n
        return np.concatenate([[coef.sum()], self._transpose(m, coef)])

    def _transpose(self, m, coef):
        """X' coef at margins m, at m = 0 (w = 0) from the data set's memo,
        kept with coef as the latest of the ``_KEPT`` references."""
        gw = (np.asarray(self.X.T @ coef).ravel() if m.any() else
              self.data.transpose_at_zero(self.hp.delta, coef))
        self._kept = self._kept[1 - _KEPT:] + [(coef, gw)]
        return gw

    def _recenter(self, coef):
        """Whether the kept products prove |g_j(coef)| < lambda1 for every j
        outside K with no pass over X; if so, the block's certificate moves
        to c~ and its radius.

        c~ = sum_i alpha_i c_i is coef's least-squares projection onto the
        span of the kept c_i. X' is linear, so X' c~ = sum_i alpha_i X' c_i
        is known, and ``_radius`` gives the radius around c~ within which
        every frozen |g_j| stays below lambda1; coef certifies when
        ||coef - c~|| is below it (in the manner of the gap-safe spheres of
        Ndiaye et al. 2017)."""
        if not self._kept:
            return False
        frozen = np.ones(self.dim - 1, dtype=bool)
        frozen[self._K] = False
        c_kept = np.column_stack([c for c, _ in self._kept])
        alpha = np.linalg.lstsq(c_kept, coef, rcond=None)[0]
        c_t = c_kept @ alpha
        g_t = sum(a * g for a, (_, g) in zip(alpha, self._kept))
        scale = sum(abs(a) * np.linalg.norm(c)
                    for a, (c, _) in zip(alpha, self._kept))
        rho = self._radius(g_t, frozen, scale)
        if np.linalg.norm(coef - c_t) >= rho:
            return False
        self._c_ref, self._rho = c_t, rho
        return True

    def enter(self, u):
        """A start point u = (b, w) in full coordinates, in the objective's:
        on the block of supp(w) with no certificate, or full past p/32."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ShapeError(f"u has shape {u.shape}, not ({self.dim},)")
        if not np.all(np.isfinite(u)):
            raise DomainError("u must be finite")
        return self._refresh([u])[1][0]

    def full(self, u):
        """A copy of u in full coordinates."""
        v = np.zeros(self.dim)
        v[self._coords()] = u
        return v

    def _coords(self):
        """The positions of u's entries in full coordinates."""
        return slice(None) if self._K is None else np.append(0, 1 + self._K)

    def _refresh(self, held, coef=None, gw=None):
        """Re-form the block as K = supp(w) of every vector of ``held``
        (in full coordinates) and {j : |g_j| >= lambda1} of the full
        product ``gw`` = X' coef, coef kept as c_ref with its radius
        (``_radius``; 0 without gw); return ``gw`` and ``held`` gathered
        onto it."""
        keep = (np.abs(gw) >= self.hp.lambda1 if gw is not None
                else held[0][1:] != 0)
        for u in held:
            keep |= u[1:] != 0
        if np.count_nonzero(keep) * _SUPPORT_FRACTION > keep.size:
            self.working_sets += self._K is not None
            self._K = self._XK = None
            return gw, held
        K = np.flatnonzero(keep)
        if self._K is None or not np.array_equal(K, self._K):
            self.working_sets += 1
            self._K, self._XK = K, self.data.restrict_features(K).X
        self._rho = 0.0
        if gw is not None:
            self._c_ref = coef
            self._rho = self._radius(gw, ~keep, np.linalg.norm(coef))
            gw = gw[K]
        return gw, [u[self._coords()] for u in held]

    def _radius(self, gw, frozen, scale):
        """The radius around a reference c_ref with X' c_ref = gw within
        which every frozen |g_j| stays below lambda1.

        For a frozen j and coefficients c, Cauchy-Schwarz gives
        |g_j(c)| <= |g_j(c_ref)| + ||X_j|| ||c - c_ref||. So
        ||c - c_ref|| < rho0, rho0 = min_j (lambda1 - |g_j|) / ||X_j||,
        keeps every frozen |g_j| below lambda1. rho0 is then shrunk by
        4 (n + 2) eps (rho0 + scale), with scale = ||c_ref|| for one
        product and sum_i |alpha_i| ||c_i|| for a combination
        c_ref = sum_i alpha_i c_i of kept products (``_recenter``). That covers
        the rounding of both gradients as a floating-point product would
        compute them (Higham's dot-product bound, gamma_n ||X_j|| ||c||
        each, with ||c|| below scale + rho0), of the combination (its k <= 4
        terms add gamma_k ||X_j|| scale to gw and to c_ref), of the column
        norms (sums of n squares, within gamma_n relative, see
        ``Dataset.col_sqnorms``) and of rho0, so a full product would give
        |g_j| <= lambda1 and a zero prox output.
        """
        norms = np.sqrt(self.data.col_sqnorms()[frozen])
        # A zero column's term is inf, or NaN at lambda1 = 0, which fails
        # every certificate.
        with np.errstate(divide="ignore", invalid="ignore"):
            rho0 = np.min((self.hp.lambda1 - np.abs(gw[frozen])) / norms,
                          initial=np.inf)
        slack = 4.0 * (self.n + 2) * np.finfo(float).eps
        return (1.0 - slack) * rho0 - slack * scale

    def finish(self, u):
        """From u, the minimiser of F over the working block K, or None.

        F is quadratic on each piece (rows Q with margins in (1 - delta, 1),
        rows L at or below 1 - delta, signs s of w_K); with Z = [1, X_K] its
        minimiser over the weights with s != 0 solves
            (Z_Q'Z_Q/(n delta) + diag(lam3, lam2 I)) v
                = Z_Q'y_Q/(n delta) + Z_L'y_L/n - (0, lam1 s).
        Each finite Newton step (Keerthi & DeCoste 2005) solves the piece of
        its start, where zero weights with |g_j| > lambda1 enter with the
        sign of -g_j, and zeroes the weights whose sign flipped; one that
        lands on its own piece with none to enter is optimal on K. None with
        no block (|K| <= p/32), if |K| + 1 > n or if no step lands within
        ``_FINISH_STEPS``."""
        if self._K is None or self._K.size >= self.n:
            return None
        Z = self._XK[:, :]
        G = _gram(Z)
        hp, nd = self.hp, self.n * self.hp.delta
        ridge = np.diag(np.append(hp.lambda3, np.full(u.size - 1, hp.lambda2)))
        v, last = u, None
        for _ in range(_FINISH_STEPS):
            m = self.y * (v[0] + Z @ v[1:])
            C = _pieces(m, hp.delta)[1]
            Q, L = (C > 0.0) & (C < 1.0), C == 1.0
            g = Z.T @ (C * self.y) / self.n    # -(gradient of f in w)
            enter = (v[1:] == 0.0) & (np.abs(g) > hp.lambda1)
            s = np.sign(v[1:]) + enter * np.sign(g)
            same = np.array_equal(last, last := np.concatenate([Q, L, s]))
            if same and not enter.any():
                return v
            c = self.y * (Q / nd + L / self.n)
            on = np.append(True, s != 0)
            H = (G - _gram(Z[~Q])) / nd + ridge  # Z_Q'Z_Q / nd + ridge
            rhs = np.append(c.sum(), Z.T @ c - hp.lambda1 * s)
            v = np.zeros(u.size)
            v[on] = np.linalg.solve(H[np.ix_(on, on)], rhs[on])
            v[1:][np.sign(v[1:]) != s] = 0.0
        return None

    def penalty(self, u):
        return binary_penalty(u[0], u[1:], self.hp)

    def prox(self, u_hat, grad, L):
        b, w = binary_prox_step(u_hat[0], u_hat[1:], grad[0], grad[1:], L,
                                self.hp)
        return np.concatenate([[b], w])

    def nnz(self, u):
        return int(np.count_nonzero(u[1:]))

    def model(self, u):
        return BinaryModel(b=float(u[0]), w=self.full(u)[1:])

    def point(self, model: BinaryModel):
        """The u in ``enter``'s coordinates with ``self.model(u) == model``."""
        return self.enter(np.concatenate([[model.b], model.w]))


class MultiObjective:
    """M-PGH objective H = l + G over u = (b, vec W) with b of length J and
    W of shape (p, J). The prox keeps both in the zero-sum subspace, which
    is checked on every candidate. The default initial step constant is
    L_m / (n J); ``line_search`` caps it at the global L_m.

    With lambda2, lambda3 > 0 (``certifies``) every gradient also gives a
    finite lower bound on the optimum, the dual objective at the loss
    coefficients C of the gradient's point (see ``_dual_bound``), and the
    fit stops on the duality gap.
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
        self.L0 = self.L_global / (data.n * J)
        self._wrong = wrong_class_mask(data.labels, J)
        # Otherwise the penalty's conjugate is an indicator, and the
        # gradient's dual point is almost never feasible.
        self.certifies = hp.lambda2 > 0 and hp.lambda3 > 0

    def _split(self, u):
        """Views (b, W) of u = (b, vec W): W is F-order, so the per-row
        reductions of the prox and the dual bound read contiguous memory."""
        return u[:self.J], u[self.J:].reshape(self.J, -1).T

    # M-PGH works in full coordinates: a coordinate move copies u.
    enter = full = staticmethod(np.array)
    working_sets, support = 0, None
    finish = staticmethod(lambda u: None)  # none: its signs settle last

    def margins(self, u):
        b, W = self._split(u)
        return (np.asarray(self.X @ W) + b).ravel()

    def smooth(self, m):
        return multi_smooth_from_margins(m.reshape(-1, self.J), self._wrong,
                                         self.hp.delta)

    def smooth_grad(self, m, *held):
        """(f, gradient, dual bound, held) at the base held[0] with margins
        m, from one fused loss call at every base alike; the bound is -inf
        unless ``certifies``, and ``held`` is returned as it came."""
        f, gb, gW, dual_loss = multi_grad_from_margins(
            m.reshape(-1, self.J), self.X, self._wrong, self.hp.delta)
        grad = np.concatenate([gb, gW.ravel(order="F")])
        dual = (self._dual_bound(dual_loss, grad, held[0]) if self.certifies
                else -math.inf)
        return f, grad, dual, held

    def grad(self, m):
        """Gradient at margins m."""
        _, gb, gW, _ = multi_grad_from_margins(
            m.reshape(-1, self.J), self.X, self._wrong, self.hp.delta)
        return np.concatenate([gb, gW.ravel(order="F")])

    def _dual_bound(self, dual_loss, grad, u):
        """Dual objective at the loss coefficients C behind the gradient
        grad = (gb, vec gW), taken at the point u:

            D = dual_loss - sum_k ||S_lam1(v_k - sigma_k)||^2 / (2 lam2)
                          - ||gb - mean(gb)||^2 / (2 lam3),

        with v_k = -(row k of gW). The middle sum is the zero-sum
        elastic-net conjugate, min over sigma_k of each row's term, so any
        sigma_k gives a valid lower bound on the optimum. A flat row
        (spread <= 2 lam1) contributes 0, its term at the midpoint. Every
        other row takes sigma_k from the sign pattern of its row of W,
        as ``multi_w_step``'s guess does: exact once the support of W is
        the optimum's. A row of W without a nonzero takes the midpoint.
        """
        lam1 = self.hp.lambda1
        gb, gW = self._split(grad)
        hi, lo = gW.max(axis=1), gW.min(axis=1)
        V, W = -gW, self._split(u)[1]
        sigma, n_act, _ = sign_pattern_sigma(V, np.sign(W), lam1)
        sigma = np.where(n_act == 0, -0.5 * (hi + lo), sigma)
        # The inf threshold of a flat row makes its term 0.
        thresh = np.where(hi - lo > 2.0 * lam1, lam1, np.inf)
        R = np.abs(V - sigma[:, None])
        R -= thresh[:, None]
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
        return np.concatenate([b, W.ravel(order="F")])

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
        return np.concatenate([model.b, model.W.ravel(order="F")])


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
               opts: Optional[SolverOptions] = None, u0=None,
               L0=None) -> FitResult:
    """Train the binary model by extrapolated proximal gradient descent
    from u0 = (b, w) (zero if None) at the step constant L0 (the default)."""
    return _run_pg_loop(BinaryObjective(data, hp), opts or SolverOptions(),
                        u0=u0, L0=L0)


def fit_binary_two_stage(data: Dataset, hp: Hyperparams,
                         opts: Optional[SolverOptions] = None) -> FitResult:
    """B-PGH-2, the paper's two-stage method: identify the support, then
    solve the problem restricted to it. B-PGH from zero does both in one
    fit: its screen at w = 0 forms the working block, and its certificate
    proves the full problem's optimality condition on every frozen feature
    at every later base. So this is ``fit_binary``: ``stage`` on the trace
    numbers the working sets, and ``support`` is the last one."""
    return fit_binary(data, hp, opts)


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
    chosen. All share the paper's stopping rule, relative progress
    (``check_stop``), and report no gap. A fixed step starts at the global
    constant, where the line search accepts at once."""
    if setting not in _ABLATION:
        raise DomainError(f"unknown ablation setting {setting!r}")
    fixed, monotone = _ABLATION[setting]
    prob = BinaryObjective(data, hp)
    prob.certifies = False
    return _run_pg_loop(prob, opts or SolverOptions(), monotone,
                        L0=prob.L_global if fixed else None)

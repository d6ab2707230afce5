"""Proximal operators: scalar shrinkage, the binary prox step, the
closed-form multi-class intercept step, and the exact zero-sum l1 prox

    min_w  (1/2)||w - z||^2 + lam ||w||_1   s.t.  e'w = 0.

The dual reduces to the scalar root of gamma'(sigma) = e'S_lam(z - sigma),
a continuous nonincreasing piecewise-linear function whose 2J breakpoints
are z_i -/+ lam. One vectorised kernel solves all rows of a matrix in
O(J log J) time and O(J) memory per row, as in the sort-and-prefix-sum
l1-ball projection of Duchi et al. (ICML 2008): it sorts each row's
breakpoints, evaluates gamma' at all of them from prefix sums, and solves
the affine piece on which gamma' changes sign in closed form. When the
root is a flat segment (the w* = 0 case, max z - min z <= 2 lam), the
segment midpoint is returned; every sigma in the segment yields the same
w*.

multi_w_step needs only w*, and it sorts only the rows it cannot solve in
closed form. A flat row gets w = 0. Every other row takes the sign pattern
s of its row of W_hat as a guess: with s known, e'w = 0 gives
sigma = (sum_{s_i != 0} z_i - lam e's) / #{s_i != 0}, and w = S_lam(z - sigma)
is optimal exactly when sign(w) == s (the KKT conditions). Since the
support of the iterates settles after finitely many steps, most guesses
hold; a row whose guess fails, is empty or has one sign goes through the
kernel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .losses import Hyperparams


def shrink(t, nu):
    """Component-wise soft threshold sign(t) * max(|t| - nu, 0)."""
    if nu < 0:
        raise DomainError("shrinkage threshold must be nonnegative")
    t_in = np.asarray(t, dtype=float)
    out = np.sign(t_in) * np.maximum(np.abs(t_in) - nu, 0.0)
    return float(out) if t_in.ndim == 0 else out


def binary_prox_step(b_hat, w_hat, grad_b, grad_w, L_k, hp: Hyperparams):
    """One proximal step of the binary objective at (b_hat, w_hat):

        b = (L_k b_hat - grad_b) / (L_k + lambda3)
        w = S_{lambda1}(L_k w_hat - grad_w) / (L_k + lambda2)
    """
    if L_k <= 0:
        raise DomainError("L_k must be positive")
    b = (L_k * b_hat - grad_b) / (L_k + hp.lambda3)
    w = shrink(L_k * np.asarray(w_hat, dtype=float) - grad_w, hp.lambda1)
    w /= (L_k + hp.lambda2)
    return b, w


def dual_residual(z, lam, sigma) -> float:
    """gamma'(sigma) = e'S_lam(z - sigma); nonincreasing in sigma."""
    if lam <= 0:
        raise DomainError("lam must be positive")
    return float(np.sum(shrink(np.asarray(z, dtype=float) - sigma, lam)))


@dataclass(frozen=True)
class DualProxResult:
    """Zero-sum l1 prox solution: primal w and dual multiplier sigma."""

    w: np.ndarray
    sigma: float


# Relative margin below 2 lam under which multi_w_step skips a row. It
# covers the few ulps of rounding in the range and in the kernel's centring,
# so every skipped row is one the kernel itself returns as zeros; rows
# nearer the boundary, and rows with a NaN, still go through the kernel.
_FLAT_MARGIN = 64 * np.finfo(float).eps


def _zero_sum_prox_rows(Z, lam):
    """Zero-sum l1 prox of every row of the (p, J) matrix Z at once.

    Returns (W, sigma): the primal rows and their multipliers.
    """
    p, J = Z.shape
    # The prox commutes with a common shift of z and sigma; centring each
    # row keeps the prefix sums below free of cancellation.
    mu = Z.sum(axis=1) / J
    Zc = Z - mu[:, None]
    B = np.concatenate([Zc - lam, Zc + lam], axis=1)
    order = np.argsort(B, axis=1)
    # Offsets of each row's first entry in the flattened (p, 2J) arrays.
    base = np.arange(0, p * 2 * J, 2 * J)
    V = B.ravel()[order + base[:, None]]
    upper = order < J  # z_i - lam, active while sigma lies below it
    # On the piece [V[m], V[m+1]], gamma'(sigma) = T[m] - n[m] sigma: the
    # upper breakpoints right of m count with +1, the lower ones up to m
    # with -1. A breakpoint equal to sigma adds zero on either side.
    VU = np.where(upper, V, 0.0)
    cum_up = np.cumsum(VU, axis=1)
    T = cum_up[:, -1:] - cum_up + np.cumsum(V - VU, axis=1)
    n = np.cumsum(np.where(upper, -1.0, 1.0), axis=1)
    n += J
    # gamma' is positive left of its root, so the root lies on the piece
    # that starts at the last positive breakpoint.
    m = np.clip(np.count_nonzero(T > n * V, axis=1) - 1, 0, 2 * J - 2)
    # The middle piece is flat iff max z - min z <= 2 lam; gamma' vanishes
    # on all of it and w* = 0, so sigma is its midpoint.
    flat = n[:, J - 1] == 0
    m[flat] = J - 1
    at = base + m
    V, T, n = V.ravel(), T.ravel(), n.ravel()
    lo, hi = V[at], V[at + 1]
    root = np.clip(T[at] / np.maximum(n[at], 1), lo, hi)
    sigma = np.where(flat, 0.5 * (lo + hi), root)
    W = shrink(Zc - sigma[:, None], lam)
    return W, sigma + mu


def eq_constrained_l1_prox(z, lam) -> DualProxResult:
    """Exact minimizer of (1/2)||w - z||^2 + lam ||w||_1 s.t. e'w = 0.

    The one-row case of the row kernel behind :func:`multi_w_step`. The
    primal solution is w = S_lam(z - sigma*), exactly zero off the active
    set.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise DomainError("z must be a vector of dimension >= 2")
    if lam <= 0:
        raise DomainError("lam must be positive")
    W, sigma = _zero_sum_prox_rows(z[None, :], lam)
    return DualProxResult(w=W[0], sigma=float(sigma[0]))


def multi_b_step(b_hat, grad_b, L_k, lambda3) -> np.ndarray:
    """Closed-form zero-sum intercept update: with q = L_k b_hat - grad_b,
    the multiplier of e'b = 0 is mean(q), so b = (q - mean(q)) / (L_k +
    lambda3)."""
    b_hat = np.asarray(b_hat, dtype=float)
    grad_b = np.asarray(grad_b, dtype=float)
    if L_k + lambda3 <= 0:
        raise DomainError("need L_k + lambda3 > 0")
    q = L_k * b_hat - grad_b
    return (q - q.mean()) / (L_k + lambda3)


def row_range(Z):
    """(max, min) of each row of Z, reduced over axis 0 of a transposed
    copy: several times faster than over the short axis of Z."""
    ZT = Z.T.copy()
    return ZT.max(axis=0), ZT.min(axis=0)


def sign_pattern_sigma(Z, S, lam):
    """The multiplier sigma = (sum_{s_i != 0} z_i - lam e's) / #{s_i != 0}
    of each row z of Z under the sign pattern s, the same row of S (see the
    module docstring). Returns (sigma, n_act, s_sum) with n_act and s_sum
    the rows' #{s_i != 0} and e's; an empty pattern divides by 1, not 0."""
    A = np.abs(S)
    n_act, s_sum = A.sum(axis=1), S.sum(axis=1)
    sigma = ((A * Z).sum(axis=1) - lam * s_sum) / np.maximum(n_act, 1.0)
    return sigma, n_act, s_sum


def multi_w_step(W_hat, grad_W, L_k, lambda1, lambda2) -> np.ndarray:
    """Row-decomposed weight update: each row of W solves a zero-sum l1
    prox with threshold lambda1/(L_k + lambda2).

    A flat row gets w = 0. Every other row first tries the sign pattern of
    its row of W_hat, and only a row whose guess fails goes through the
    sorting kernel; see the module docstring."""
    W_hat = np.asarray(W_hat, dtype=float)
    grad_W = np.asarray(grad_W, dtype=float)
    if L_k + lambda2 <= 0:
        raise DomainError("need L_k + lambda2 > 0")
    if W_hat.shape != grad_W.shape or W_hat.ndim != 2:
        raise ShapeError("W_hat and grad_W must be matching matrices")
    Z = (L_k * W_hat - grad_W) / (L_k + lambda2)
    lam = lambda1 / (L_k + lambda2)
    if lam == 0.0:
        return Z - Z.mean(axis=1, keepdims=True)
    # A flat row (max z - min z <= 2 lam) has w* = 0.
    hi, lo = row_range(Z)
    live = np.flatnonzero(~(hi - lo <= 2.0 * lam * (1.0 - _FLAT_MARGIN)))
    W = np.zeros_like(Z)
    S = np.sign(W_hat[live])
    if S.any():
        # Each live row is solved from the sign pattern of its row of W_hat.
        Z_live = Z[live]
        sigma, n_act, s_sum = sign_pattern_sigma(Z_live, S, lam)
        W_live = shrink(Z_live - sigma[:, None], lam)
        # A row whose guess is empty or has one sign, fails the sign test
        # or holds a NaN goes through the kernel.
        miss = live[(np.abs(s_sum) >= n_act)
                    | (np.sign(W_live) != S).any(axis=1)]
        W[live] = W_live
    else:
        # Every guess is empty, as at a fit's first step from zero, and an
        # empty guess always goes through the kernel.
        miss = live
    if miss.size:
        W[miss] = _zero_sum_prox_rows(Z[miss], lam)[0]
    return W

"""Huberized hinge loss, penalties and Lipschitz constants of both objectives.

The binary objective is F(b, w) = f + g with

    f(b, w) = (1/n) sum_i phi(y_i (b + x_i' w)),
    g(b, w) = lambda1 ||w||_1 + (lambda2/2) ||w||^2 + (lambda3/2) b^2,

and the multi-class objective is H(b, W) = l + G with

    l(b, W) = (1/n) sum_i sum_{j != y_i} phi(-(b_j + x_i' w_j)),
    G(b, W) = lambda1 ||W||_1 + (lambda2/2) ||W||_F^2 + (lambda3/2) ||b||^2,

subject to W e = 0 and e' b = 0. The wrong-class margin is the negated
class score: driving every wrong-class score below -1 zeroes its loss
term, so under the zero-sum constraints the true class ends up with the
largest score and the argmax decision rule is Fisher consistent.
phi is zero above 1, quadratic on
(1 - delta, 1] and linear below, so it is C^1 with a (1/delta)-Lipschitz
derivative; both smooth parts therefore have Lipschitz gradients with the
explicit constants computed below. The objectives themselves, with their
margins and gradients, are ``hsvm.solver.BinaryObjective`` and
``hsvm.solver.MultiObjective``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Hyperparams:
    """Penalty weights and huberization width of the objectives.

    Linear convergence of the solvers requires lambda2 > 0 and lambda3 > 0;
    the objectives themselves only need them nonnegative.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    delta: float = 1.0

    def __post_init__(self):
        vals = (self.lambda1, self.lambda2, self.lambda3, self.delta)
        if not all(np.isfinite(v) for v in vals):
            raise DomainError("hyperparameters must be finite")
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise DomainError("penalty weights must be nonnegative")
        if self.delta <= 0:
            raise DomainError("delta must be positive")


def _check_delta(delta):
    if not np.isfinite(delta) or delta <= 0:
        raise DomainError("delta must be positive and finite")


def _clipped_hinge(t, delta):
    """s = max(1 - t, 0), once ``delta`` and every entry of ``t`` have
    been checked; phi and phi' are both functions of min(s, delta)."""
    _check_delta(delta)
    t_in = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_in)):
        raise DomainError("loss argument must be finite")
    return np.maximum(1.0 - t_in, 0.0)


def huber_loss(t, delta):
    """Smoothed hinge penalty: 0 above 1, (1-t)^2/(2 delta) on
    (1-delta, 1], and 1 - t - delta/2 below. Accepts scalars or arrays."""
    s = _clipped_hinge(t, delta)
    r = np.minimum(s, delta)
    out = np.where(s < delta, r * r / (2.0 * delta), s - 0.5 * delta)
    return float(out) if out.ndim == 0 else out


def huber_grad(t, delta):
    """Derivative of :func:`huber_loss`: 0 above 1, (t-1)/delta on
    (1-delta, 1], and -1 below. Always lies in [-1, 0]."""
    out = -np.minimum(_clipped_hinge(t, delta), delta) / delta
    return float(out) if out.ndim == 0 else out


def binary_penalty(b, w, hp: Hyperparams) -> float:
    w = np.asarray(w, dtype=float)
    return float(hp.lambda1 * np.abs(w).sum()
                 + 0.5 * hp.lambda2 * (w @ w)
                 + 0.5 * hp.lambda3 * b * b)


def lipschitz_binary(data, delta) -> float:
    """Gradient Lipschitz constant (1/(n delta)) sum_i (1 + ||x_i||^2);
    the y_i^2 factor of the chain rule is 1 for +1/-1 labels."""
    _check_delta(delta)
    if data.n < 1:
        raise DomainError("need at least one sample")
    return float((1.0 + data.row_sqnorms()).sum() / (data.n * delta))


def multi_penalty(b, W, hp: Hyperparams) -> float:
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(hp.lambda1 * np.abs(W).sum()
                 + 0.5 * hp.lambda2 * (W * W).sum()
                 + 0.5 * hp.lambda3 * (b @ b))


def wrong_class_mask(labels, n_classes) -> np.ndarray:
    """(n, J) float mask of the wrong classes: 1 where j != y_i, else 0.
    The M-PGH loss kernels below take it in place of the labels, so an
    objective builds it once."""
    mask = np.ones((labels.size, n_classes))
    mask[np.arange(labels.size), labels - 1] = 0.0
    return mask


def _multi_pieces(scores, wrong, delta):
    """The clipped hinge R = max(1 + s, 0) of every negated class score and
    the dual coefficients C = min(R, delta)/delta, zero on the true class.
    phi(-s) = C (R - delta C / 2) on the wrong classes. The caller has
    checked delta; a non-finite score raises ``DomainError``."""
    if not np.isfinite(scores).all():
        raise DomainError("loss argument must be finite")
    R = np.maximum(1.0 + scores, 0.0)
    C = np.minimum(R, delta)
    C *= wrong
    C /= delta
    return R, C


def _multi_value(R, C, delta, n) -> float:
    return float((C * (R - 0.5 * delta * C)).sum() / n)


def multi_smooth_from_margins(scores, wrong, delta) -> float:
    """Average huberized loss of the negated wrong-class scores; ``wrong``
    is the objective's :func:`wrong_class_mask`."""
    R, C = _multi_pieces(scores, wrong, delta)
    return _multi_value(R, C, delta, scores.shape[0])


def multi_grad_from_margins(scores, X, wrong, delta):
    """Value, gradient and dual loss term of the smooth part from one clip
    of the class scores. Returns (value, grad_b, grad_W, dual_loss).

    The chain rule through the negated wrong-class margin flips the sign of
    phi', so the gradient with respect to the scores is C/n with C from
    ``_multi_pieces``, in [0, 1]. C is also a dual point: on [-1, 0]
    phi*(a) = a + delta a^2/2, so the loss part of the dual objective at C
    is dual_loss = (1/n) sum (C - delta C^2/2).
    """
    n = scores.shape[0]
    R, C = _multi_pieces(scores, wrong, delta)
    value = _multi_value(R, C, delta, n)
    dual_loss = float((C * (1.0 - 0.5 * delta * C)).sum() / n)
    G = C / n
    return value, G.sum(axis=0), np.asarray(X.T @ G), dual_loss


def lipschitz_multi(data, delta, n_classes=None) -> float:
    """Gradient Lipschitz constant (J/(n delta)) sum_i (1 + ||x_i||^2)."""
    _check_delta(delta)
    if data.n < 1:
        raise DomainError("need at least one sample")
    j = data.n_classes if n_classes is None else int(n_classes)
    if j < 2:
        raise DomainError("need at least two classes")
    return float(j * (1.0 + data.row_sqnorms()).sum() / (data.n * delta))

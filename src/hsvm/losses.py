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
phi is zero above 1, quadratic on (1 - delta, 1] and linear below, so it
is C^1 with a (1/delta)-Lipschitz derivative; both smooth parts therefore
have Lipschitz gradients with the explicit constants computed below.

Every loss function here reads phi through one helper, ``_pieces``, which
returns R = max(1 - t, 0) and C = min(R, delta)/delta of each margin t:

    phi(t) = C (R - delta C/2),   phi'(t) = -C,

and C (1 - delta C/2) is the dual loss term at C (on [-1, 0],
phi*(a) = a + delta a^2/2), formed only by ``_dual_loss``.
``_loss_terms`` forms the mean of phi and C from one clip, for both
objectives (``hsvm.solver.BinaryObjective`` and
``hsvm.solver.MultiObjective``): phi at a binary margin t is the loss term
of the wrong-class score -t, and the binary penalty and Lipschitz constant
are the one-column case of the multi-class ones.

Inputs are checked where they enter, never in private helpers: delta in
``Hyperparams``, X in ``_lipschitz`` (``finite_features``), u0 in
``BinaryObjective.enter``, margins in the public kernels (``_checked``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import finite_features
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


def _checked(delta, t=0.0):
    """The margins t as a float array, once delta and t are checked."""
    if not np.isfinite(delta) or delta <= 0:
        raise DomainError("delta must be positive and finite")
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError("loss argument must be finite")
    return t


def _pieces(t, delta, mask=None):
    """R = max(1 - t, 0) and C = min(R, delta)/delta of every margin in t,
    C zeroed where ``mask`` is 0; see the module docstring."""
    R = np.maximum(1.0 - t, 0.0)
    C = np.minimum(R, delta)
    C /= delta
    if mask is not None:
        C *= mask
    return R, C


def _phi(R, C, delta):
    return C * (R - 0.5 * delta * C)


def _loss_terms(t, delta, mask=None):
    """(mean phi, C) over the rows of margins t."""
    R, C = _pieces(t, delta, mask)
    return float(_phi(R, C, delta).sum() / t.shape[0]), C


def _dual_loss(C, delta):
    """Mean over the rows of C of the dual loss term C (1 - delta C/2)."""
    return float((C * (1.0 - 0.5 * delta * C)).sum() / C.shape[0])


def huber_loss(t, delta):
    """Smoothed hinge penalty: 0 above 1, (1-t)^2/(2 delta) on
    (1-delta, 1], and 1 - t - delta/2 below. Accepts scalars or arrays."""
    out = _phi(*_pieces(_checked(delta, t), delta), delta)
    return float(out) if out.ndim == 0 else out


def huber_grad(t, delta):
    """Derivative of :func:`huber_loss`: 0 above 1, (t-1)/delta on
    (1-delta, 1], and -1 below. Always lies in [-1, 0]."""
    out = -_pieces(_checked(delta, t), delta)[1]
    return float(out) if out.ndim == 0 else out


def binary_penalty(b, w, hp: Hyperparams) -> float:
    return multi_penalty([b], np.asarray(w, dtype=float)[:, None], hp)


def multi_penalty(b, W, hp: Hyperparams) -> float:
    """G(b, W); inf, with no warning, where a weighted term overflows. A
    term whose weight is 0 is left out: it adds 0 however large its sum."""
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    total = 0.0
    with np.errstate(over="ignore"):
        if hp.lambda1:
            total += hp.lambda1 * np.abs(W).sum()
        if hp.lambda2:
            total += 0.5 * hp.lambda2 * (W * W).sum()
        if hp.lambda3:
            total += 0.5 * hp.lambda3 * (b @ b)
    return float(total)


def _lipschitz(data, delta, n_columns) -> float:
    """(J/(n delta)) sum_i (1 + ||x_i||^2) for J = ``n_columns`` columns.
    Every objective forms it first, so a NaN, inf or overflowing entry of X
    is rejected here, by ``finite_features``."""
    _checked(delta)
    if data.n < 1:
        raise DomainError("need at least one sample")
    finite_features(data)
    total = float((1.0 + data.row_sqnorms()).sum())
    return n_columns * total / (data.n * delta)


def lipschitz_binary(data, delta) -> float:
    """Gradient Lipschitz constant (1/(n delta)) sum_i (1 + ||x_i||^2);
    the y_i^2 factor of the chain rule is 1 for +1/-1 labels."""
    return _lipschitz(data, delta, 1)


def wrong_class_mask(labels, n_classes) -> np.ndarray:
    """(n, J) float mask of the wrong classes: 1 where j != y_i, else 0.
    The M-PGH loss kernels below take it in place of the labels, so an
    objective builds it once."""
    mask = np.ones((labels.size, n_classes))
    mask[np.arange(labels.size), labels - 1] = 0.0
    return mask


def multi_smooth_from_margins(scores, wrong, delta) -> float:
    """Average huberized loss of the negated wrong-class scores; ``wrong``
    is the objective's :func:`wrong_class_mask`."""
    return _loss_terms(-_checked(delta, scores), delta, wrong)[0]


def multi_grad_from_margins(scores, X, wrong, delta):
    """(value, grad_b, grad_W, dual_loss) of the smooth part from one clip
    of the class scores. The chain rule through the negated wrong-class
    margin flips the sign of phi', so the gradient with respect to the
    scores is C/n, in [0, 1/n]; C is also a dual point, at which dual_loss
    is the loss part of the dual objective."""
    n = scores.shape[0]
    value, C = _loss_terms(-_checked(delta, scores), delta, wrong)
    G = C / n
    return value, G.sum(axis=0), np.asarray(X.T @ G), _dual_loss(C, delta)


def lipschitz_multi(data, delta, n_classes=None) -> float:
    """Gradient Lipschitz constant (J/(n delta)) sum_i (1 + ||x_i||^2)."""
    j = data.n_classes if n_classes is None else int(n_classes)
    if j < 2:
        raise DomainError("need at least two classes")
    return _lipschitz(data, delta, j)

"""Huberized hinge loss and the smooth/penalty split of both objectives.

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
explicit constants computed below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, DomainError, LabelError, ShapeError, StateError
from .model import FEASIBILITY_TOL, BinaryModel, MultiModel


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


@dataclass(frozen=True)
class BinaryObjectiveParts:
    smooth: float
    penalty: float
    total: float


@dataclass(frozen=True)
class MultiObjectiveParts:
    smooth: float
    penalty: float
    total: float


def _check_delta(delta):
    if not np.isfinite(delta) or delta <= 0:
        raise DomainError("delta must be positive and finite")


def huber_loss(t, delta):
    """Smoothed hinge penalty: 0 above 1, (1-t)^2/(2 delta) on
    (1-delta, 1], and 1 - t - delta/2 below. Accepts scalars or arrays."""
    _check_delta(delta)
    t_in = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_in)):
        raise DomainError("loss argument must be finite")
    t1 = np.atleast_1d(t_in)
    out = np.zeros_like(t1)
    quad = (t1 > 1.0 - delta) & (t1 <= 1.0)
    lin = t1 <= 1.0 - delta
    r = 1.0 - t1[quad]
    out[quad] = r * r / (2.0 * delta)
    out[lin] = (1.0 - t1[lin]) - 0.5 * delta
    return float(out[0]) if t_in.ndim == 0 else out.reshape(t_in.shape)


def huber_grad(t, delta):
    """Derivative of :func:`huber_loss`: 0 above 1, (t-1)/delta on
    (1-delta, 1], and -1 below. Always lies in [-1, 0]."""
    _check_delta(delta)
    t_in = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_in)):
        raise DomainError("loss argument must be finite")
    t1 = np.atleast_1d(t_in)
    out = np.zeros_like(t1)
    quad = (t1 > 1.0 - delta) & (t1 <= 1.0)
    lin = t1 <= 1.0 - delta
    out[quad] = (t1[quad] - 1.0) / delta
    out[lin] = -1.0
    return float(out[0]) if t_in.ndim == 0 else out.reshape(t_in.shape)


def _require_binary(data):
    if data.kind != "binary":
        raise LabelError("expected a binary dataset (+1/-1 labels)")


def _require_multiclass(data):
    if data.kind != "multiclass":
        raise LabelError("expected a multi-class dataset (labels in 1..J)")


def binary_margins(b, w, data) -> np.ndarray:
    """Classification margins y_i (b + x_i' w) for every sample."""
    w = np.asarray(w, dtype=float)
    if w.size != data.n_features:
        raise ShapeError(
            f"w has {w.size} entries, data has {data.n_features} features")
    return data.labels * (b + np.asarray(data.X @ w).ravel())


def binary_penalty(b, w, hp: Hyperparams) -> float:
    w = np.asarray(w, dtype=float)
    return float(hp.lambda1 * np.abs(w).sum()
                 + 0.5 * hp.lambda2 * (w @ w)
                 + 0.5 * hp.lambda3 * b * b)


def binary_objective(model: BinaryModel, data, hp: Hyperparams) -> BinaryObjectiveParts:
    """Evaluate F = f + g at a binary model."""
    _require_binary(data)
    m = binary_margins(model.b, model.w, data)
    smooth = float(np.mean(huber_loss(m, hp.delta)))
    penalty = binary_penalty(model.b, model.w, hp)
    return BinaryObjectiveParts(smooth=smooth, penalty=penalty,
                                total=smooth + penalty)


def binary_smooth_grad(margins, data, delta):
    """Gradient of f from cached margins: (1/n) sum_i phi'(m_i) (y_i; y_i x_i).

    ``margins`` must correspond to the point being differentiated.
    """
    values = np.asarray(margins, dtype=float)
    if values.shape != (data.n,):
        raise StateError(
            f"margin cache has shape {values.shape}, expected ({data.n},)")
    coef = huber_grad(values, delta) * data.labels / data.n
    grad_b = float(coef.sum())
    grad_w = np.asarray(data.X.T @ coef).ravel()
    return grad_b, grad_w


def lipschitz_binary(data, delta) -> float:
    """Gradient Lipschitz constant (1/(n delta)) sum_i y_i^2 (1 + ||x_i||^2)."""
    _check_delta(delta)
    if data.n < 1:
        raise DomainError("need at least one sample")
    y2 = data.labels.astype(float) ** 2
    return float((y2 * (1.0 + data.row_sqnorms())).sum() / (data.n * delta))


def multi_margins(b, W, data) -> np.ndarray:
    """Class scores b_j + x_i' w_j as an (n, J) array."""
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    if W.shape != (data.n_features, b.size):
        raise ShapeError(
            f"W has shape {W.shape}, expected ({data.n_features}, {b.size})")
    return np.asarray(data.X @ W) + b


def multi_penalty(b, W, hp: Hyperparams) -> float:
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(hp.lambda1 * np.abs(W).sum()
                 + 0.5 * hp.lambda2 * (W * W).sum()
                 + 0.5 * hp.lambda3 * (b @ b))


def multi_smooth_from_margins(scores, labels, delta) -> float:
    """Average huberized loss of the negated wrong-class scores."""
    loss = huber_loss(-scores, delta)
    loss[np.arange(labels.size), labels - 1] = 0.0  # skip j == y_i
    return float(loss.sum() / labels.size)


def multi_objective(model: MultiModel, data, hp: Hyperparams) -> MultiObjectiveParts:
    """Evaluate H = l + G at a feasible multi-class model."""
    _require_multiclass(data)
    if model.feasibility_residual() > FEASIBILITY_TOL:
        raise ConstraintError("model violates the zero-sum constraints")
    m = multi_margins(model.b, model.W, data)
    smooth = multi_smooth_from_margins(m, data.labels, hp.delta)
    penalty = multi_penalty(model.b, model.W, hp)
    return MultiObjectiveParts(smooth=smooth, penalty=penalty,
                               total=smooth + penalty)


def multi_grad_from_margins(scores, data, delta):
    """Gradient of the smooth part from cached class scores; the chain
    rule through the negated wrong-class margin flips the sign of phi'."""
    if scores.shape[0] != data.n:
        raise StateError(
            f"margin cache has {scores.shape[0]} rows, expected {data.n}")
    G = -huber_grad(-scores, delta)
    G[np.arange(data.n), data.labels - 1] = 0.0  # skip j == y_i
    G /= data.n
    grad_b = G.sum(axis=0)
    grad_W = np.asarray(data.X.T @ G)
    return grad_b, grad_W


def multi_smooth_grad(model: MultiModel, data, delta):
    """Gradient of l at a feasible model; returns (J,) and (p, J) parts."""
    _require_multiclass(data)
    if model.feasibility_residual() > FEASIBILITY_TOL:
        raise ConstraintError("model violates the zero-sum constraints")
    m = multi_margins(model.b, model.W, data)
    return multi_grad_from_margins(m, data, delta)


def lipschitz_multi(data, delta, n_classes=None) -> float:
    """Gradient Lipschitz constant (J/(n delta)) sum_i (1 + ||x_i||^2)."""
    _check_delta(delta)
    if data.n < 1:
        raise DomainError("need at least one sample")
    j = data.n_classes if n_classes is None else int(n_classes)
    if j < 2:
        raise DomainError("need at least two classes")
    return float(j * (1.0 + data.row_sqnorms()).sum() / (data.n * delta))

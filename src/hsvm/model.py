"""Model containers, prediction, text persistence and evaluation metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .data import Dataset, issparse
from .errors import (ConstraintError, DomainError, FormatError, LabelError,
                     ShapeError)
from .losses import Hyperparams

FEASIBILITY_TOL = 1e-8


def weight_zeros(shape) -> np.ndarray:
    """``np.zeros(shape)``; a shape NumPy cannot size at all (a width near
    2^63 read from a file) raises ``MemoryError``, not ``ValueError``."""
    try:
        return np.zeros(shape)
    except ValueError as exc:
        raise MemoryError(f"weights of shape {shape}: {exc}") from None


@dataclass
class BinaryModel:
    """Separating hyperplane sign(w.x + b)."""

    b: float
    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.ndim != 1:
            raise ShapeError("w must be a vector")
        if not (np.isfinite(self.b) and np.all(np.isfinite(self.w))):
            raise DomainError("model entries must be finite")

    @property
    def n_features(self):
        return self.w.size


@dataclass
class MultiModel:
    """One score column per class; rows of W and the intercepts sum to zero."""

    b: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        self.W = np.asarray(self.W, dtype=float)
        if self.b.ndim != 1 or self.W.ndim != 2 or self.W.shape[1] != self.b.size:
            raise ShapeError("need b of length J and W of shape (p, J)")
        if not (np.all(np.isfinite(self.b)) and np.all(np.isfinite(self.W))):
            raise DomainError("model entries must be finite")
        if self.feasibility_residual() > FEASIBILITY_TOL:
            raise ConstraintError(
                "zero-sum constraints violated beyond tolerance")

    def feasibility_residual(self) -> float:
        row = np.abs(self.W.sum(axis=1)).max() if self.W.size else 0.0
        return max(row, abs(self.b.sum()))

    @property
    def n_features(self):
        return self.W.shape[0]

    @property
    def n_classes(self):
        return self.b.size


def _columns(model):
    """The weights as a (p, k) matrix, so one path serves both kinds: a
    binary ``w`` is the single column (k = 1), a multi-class ``W`` has J."""
    return model.w[:, None] if isinstance(model, BinaryModel) else model.W


def _predict(model, X, score, decide):
    """``decide(score(rows))`` for a matrix of rows, or its one label for a
    single row, after checking the feature count. A score that is not
    finite (a NaN or inf feature value, or a product with a weight that
    overflows, where inf - inf gives NaN) has no label: it raises
    ``DomainError``, and the overflow gives no warning."""
    single = not issparse(X) and np.asarray(X).ndim == 1
    X2 = np.atleast_2d(X) if single else X
    if X2.shape[-1] != model.n_features:
        raise ShapeError(
            f"model has {model.n_features} features, data has {X2.shape[-1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        scores = score(X2)
    if not np.all(np.isfinite(scores)):
        raise DomainError("a prediction score is not finite: a feature "
                          "value is, or overflows times its weight")
    labels = decide(scores).astype(np.int64)
    return int(labels[0]) if single else labels


def predict_binary(model: BinaryModel, X):
    """Predict +1/-1 for one row or a matrix of rows. A score of exactly
    zero maps to +1."""
    return _predict(model, X,
                    lambda Z: np.asarray(Z @ model.w).ravel() + model.b,
                    lambda s: np.where(s >= 0.0, 1, -1))


def predict_multi(model: MultiModel, X):
    """Predict the argmax class in 1..J; ties go to the smallest index."""
    return _predict(model, X, lambda Z: np.asarray(Z @ model.W) + model.b,
                    lambda s: s.argmax(axis=1) + 1)


def predict(model, data: Dataset):
    if isinstance(model, BinaryModel):
        return predict_binary(model, data.X)
    return predict_multi(model, data.X)


def check_labels(model, labels) -> None:
    """Raise ``LabelError`` unless every label is one the model can
    predict: +1 or -1 for a binary model, 1..J for a multi-class one.

    Decided by the label values, not ``Dataset.kind``: a multi-class set
    whose rows are all class 1 is inferred as binary.
    """
    if isinstance(model, BinaryModel):
        known, text = [-1, 1], "+1 or -1"
    else:
        known, text = np.arange(1, model.n_classes + 1), f"1..{model.n_classes}"
    bad = np.setdiff1d(labels, known)
    if bad.size:
        raise LabelError(
            f"label {bad[0]} is not one the model can predict ({text})")


def save_model(model, hp, stream: IO[str]) -> None:
    """Text format: header, hyperparameter line, intercept line, then one
    line per nonzero weight (1-based indices, 17 significant digits):
    ``w <i> <v>`` for a binary model, ``w <r> <c> <v>`` for a multi-class
    one."""
    if isinstance(model, BinaryModel):
        kind, j, b = "binary", 2, [model.b]
    elif isinstance(model, MultiModel):
        kind, j, b = "multi", model.n_classes, model.b
    else:
        raise FormatError(f"cannot save object of type {type(model).__name__}")
    cols = _columns(model)
    stream.write(f"HSVM {kind} p={model.n_features} J={j}\n")
    stream.write(f"lambda1={hp.lambda1:.17g} lambda2={hp.lambda2:.17g} "
                 f"lambda3={hp.lambda3:.17g} delta={hp.delta:.17g}\n")
    stream.write("b " + " ".join(f"{v:.17g}" for v in b) + "\n")
    for r, c in zip(*np.nonzero(cols)):
        at = f"{r + 1}" if kind == "binary" else f"{r + 1} {c + 1}"
        stream.write(f"w {at} {cols[r, c]:.17g}\n")


def _number(tok, line, kind=float):
    """``kind(tok)``; a malformed or non-finite token raises
    ``FormatError`` naming ``line``."""
    try:
        value = kind(tok)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FormatError(f"malformed number {tok!r} in {line!r}")
    return value


def load_model(stream: IO[str]):
    """Inverse of :func:`save_model`; returns ``(model, hyperparams)``.

    Multi-class constraint invariants are re-validated on load. Any
    truncation, malformed line or repeated weight raises ``FormatError``
    without producing a partial model.
    """
    lines = [ln.rstrip("\n") for ln in stream]
    if not lines:
        raise FormatError("empty model file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "HSVM":
        raise FormatError(f"bad header {lines[0]!r}")
    kind = head[1]
    if kind not in ("binary", "multi"):
        raise FormatError(f"unknown model kind {kind!r}")
    try:
        p = int(head[2].removeprefix("p="))
        j = int(head[3].removeprefix("J="))
    except ValueError:
        raise FormatError(f"bad header {lines[0]!r}") from None
    if p < 0 or j < 2 or (kind == "binary" and j != 2):
        raise FormatError(f"bad header {lines[0]!r}")
    if len(lines) < 3:
        raise FormatError("truncated model file")
    hp_fields = {}
    for tok in lines[1].split():
        key, sep, val = tok.partition("=")
        if not sep:
            raise FormatError(f"bad hyperparameter token {tok!r}")
        hp_fields[key] = _number(val, lines[1])
    try:
        hp = Hyperparams(**hp_fields)
    except (TypeError, DomainError):
        raise FormatError("bad hyperparameter line") from None
    b_tokens = lines[2].split()
    if not b_tokens or b_tokens[0] != "b":
        raise FormatError("missing intercept line")
    b_vals = [_number(v, lines[2]) for v in b_tokens[1:]]
    binary = kind == "binary"
    k = 1 if binary else j
    if len(b_vals) != k:
        raise FormatError(f"expected {k} intercept value(s), got {len(b_vals)}")
    cols = weight_zeros((p, k))
    seen = set()
    for ln in lines[3:]:
        if not ln.strip():
            continue
        toks = ln.split()
        if len(toks) != (3 if binary else 4) or toks[0] != "w":
            raise FormatError(f"bad weight line {ln!r}")
        r = _number(toks[1], ln, int) - 1
        c = 0 if binary else _number(toks[2], ln, int) - 1
        if not (0 <= r < p and 0 <= c < k):
            raise FormatError(f"weight index out of range in {ln!r}")
        if (r, c) in seen:
            raise FormatError(f"repeated weight in {ln!r}")
        seen.add((r, c))
        cols[r, c] = _number(toks[-1], ln)
    if binary:
        return BinaryModel(b=b_vals[0], w=cols[:, 0]), hp
    try:
        return MultiModel(b=np.asarray(b_vals), W=cols), hp
    except ConstraintError:
        raise FormatError(
            "stored multi-class model violates zero-sum constraints") from None


@dataclass(frozen=True)
class Metrics:
    """Prediction accuracy plus support-recovery counts.

    ``n_t``/``n_f`` count selected relevant/noise variables against a known
    generative support, ``nnz`` counts exactly nonzero weights, ``nnz_rows``
    counts nonzero weight rows (multi), ``incorrect_zeros`` counts relevant
    rows that came out entirely zero (multi).
    """

    accuracy: float
    nnz: int
    n_t: Optional[int] = None
    n_f: Optional[int] = None
    nnz_rows: Optional[int] = None
    incorrect_zeros: Optional[int] = None


def evaluate(model, test: Dataset, true_support=None) -> Metrics:
    """Score a model on labelled test data, every label one the model can
    predict (:func:`check_labels`).

    Support is exact nonzero; the proximal solvers produce exact zeros so
    no threshold is involved.
    """
    if test.n == 0:
        raise DomainError("empty test set")
    check_labels(model, test.labels)
    pred = predict(model, test)
    accuracy = float(np.mean(pred == test.labels))
    if true_support is None:
        true_support = test.true_support
    cols = _columns(model)
    row_support = np.flatnonzero(np.any(cols != 0.0, axis=1))
    n_t = n_f = iz = None
    if true_support is not None:
        truth = set(true_support.tolist())
        got = set(row_support.tolist())
        n_t = len(truth & got)
        n_f = len(got - truth)
        iz = len(truth - got)
    per_row = ({} if isinstance(model, BinaryModel) else
               dict(nnz_rows=int(row_support.size), incorrect_zeros=iz))
    return Metrics(accuracy=accuracy, nnz=int(np.count_nonzero(cols)),
                   n_t=n_t, n_f=n_f, **per_row)

"""Model containers, prediction, text persistence and evaluation metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np
import scipy.sparse as sp

from .data import BINARY, MULTICLASS, Dataset
from .errors import ConstraintError, DomainError, FormatError, ShapeError

FEASIBILITY_TOL = 1e-8


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


def _scores_binary(model: BinaryModel, X):
    if X.shape[-1] != model.n_features:
        raise ShapeError(
            f"model has {model.n_features} features, data has {X.shape[-1]}")
    return np.asarray(X @ model.w).ravel() + model.b


def predict_binary(model: BinaryModel, X):
    """Predict +1/-1 for one row or a matrix of rows. A score of exactly
    zero maps to +1."""
    single = not sp.issparse(X) and np.asarray(X).ndim == 1
    scores = _scores_binary(model, np.atleast_2d(X) if single else X)
    labels = np.where(scores >= 0.0, 1, -1).astype(np.int64)
    return int(labels[0]) if single else labels


def predict_multi(model: MultiModel, X):
    """Predict the argmax class in 1..J; ties go to the smallest index."""
    single = not sp.issparse(X) and np.asarray(X).ndim == 1
    X2 = np.atleast_2d(X) if single else X
    if X2.shape[-1] != model.n_features:
        raise ShapeError(
            f"model has {model.n_features} features, data has {X2.shape[-1]}")
    scores = np.asarray(X2 @ model.W) + model.b
    labels = (scores.argmax(axis=1) + 1).astype(np.int64)
    return int(labels[0]) if single else labels


def predict(model, data: Dataset):
    if isinstance(model, BinaryModel):
        return predict_binary(model, data.X)
    return predict_multi(model, data.X)


def save_model(model, hp, stream: IO[str]) -> None:
    """Text format: header, hyperparameter line, intercept line, then one
    line per nonzero weight (1-based indices, 17 significant digits)."""
    if isinstance(model, BinaryModel):
        kind, p, j = "binary", model.n_features, 2
    elif isinstance(model, MultiModel):
        kind, p, j = "multi", model.n_features, model.n_classes
    else:
        raise FormatError(f"cannot save object of type {type(model).__name__}")
    stream.write(f"HSVM {kind} p={p} J={j}\n")
    stream.write(f"lambda1={hp.lambda1:.17g} lambda2={hp.lambda2:.17g} "
                 f"lambda3={hp.lambda3:.17g} delta={hp.delta:.17g}\n")
    if kind == "binary":
        stream.write(f"b {model.b:.17g}\n")
        for i in np.flatnonzero(model.w):
            stream.write(f"w {i + 1} {model.w[i]:.17g}\n")
    else:
        stream.write("b " + " ".join(f"{v:.17g}" for v in model.b) + "\n")
        rows, cols = np.nonzero(model.W)
        for r, c in zip(rows, cols):
            stream.write(f"w {r + 1} {c + 1} {model.W[r, c]:.17g}\n")


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
    truncation or malformed line raises ``FormatError`` without producing a
    partial model.
    """
    from .losses import Hyperparams

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
    if p < 0 or j < 2:
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
    expected_b = 1 if kind == "binary" else j
    if len(b_vals) != expected_b:
        raise FormatError(
            f"expected {expected_b} intercept value(s), got {len(b_vals)}")
    if kind == "binary":
        w = np.zeros(p)
        for ln in lines[3:]:
            if not ln.strip():
                continue
            toks = ln.split()
            if len(toks) != 3 or toks[0] != "w":
                raise FormatError(f"bad weight line {ln!r}")
            i = _number(toks[1], ln, int) - 1
            if not 0 <= i < p:
                raise FormatError(f"weight index out of range in {ln!r}")
            w[i] = _number(toks[2], ln)
        return BinaryModel(b=b_vals[0], w=w), hp
    W = np.zeros((p, j))
    for ln in lines[3:]:
        if not ln.strip():
            continue
        toks = ln.split()
        if len(toks) != 4 or toks[0] != "w":
            raise FormatError(f"bad weight line {ln!r}")
        r, c = _number(toks[1], ln, int) - 1, _number(toks[2], ln, int) - 1
        if not (0 <= r < p and 0 <= c < j):
            raise FormatError(f"weight index out of range in {ln!r}")
        W[r, c] = _number(toks[3], ln)
    try:
        return MultiModel(b=np.asarray(b_vals), W=W), hp
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
    """Score a model on labelled test data.

    Support is exact nonzero; the proximal solvers produce exact zeros so
    no threshold is involved.
    """
    if test.n == 0:
        raise DomainError("empty test set")
    if test.kind == BINARY and not isinstance(model, BinaryModel):
        raise ShapeError("binary test data requires a BinaryModel")
    if test.kind == MULTICLASS and not isinstance(model, MultiModel):
        raise ShapeError("multi-class test data requires a MultiModel")
    pred = predict(model, test)
    accuracy = float(np.mean(pred == test.labels))
    if true_support is None:
        true_support = test.true_support
    if isinstance(model, BinaryModel):
        support = np.flatnonzero(model.w)
        nnz = support.size
        n_t = n_f = None
        if true_support is not None:
            truth = set(true_support.tolist())
            n_t = len(truth & set(support.tolist()))
            n_f = support.size - n_t
        return Metrics(accuracy=accuracy, nnz=int(nnz), n_t=n_t, n_f=n_f)
    nnz = int(np.count_nonzero(model.W))
    row_support = np.flatnonzero(np.any(model.W != 0.0, axis=1))
    n_t = n_f = iz = None
    if true_support is not None:
        truth = set(true_support.tolist())
        got = set(row_support.tolist())
        n_t = len(truth & got)
        n_f = len(got - truth)
        iz = len(truth - got)
    return Metrics(accuracy=accuracy, nnz=nnz, n_t=n_t, n_f=n_f,
                   nnz_rows=int(row_support.size), incorrect_zeros=iz)

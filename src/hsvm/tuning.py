"""k-fold cross-validation and grid search over (lambda1, lambda2).

lambda3 is held fixed during the search; the synthetic binary benchmarks
tie it to lambda2, everything else pins it at 1 (both exposed through
``Grid.lambda3``). A fit or evaluation error on any fold ends the search:
it propagates to the caller, and no best point is named.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Optional

import numpy as np

from .data import Dataset
from .errors import DomainError, ShapeError
from .losses import Hyperparams
from .model import evaluate
from .solver import SolverOptions, fit_binary, fit_binary_two_stage, fit_multi

SOLVERS = {
    "bpgh": fit_binary,
    "bpgh2": fit_binary_two_stage,
    "mpgh": fit_multi,
}

LAMBDA3_TIED = "lambda2"


@dataclass
class Grid:
    """Search grid; ``lambda3`` is a number or the string "lambda2" to tie
    it to the lambda2 value under test. A value no grid point could use
    raises ``DomainError`` here, not at search time."""

    lambda1_values: np.ndarray
    lambda2_values: np.ndarray
    lambda3: object = 1.0
    delta: float = 1.0
    folds: int = 10

    def __post_init__(self):
        self.lambda1_values = np.asarray(self.lambda1_values, dtype=float)
        self.lambda2_values = np.asarray(self.lambda2_values, dtype=float)
        if self.lambda1_values.size == 0 or self.lambda2_values.size == 0:
            raise DomainError("grid value arrays must be nonempty")
        try:
            self.delta = float(self.delta)
            if self.lambda3 != LAMBDA3_TIED:
                self.lambda3 = float(self.lambda3)
        except (TypeError, ValueError):
            raise DomainError("delta must be a number, lambda3 a number or "
                              f"{LAMBDA3_TIED!r}") from None
        # Hyperparams checks every value: a negative one is the minimum,
        # and a NaN or an infinity reaches the minimum or the maximum.
        for pick in (np.min, np.max):
            self.hyperparams(pick(self.lambda1_values),
                             pick(self.lambda2_values))
        if self.folds < 2:
            raise DomainError("need at least 2 folds")

    def points(self):
        return [(float(l1), float(l2))
                for l1 in self.lambda1_values for l2 in self.lambda2_values]

    def hyperparams(self, l1, l2) -> Hyperparams:
        l3 = l2 if self.lambda3 == LAMBDA3_TIED else self.lambda3
        return Hyperparams(lambda1=l1, lambda2=l2, lambda3=l3,
                           delta=self.delta)


def kfold_split(n, k, labels=None, seed=0):
    """k disjoint index folds, stratified by label where labels are given.
    Fold sizes differ by at most one; deterministic for a given seed."""
    if k < 2:
        raise DomainError("need k >= 2")
    if k > n:
        raise DomainError("cannot make more folds than samples")
    rng = np.random.default_rng(seed)
    if labels is None:
        groups = [np.arange(n)]
    else:
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ShapeError("need one label per sample")
        groups = [np.flatnonzero(labels == v) for v in np.unique(labels)]
    # Deal the label groups' shuffled indices, in turn, round the folds.
    order = np.concatenate([idx[rng.permutation(idx.size)] for idx in groups])
    fold_of = np.arange(order.size) % k
    return [np.sort(order[fold_of == f]).astype(np.int64) for f in range(k)]


@dataclass(frozen=True)
class CVRecord:
    lambda1: float
    lambda2: float
    fold: int
    accuracy: float


@dataclass
class GridSearchResult:
    best_lambda1: float
    best_lambda2: float
    table: list = field(default_factory=list)     # one CVRecord per (point, fold)
    mean_scores: dict = field(default_factory=dict)

    def to_csv(self, stream: IO[str]) -> None:
        stream.write("lambda1,lambda2,fold,accuracy\n")
        for rec in self.table:
            stream.write(f"{rec.lambda1:.17g},{rec.lambda2:.17g},"
                         f"{rec.fold},{rec.accuracy:.17g}\n")
        stream.write(f"best,{self.best_lambda1:.17g},"
                     f"{self.best_lambda2:.17g},"
                     f"{self.mean_scores[(self.best_lambda1, self.best_lambda2)]:.17g}\n")


def grid_search(data: Dataset, grid: Grid, solver="bpgh",
                opts: Optional[SolverOptions] = None, seed=0) -> GridSearchResult:
    """Mean validation accuracy over the folds for every grid point.

    Folds run outermost, so one fold's training and validation copies live
    at a time; the table keeps (point, fold) order. Ties are broken toward
    the sparser model: larger lambda1, then larger lambda2. A label kind
    ``solver`` cannot fit raises the objective's ``LabelError``.
    """
    if solver not in SOLVERS:
        raise DomainError(f"unknown solver {solver!r}")
    fit = SOLVERS[solver]
    folds = kfold_split(data.n, grid.folds, labels=data.labels, seed=seed)
    points = grid.points()

    def accuracies(val_idx):  # the fold's copies go when it returns
        train = data.subset(np.setdiff1d(np.arange(data.n), val_idx))
        val = data.subset(val_idx)
        return [evaluate(fit(train, grid.hyperparams(*pt), opts).model,
                         val).accuracy for pt in points]

    acc = np.column_stack([accuracies(val_idx) for val_idx in folds])
    table = [CVRecord(l1, l2, f, float(a))
             for (l1, l2), row in zip(points, acc) for f, a in enumerate(row)]
    mean_scores = {pt: float(row.mean()) for pt, row in zip(points, acc)}
    best = max(points, key=lambda pt: (mean_scores[pt], pt[0], pt[1]))
    return GridSearchResult(best_lambda1=best[0], best_lambda2=best[1],
                            table=table, mean_scores=mean_scores)

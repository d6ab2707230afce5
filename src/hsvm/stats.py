"""Nonparametric comparison of classifiers across datasets: Wilcoxon
signed-ranks z, the Friedman statistic, rank-based control comparisons and
Holm's step-down correction (Demsar 2006).

The normal tails use ``math.erfc`` and the chi-square tail SciPy's
``chdtrc``; both match a high-precision oracle to 1e-10. Ties get midranks
from ``np.unique``. ``scipy.stats`` is not used: importing it would add
about 1 s to ``import hsvm``, which takes about 0.02 s after NumPy without
it (and without ``scipy.sparse``, which loads on the first sparse input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

RAW_SCORES = "raw_scores"
RANKS = "ranks"


def normal_cdf(z: float) -> float:
    """Standard normal lower tail."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def normal_sf(z: float) -> float:
    """Standard normal upper tail."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi2_sf(x: float, df: float) -> float:
    """Chi-square upper tail with ``df`` degrees of freedom."""
    if df <= 0:
        raise DomainError("degrees of freedom must be positive")
    if x <= 0:
        return 1.0
    # Imported on first use: scipy.special adds 0.14 s to ``import hsvm``.
    from scipy.special import chdtrc
    return float(chdtrc(df, x))


def average_ranks(values, descending=False) -> np.ndarray:
    """Ranks 1..n with ties replaced by their average (midranks)."""
    x = np.asarray(values, dtype=float)
    key = -x if descending else x
    _, inverse, counts = np.unique(key, return_inverse=True,
                                   return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


@dataclass(frozen=True)
class RankTable:
    """N datasets by K methods, holding either raw scores (higher is
    better) or precomputed ranks (1 is best, ties as average ranks)."""

    values: np.ndarray
    kind: str = RAW_SCORES
    labels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=float))
        if self.values.ndim != 2:
            raise ShapeError("rank table must be 2-dimensional")
        if not np.isfinite(self.values).all():
            raise DomainError("scores must be finite")
        if self.kind not in (RAW_SCORES, RANKS):
            raise DomainError(f"unknown table kind {self.kind!r}")
        if self.kind == RANKS:
            k = self.values.shape[1]
            want = k * (k + 1) / 2.0
            if not np.allclose(self.values.sum(axis=1), want, atol=1e-8):
                raise DomainError(
                    "each rank row must sum to K(K+1)/2")

    @property
    def n_methods(self):
        return self.values.shape[1]

    def ranks(self) -> np.ndarray:
        if self.kind == RANKS:
            return self.values
        return np.vstack([average_ranks(row, descending=True)
                          for row in self.values])


def wilcoxon_z(scores_a, scores_b):
    """Wilcoxon signed-ranks comparison of two methods across N datasets.

    Differences are ranked by absolute value with average ranks for ties;
    zero differences stay in the ranking and contribute half their rank to
    each side. Returns (T, z, p) with T = min(R+, R-), the normal
    approximation z, and the two-sided p-value.
    """
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise ShapeError("need two equal-length score vectors")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DomainError("scores must be finite")
    n = a.size
    d = a - b
    ranks = average_ranks(np.abs(d))
    r_plus = ranks[d > 0].sum() + 0.5 * ranks[d == 0].sum()
    r_minus = ranks[d < 0].sum() + 0.5 * ranks[d == 0].sum()
    t = min(r_plus, r_minus)
    mean = n * (n + 1) / 4.0
    sd = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
    z = (t - mean) / sd
    # T <= n(n+1)/4 because R+ + R- = n(n+1)/2, so z <= 0.
    p = 2.0 * normal_cdf(z)
    return float(t), float(z), float(min(p, 1.0))


def friedman(table: RankTable):
    """Friedman chi-square over K methods on N datasets and its p-value
    (chi-square upper tail with K-1 degrees of freedom)."""
    k = table.n_methods
    if k < 2:
        raise DomainError("need at least two methods")
    ranks = table.ranks()
    n = ranks.shape[0]
    avg = ranks.mean(axis=0)
    chi2 = 12.0 * n / (k * (k + 1)) * ((avg ** 2).sum() - k * (k + 1) ** 2 / 4.0)
    return float(chi2), float(chi2_sf(chi2, k - 1))


def compare_to_control(table: RankTable, control: int = 0):
    """Rank-difference z and two-sided p for every method against the
    control: z_j = (AR_control - AR_j) / sqrt(K(K+1)/(6N))."""
    ranks = table.ranks()
    n, k = ranks.shape
    if not 0 <= control < k:
        raise DomainError("control index out of range")
    avg = ranks.mean(axis=0)
    se = math.sqrt(k * (k + 1) / (6.0 * n))
    z = (avg[control] - avg) / se
    p = np.asarray([min(1.0, 2.0 * (normal_cdf(v) if v <= 0 else normal_sf(v)))
                    for v in z])
    return z, p


def holm(p_values, alpha: float):
    """Holm step-down decisions for the K-1 comparisons against a control.

    Sorts ascending and rejects while p_(i) < alpha / (m - i) (m = number
    of comparisons, i counted from 0); the first failure stops the
    procedure. Returns a boolean reject flag per input position.
    """
    if not 0 < alpha < 1:  # also false for NaN
        raise DomainError("alpha must lie in (0, 1)")
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ShapeError("need a nonempty p-value vector")
    if not np.all((p >= 0) & (p <= 1)):  # also false for NaN
        raise DomainError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    reject = np.zeros(m, dtype=bool)
    for i, idx in enumerate(order):
        if p[idx] < alpha / (m - i):
            reject[idx] = True
        else:
            break
    return reject

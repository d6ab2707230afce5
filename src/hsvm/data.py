"""Datasets: sparse/dense sample collections, LIBSVM text I/O, synthetic
generators, feature standardization and gene relevance ranking.

External index convention follows LIBSVM: feature indices are 1-based in
files and 0-based in memory.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import DomainError, LabelError, ParseError, ShapeError

BINARY = "binary"
MULTICLASS = "multiclass"
UNLABELED = "unlabeled"


def issparse(X) -> bool:
    """Whether ``X`` is a SciPy sparse array or matrix. No object can be
    one before ``scipy.sparse`` is imported, so asking never imports it:
    dense sessions leave it unloaded."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(X)


class Dataset:
    """Immutable collection of n samples with integer labels.

    The feature matrix is either a ``scipy.sparse.csr_array`` or a dense
    ``numpy.ndarray``; all numeric routines accept both. A sparse X is
    kept canonical (repeated entries summed, each row's indices ascending),
    canonicalized on a copy so the caller's matrix is unchanged. Binary
    labels are +1/-1, multi-class labels are 1..J. ``true_support`` records
    the generative support of synthetic data (0-based feature indices).
    """

    def __init__(self, X, labels, kind=None, n_classes=None,
                 true_support=None):
        if issparse(X):
            from scipy.sparse import csr_array
            X = csr_array(X)
            if not X.has_canonical_format:  # csr_array shares a CSR's arrays
                X = X.copy()
                X.sum_duplicates()
        else:
            X = np.asarray(X, dtype=float)
            if X.ndim != 2:
                raise ShapeError("feature matrix must be 2-dimensional")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size != X.shape[0]:
            raise ShapeError(
                f"expected {X.shape[0]} labels, got shape {labels.shape}")
        if kind is None:
            kind = self._infer_kind(labels)
        self._validate_labels(kind, labels)
        if kind == MULTICLASS:
            j = int(labels.max()) if labels.size else 2
            n_classes = max(n_classes or 0, j, 2)
        elif kind == BINARY:
            n_classes = 2
        else:
            n_classes = 0
        if true_support is not None:
            true_support = np.asarray(sorted(set(int(i) for i in true_support)),
                                      dtype=np.int64)
            if true_support.size and (true_support[0] < 0
                                      or true_support[-1] >= X.shape[1]):
                raise DomainError("true_support indices out of range")
        self._X = X
        self._labels = labels
        self._labels.setflags(write=False)
        self._kind = kind
        self._n_classes = int(n_classes)
        self._true_support = true_support
        self._row_sqnorms = None
        self._col_sqnorms = None
        self._at_zero = None  # (delta, X'c at w = 0)

    @staticmethod
    def _infer_kind(labels):
        vals = set(np.unique(labels).tolist())
        if labels.size and vals <= {0}:
            return UNLABELED
        if vals <= {-1, 1}:
            return BINARY
        return MULTICLASS

    @staticmethod
    def _validate_labels(kind, labels):
        if kind == BINARY:
            if not set(np.unique(labels).tolist()) <= {-1, 1}:
                raise LabelError("binary labels must be +1 or -1")
        elif kind == MULTICLASS:
            if labels.size and labels.min() < 1:
                raise LabelError("multi-class labels must be in 1..J")
        elif kind != UNLABELED:
            raise LabelError(f"unknown label kind {kind!r}")

    @property
    def X(self):
        return self._X

    @property
    def labels(self):
        return self._labels

    @property
    def n(self):
        return self._labels.size

    @property
    def n_features(self):
        return self._X.shape[1]

    @property
    def kind(self):
        return self._kind

    @property
    def n_classes(self):
        return self._n_classes

    @property
    def true_support(self):
        return self._true_support

    def row_sqnorms(self):
        """Squared euclidean norm of each sample row, formed on first ask.
        A dense X takes one streaming ``np.einsum``: no temporary the size
        of X, as fast on F- as on C-order data. A sparse X squares one copy
        and drops the zero squares: the bits of ``X.multiply(X)``, which
        makes two copies. A sum of k = p squares is within
        gamma_k = k eps / (1 - k eps) relative, in any order."""
        if self._row_sqnorms is None and issparse(self._X):
            with np.errstate(over="ignore"):  # an overflow gives inf
                sq = self._X.power(2)
            sq.eliminate_zeros()
            self._row_sqnorms = np.asarray(sq.sum(axis=1)).ravel()
        elif self._row_sqnorms is None:
            self._row_sqnorms = np.einsum("ij,ij->i", self._X, self._X)
        return self._row_sqnorms

    def col_sqnorms(self):
        """Squared euclidean norm of each feature column, formed on first
        ask (only a binary fit's working block asks): for a dense X as the
        rows are. A sparse X adds its squares by column index in storage
        order, as SciPy's column sum does. A sum of n squares is within
        gamma_n."""
        if self._col_sqnorms is None and issparse(self._X):
            self._col_sqnorms = np.zeros(self.n_features)
            with np.errstate(over="ignore"):
                np.add.at(self._col_sqnorms, self._X.indices,
                          np.square(self._X.data))
        elif self._col_sqnorms is None:
            self._col_sqnorms = np.einsum("ij,ij->j", self._X, self._X)
        return self._col_sqnorms

    def transpose_at_zero(self, delta, coef):
        """X'coef at the loss coefficients of w = 0 for ``delta``: the
        screen of both binary fits, formed on first ask and kept in one slot
        keyed by delta; a copy has its own."""
        if self._at_zero is None or self._at_zero[0] != delta:
            self._at_zero = (delta, np.asarray(self.X.T @ coef).ravel())
        return self._at_zero[1]

    def subset(self, indices) -> "Dataset":
        """New dataset containing the given sample rows."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self._X[idx], self._labels[idx], kind=self._kind,
                       n_classes=self._n_classes,
                       true_support=self._true_support)

    def restrict_features(self, columns) -> "Dataset":
        """New dataset keeping only the given feature columns (in order):
        the only code that takes a column subset of X."""
        cols = np.asarray(columns, dtype=np.int64)
        return Dataset(self.X[:, cols], self._labels, kind=self._kind,
                       n_classes=self._n_classes)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic Gaussian generators."""

    kind: str                  # "binary_gaussian" or "four_class"
    n: int
    p: int
    s: int
    rho: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("binary_gaussian", "four_class"):
            raise DomainError(f"unknown generator kind {self.kind!r}")
        if min(self.n, self.p, self.s) < 1:
            raise DomainError("n, p, s must be positive")
        if not 0.0 <= self.rho < 1.0:
            raise DomainError("rho must lie in [0, 1)")


def _equicorr_block(s: int, rho: float) -> np.ndarray:
    return rho * np.ones((s, s)) + (1.0 - rho) * np.eye(s)


def _sample_block_gaussian(rng, n, p, block_start, block_chol):
    """Draw n i.i.d. N(0, Sigma) rows where Sigma is identity except for a
    correlated block starting at ``block_start`` with Cholesky factor
    ``block_chol``. Only the block is transformed; the tail stays i.i.d."""
    z = rng.standard_normal((n, p))
    s = block_chol.shape[0]
    z[:, block_start:block_start + s] = \
        z[:, block_start:block_start + s] @ block_chol.T
    return z


def gen_binary_gaussian(spec: SynthSpec) -> Dataset:
    """Two Gaussian classes at +/-mu with an equicorrelated leading block.

    mu has ``s`` leading ones; Sigma is block-diagonal with
    rho*11' + (1-rho)*I on the first s coordinates and identity elsewhere.
    The first n/2 rows are the +1 class. Deterministic for a given seed
    (numpy PCG64 stream).
    """
    if spec.kind != "binary_gaussian":
        raise DomainError("spec.kind must be 'binary_gaussian'")
    if spec.s > spec.p:
        raise DomainError("need s <= p")
    if spec.n % 2:
        raise DomainError("n must be even (half the samples per class)")
    rng = np.random.default_rng(spec.seed)
    chol = np.linalg.cholesky(_equicorr_block(spec.s, spec.rho))
    X = _sample_block_gaussian(rng, spec.n, spec.p, 0, chol)
    half = spec.n // 2
    X[:half, :spec.s] += 1.0
    X[half:, :spec.s] -= 1.0
    labels = np.concatenate([np.ones(half, dtype=np.int64),
                             -np.ones(spec.n - half, dtype=np.int64)])
    return Dataset(X, labels, kind=BINARY,
                   true_support=np.arange(spec.s))


def gen_fourclass(spec: SynthSpec) -> Dataset:
    """Four Gaussian classes with overlapping mean supports.

    Classes 1/2 sit at +/-mu1 (s leading ones, equicorrelated leading block);
    classes 3/4 sit at +/-mu3 (s ones offset by s/2, with the correlated
    block shifted accordingly). Equal samples per class.
    """
    if spec.kind != "four_class":
        raise DomainError("spec.kind must be 'four_class'")
    if spec.s % 2:
        raise DomainError("s must be even (mu3 is offset by s/2)")
    if 3 * spec.s // 2 > spec.p:
        raise DomainError("need 3*s/2 <= p")
    if spec.n % 4:
        raise DomainError("n must be divisible by 4 (balanced classes)")
    rng = np.random.default_rng(spec.seed)
    chol = np.linalg.cholesky(_equicorr_block(spec.s, spec.rho))
    per = spec.n // 4
    half_s = spec.s // 2

    mu1 = np.zeros(spec.p)
    mu1[:spec.s] = 1.0
    mu3 = np.zeros(spec.p)
    mu3[half_s:half_s + spec.s] = 1.0

    blocks = []
    labels = []
    for j, (mu, start) in enumerate(
            [(mu1, 0), (-mu1, 0), (mu3, half_s), (-mu3, half_s)], start=1):
        Xj = _sample_block_gaussian(rng, per, spec.p, start, chol)
        Xj += mu
        blocks.append(Xj)
        labels.append(np.full(per, j, dtype=np.int64))
    X = np.vstack(blocks)
    return Dataset(X, np.concatenate(labels), kind=MULTICLASS, n_classes=4,
                   true_support=np.arange(3 * spec.s // 2))


def generate(spec: SynthSpec) -> Dataset:
    if spec.kind == "binary_gaussian":
        return gen_binary_gaussian(spec)
    return gen_fourclass(spec)


# The ASCII whitespace that str.split() splits at. The bulk conversion turns
# each into a line break, so loadtxt reads one idx:val pair per line.
_BLANKS = str.maketrans(dict.fromkeys("\t\x0b\x0c\r\x1c\x1d\x1e\x1f ", "\n"))
_PAIR = np.dtype([("i", np.int64), ("v", np.float64)])
_INT64_END = 2 ** 63
# Labels are read as floats, exact only for integers of magnitude < 2^53.
_LABEL_END = 2 ** 53


def parse_libsvm(source: Iterable[str] | IO[str], n_features=None) -> Dataset:
    """Parse LIBSVM text: ``label idx:val idx:val ...`` per line.

    Indices must be 1-based and strictly ascending within a line. Labels
    must be integral and below 2^53 in magnitude, and values finite; a
    file whose labels are all 0 is treated as unlabeled test data.
    ``n_features`` overrides the inferred width (max index); a larger index
    raises ``ShapeError``.

    Each line is split once; one ``np.array`` call converts the labels and
    one ``np.loadtxt`` call every pair, and the rules are checked on the
    arrays. Text failing any step goes to ``_raise_first_error``.
    """
    lines = source.splitlines() if isinstance(source, str) else list(source)
    rows = [parts for parts in (raw.split(None, 1) for raw in lines) if parts]
    heads = [parts[0] for parts in rows]
    bodies = [parts[1] if len(parts) == 2 else "" for parts in rows]
    text = "\n".join(filter(None, bodies)).translate(_BLANKS)
    indptr = np.cumsum([0] + [body.count(":") for body in bodies], dtype=np.int64)
    ok = all(map(str.isascii, lines)) and "_" not in "".join(heads)
    try:
        labels = np.array(heads, dtype=float)
        pairs = np.loadtxt(io.BytesIO(text.encode("ascii")), dtype=_PAIR,
                           delimiter=":", comments=None, ndmin=1) \
            if ok and text else np.empty(0, dtype=_PAIR)
    except ValueError:
        ok = False
    if ok:
        idx, values = pairs["i"], pairs["v"].copy()
        prev = np.concatenate(([0], idx[:-1]))
        starts = indptr[:-1]  # an empty row starts where the next one does
        prev[starts[starts < idx.size]] = 0
        ok = (np.all(idx > prev) and np.all(np.isfinite(values))
              and np.all((np.abs(labels) < _LABEL_END)
                         & (np.trunc(labels) == labels)))
    if not ok:
        _raise_first_error(lines)
    max_index = int(idx.max()) if idx.size else 0
    p = max_index if n_features is None else int(n_features)
    if p < max_index:
        raise ShapeError(f"largest feature index {max_index} exceeds {p}")
    from scipy.sparse import csr_array
    X = csr_array((values, idx - 1, indptr), shape=(len(rows), p))
    return Dataset(X, labels.astype(np.int64))


def _raise_first_error(lines) -> None:
    """Raise the ``ParseError`` of the first bad line of ``lines``: the one
    home of the parser's messages."""
    for line_no, raw in enumerate(lines, start=1):
        if not raw.isascii():
            raise ParseError("non-ASCII character", line_no)
        if "_" in raw:
            raise ParseError("'_' is not allowed", line_no)
        tokens = raw.split()
        if not tokens:
            continue
        try:
            lab = float(tokens[0])
        except ValueError:
            raise ParseError(f"bad label token {tokens[0]!r}", line_no) from None
        if not math.isfinite(lab):
            raise ParseError(f"label {tokens[0]!r} is not finite", line_no)
        if lab != int(lab):
            raise ParseError(f"label {tokens[0]!r} is not an integer", line_no)
        if abs(lab) >= _LABEL_END:
            raise ParseError(f"label {tokens[0]!r} is out of range", line_no)
        prev = 0
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise ParseError(f"malformed feature token {tok!r}", line_no)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"malformed feature token {tok!r}",
                                 line_no) from None
            if not math.isfinite(val):
                raise ParseError(f"feature value {val_s!r} is not finite",
                                 line_no)
            if idx < 1:
                raise ParseError(f"feature index {idx} < 1", line_no)
            if idx <= prev:
                raise ParseError(
                    f"feature index {idx} not ascending", line_no)
            if idx >= _INT64_END:
                raise ParseError(f"feature index {idx} is out of range",
                                 line_no)
            prev = idx
    raise AssertionError("the bulk LIBSVM parse rejected text that the "
                         "line checker accepts")


def load_libsvm(path, n_features=None) -> Dataset:
    """``parse_libsvm`` of an ASCII file; other bytes raise ``ParseError``."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            return parse_libsvm(fh, n_features=n_features)
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not an ASCII text file") from None


def write_libsvm(data: Dataset, stream: IO[str]) -> None:
    """Emit LIBSVM text; values use 17 significant digits so that a
    parse/write round trip is lossless. A dense X is written row by row,
    with no sparse copy; a sparse X from its canonical CSR arrays (see
    ``Dataset``), each row's indices ascending as ``parse_libsvm`` requires."""
    X = data.X
    sparse = issparse(X)
    for i in range(data.n):
        lab = int(data.labels[i])
        if data.kind == BINARY:
            head = "+1" if lab > 0 else "-1"
        else:
            head = str(lab)
        if sparse:
            lo, hi = X.indptr[i], X.indptr[i + 1]
            cols, vals = X.indices[lo:hi], X.data[lo:hi]
        else:
            cols = np.flatnonzero(X[i])
            vals = X[i, cols]
        feats = " ".join(f"{c + 1}:{v:.17g}" for c, v in zip(cols, vals)
                         if v != 0.0)
        stream.write(head + (" " + feats if feats else "") + "\n")


def save_libsvm(data: Dataset, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        write_libsvm(data, fh)


def write_sidecar(spec: SynthSpec, data: Dataset, path) -> None:
    """Record the generator spec and true support (1-based) next to the
    generated files."""
    payload = {
        "kind": spec.kind, "n": spec.n, "p": spec.p, "s": spec.s,
        "rho": spec.rho, "seed": spec.seed,
        "true_support": [int(i) + 1 for i in (data.true_support
                                              if data.true_support is not None
                                              else [])],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def finite_features(data: Dataset, dense=False):
    """``data.X``, as a dense float array if ``dense`` is set, once it
    passes the one finiteness rule on features: the sum of the squared row
    norms (``Dataset.row_sqnorms``) must be finite. A NaN, an inf or an
    entry whose square overflows (1e200) makes it NaN or inf without a
    warning, and raises ``DomainError`` naming the feature matrix."""
    if not np.isfinite(data.row_sqnorms().sum()):
        raise DomainError("feature matrix has a non-finite or overflowing "
                          "entry: the sum of squared row norms is not finite")
    X = data.X
    if dense:
        return np.asarray(X.todense() if issparse(X) else X, dtype=float)
    return X


@dataclass(frozen=True)
class FeatureStats:
    """Training-set per-feature statistics used by ``standardize``."""

    mean: np.ndarray
    std: np.ndarray             # sample (n-1 denominator) standard deviation
    constant: np.ndarray        # flags features with zero training variance


def standardize(train: Dataset, test: Dataset | None = None):
    """Center and scale every feature by training mean/std.

    The same training-derived transform is applied to ``test``. Features
    that are constant on the training set are set to zero and flagged.
    Returns dense datasets. Both sets must pass ``finite_features``.
    """
    if train.n == 0:
        raise DomainError("cannot standardize an empty training set")
    if test is not None and test.n_features != train.n_features:
        raise ShapeError(f"test set has {test.n_features} features, "
                         f"training set has {train.n_features}")
    Xt = finite_features(train, dense=True)
    Xs = None if test is None else finite_features(test, dense=True)
    mean = Xt.mean(axis=0)
    std = Xt.std(axis=0, ddof=1) if train.n > 1 else np.zeros(train.n_features)
    constant = std == 0.0
    scale = np.where(constant, 1.0, std)

    def transform(ds: Dataset, X) -> Dataset:
        Z = (X - mean) / scale
        Z[:, constant] = 0.0
        return Dataset(Z, ds.labels, kind=ds.kind, n_classes=ds.n_classes,
                       true_support=ds.true_support)

    stats = FeatureStats(mean=mean, std=std, constant=constant)
    return (transform(train, Xt),
            None if test is None else transform(test, Xs), stats)


def gene_rank(data: Dataset, eps: float = 0.0) -> np.ndarray:
    """Between-class to within-class variance ratio per feature.

    R(g) = sum_j n_j (m_g^j - m_g)^2 / sum_{i,j} 1[y_i = j] (x_gi - m_g^j)^2.
    A zero denominator with a positive numerator yields +inf (a perfectly
    discriminative feature, ranked first). A 0/0 feature raises unless an
    eps guard is supplied, and so does a set failing ``finite_features``.
    """
    if data.kind != MULTICLASS:
        raise LabelError("gene ranking requires multi-class labels")
    X = finite_features(data, dense=True)
    y = data.labels
    overall = X.mean(axis=0)
    num = np.zeros(data.n_features)
    den = np.zeros(data.n_features)
    for j in np.unique(y):
        Xj = X[y == j]
        mj = Xj.mean(axis=0)
        num += Xj.shape[0] * (mj - overall) ** 2
        den += ((Xj - mj) ** 2).sum(axis=0)
    if eps > 0.0:
        return num / (den + eps)
    scores = np.full(data.n_features, np.inf)
    ok = den > 0.0
    scores[ok] = num[ok] / den[ok]
    bad = ~ok & (num == 0.0)
    if np.any(bad):
        raise DomainError(
            "zero between- and within-class variance; use the eps guard")
    return scores


def select_top_features(scores: Sequence[float], k: int) -> np.ndarray:
    """Indices of the k largest scores, ties broken by smaller index."""
    scores = np.asarray(scores, dtype=float)
    if not 0 < k <= scores.size:
        raise DomainError("k must be in 1..p")
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:k])

"""Slow, independent reference implementations used by the test suite.

Nothing here shares code with the routines it validates: the gradient
checker only evaluates the objective callable it is given, the dual prox
scan re-implements soft thresholding inline, and the subgradient oracle
evaluates the multi-class objective from its definition. The one exception
is the kernel-only weight step: it runs the sorting kernel of the zero-sum
prox, itself checked against the dual scan, on every row, as the reference
for the row shortcuts of ``hsvm.prox.multi_w_step``. The M-HSVM dual
objective is evaluated from its definition, with every row conjugate taken
at the dual scan's exact maximiser; it is the reference for the duality gap
that certifies an M-PGH fit. The LIBSVM reader is the per-token loop that
``hsvm.data.parse_libsvm`` replaced, kept as the reference its bulk
conversion must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from hsvm.data import Dataset
from hsvm.errors import DomainError, HsvmError, ParseError, ShapeError
from hsvm.prox import _zero_sum_prox_rows


def finite_diff_grad(fun, point, h=1e-5) -> np.ndarray:
    """Central finite differences of ``fun`` around ``point``."""
    if h <= 0:
        raise DomainError("h must be positive")
    point = np.asarray(point, dtype=float)
    grad = np.empty_like(point)
    for i in range(point.size):
        up = point.copy()
        dn = point.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (fun(up) - fun(dn)) / (2.0 * h)
    return grad


def _soft(t, lam):
    return np.sign(t) * np.maximum(np.abs(t) - lam, 0.0)


def bruteforce_eq_prox(z, lam):
    """Zero-sum l1 prox by exhaustive interval scan.

    Tries every one of the 2J-1 breakpoint intervals, solves the affine
    dual equation in each, keeps the candidates whose KKT residuals vanish,
    and returns the one with the smallest primal objective. Returns
    (w, sigma).
    """
    z = np.asarray(z, dtype=float)
    J = z.size
    if J < 2:
        raise DomainError("need dimension >= 2")
    if J > 12:
        raise DomainError("brute-force scan is limited to J <= 12")
    if lam <= 0:
        raise DomainError("lam must be positive")
    v = np.sort(np.concatenate([z - lam, z + lam]))
    best = None
    for m in range(2 * J - 1):
        lo, hi = v[m], v[m + 1]
        mid = 0.5 * (lo + hi)
        hi_mask = z - lam > mid
        lo_mask = z + lam < mid
        count = int(hi_mask.sum() + lo_mask.sum())
        if count > 0:
            sigma = ((z[hi_mask] - lam).sum() + (z[lo_mask] + lam).sum()) / count
        else:
            sigma = mid
        tol = 1e-9 * max(1.0, np.abs(z).max() + lam)
        if not (lo - tol <= sigma <= hi + tol):
            continue
        w = _soft(z - sigma, lam)
        if abs(w.sum()) > 1e-10:
            continue
        nz = w != 0
        stat = w[nz] - z[nz] + sigma + lam * np.sign(w[nz])
        if nz.any() and np.abs(stat).max() > 1e-10:
            continue
        if np.any(~nz & (np.abs(z - sigma) > lam + 1e-10)):
            continue
        obj = 0.5 * float((w - z) @ (w - z)) + lam * float(np.abs(w).sum())
        if best is None or obj < best[0]:
            best = (obj, w, sigma)
    if best is None:
        raise HsvmError("no breakpoint interval passed the KKT check")
    return best[1], float(best[2])


def kernel_only_w_step(W_hat, grad_W, L_k, lambda1, lambda2):
    """The M-PGH weight step of ``hsvm.prox.multi_w_step`` for lambda1 > 0
    with every row, flat or not, solved by the sorting kernel."""
    Z = (L_k * np.asarray(W_hat) - grad_W) / (L_k + lambda2)
    return _zero_sum_prox_rows(Z, lambda1 / (L_k + lambda2))[0]


def grid_minimize(fun, box, step):
    """Grid scan with local refinement for 1- or 2-dimensional problems.

    Scans progressively finer grids (down to step/100) centered on the
    incumbent. Returns (argmin, value, boundary_hit); ``boundary_hit``
    flags an incumbent pinned to the original box, meaning the box was too
    small.
    """
    box = [tuple(map(float, b)) for b in box]
    if not 1 <= len(box) <= 2:
        raise DomainError("grid_minimize handles dimensions 1 and 2 only")
    if step <= 0:
        raise DomainError("step must be positive")
    spans = [hi - lo for lo, hi in box]
    if min(spans) <= 0:
        raise DomainError("box sides must have positive length")
    res = max(max(spans) / 200.0, step)
    centers = [0.5 * (lo + hi) for lo, hi in box]
    half = [0.5 * s for s in spans]

    best_x, best_v = None, np.inf
    while True:
        axes = []
        for (lo, hi), c, h in zip(box, centers, half):
            a = np.arange(max(lo, c - h), min(hi, c + h) + res / 2, res)
            axes.append(a)
        if len(axes) == 1:
            pts = axes[0][:, None]
        else:
            g = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([a.ravel() for a in g], axis=1)
        for x in pts:
            v = fun(x if len(box) > 1 else x[0])
            if v < best_v:
                best_v, best_x = v, x.copy()
        if res <= step / 100.0:
            break
        centers = list(best_x)
        half = [2.0 * res] * len(box)
        res /= 10.0
    boundary = any(abs(best_x[i] - box[i][0]) < res or
                   abs(best_x[i] - box[i][1]) < res for i in range(len(box)))
    x_out = best_x if len(box) > 1 else float(best_x[0])
    return x_out, float(best_v), bool(boundary)


def _phi(t, delta):
    out = np.zeros_like(t)
    quad = (t > 1.0 - delta) & (t <= 1.0)
    lin = t <= 1.0 - delta
    out[quad] = (1.0 - t[quad]) ** 2 / (2.0 * delta)
    out[lin] = 1.0 - t[lin] - 0.5 * delta
    return out


def _dphi(t, delta):
    out = np.zeros_like(t)
    quad = (t > 1.0 - delta) & (t <= 1.0)
    lin = t <= 1.0 - delta
    out[quad] = (t[quad] - 1.0) / delta
    out[lin] = -1.0
    return out


def multi_objective_direct(b, W, data, hp) -> float:
    """Multi-class objective computed from its definition (no caching)."""
    X = data.X
    n, J = data.n, b.size
    scores = np.asarray(X @ W) + b
    loss = _phi(-scores, hp.delta)
    loss[np.arange(n), data.labels - 1] = 0.0
    return (loss.sum() / n
            + hp.lambda1 * np.abs(W).sum()
            + 0.5 * hp.lambda2 * (W * W).sum()
            + 0.5 * hp.lambda3 * (b @ b))


def multi_dual_direct(b, W, data, hp) -> float:
    """The M-HSVM dual objective at the dual point of the model (b, W),
    from its definition. The point holds the loss coefficients
    c_ij = -phi'(-s_ij) of the class scores s on the wrong classes; every
    row conjugate max_{e'w = 0} v'w - lambda1 ||w||_1 - (lambda2/2) ||w||^2
    is evaluated at its maximiser, the zero-sum prox of v / lambda2 found by
    the interval scan, and the intercept conjugate at its closed-form
    maximiser. Needs lambda2, lambda3 > 0 and J <= 12.

    By weak duality the value is at most the objective at every feasible
    model, and it equals the optimum at the optimal model.
    """
    X = np.asarray(data.X.todense() if hasattr(data.X, "todense") else data.X,
                   dtype=float)
    n = data.n
    c = -_dphi(-(X @ W + b), hp.delta)
    c[np.arange(n), data.labels - 1] = 0.0
    loss = float((c - 0.5 * hp.delta * c * c).sum()) / n
    V = -(X.T @ c) / n
    rows = 0.0
    for v in V:
        z = v / hp.lambda2
        if hp.lambda1 > 0:
            w, _ = bruteforce_eq_prox(z, hp.lambda1 / hp.lambda2)
        else:
            w = z - z.mean()
        rows += (float(v @ w) - hp.lambda1 * float(np.abs(w).sum())
                 - 0.5 * hp.lambda2 * float(w @ w))
    vb = -c.sum(axis=0) / n
    bb = (vb - vb.mean()) / hp.lambda3
    intercept = float(vb @ bb) - 0.5 * hp.lambda3 * float(bb @ bb)
    return loss - rows - intercept


def projected_subgradient(data, hp, iterations, step_scale=1.0):
    """Feasible subgradient descent on the multi-class objective for tiny
    instances; keeps the best objective seen. Feasibility is maintained by
    re-centering every row of W and the intercept vector after each step.

    Returns (b, W, objective) at the best iterate.
    """
    n, p, J = data.n, data.n_features, data.n_classes
    if p * J > 50:
        raise DomainError("subgradient oracle is limited to p*J <= 50")
    X = np.asarray(data.X.todense() if hasattr(data.X, "todense") else data.X,
                   dtype=float)
    mu = min(hp.lambda2, hp.lambda3)
    b = np.zeros(J)
    W = np.zeros((p, J))
    best = (np.inf, b.copy(), W.copy())
    rows = np.arange(n)
    for t in range(1, iterations + 1):
        scores = X @ W + b
        obj = multi_objective_direct(b, W, data, hp)
        if obj < best[0]:
            best = (obj, b.copy(), W.copy())
        G = -_dphi(-scores, hp.delta)
        G[rows, data.labels - 1] = 0.0
        G /= n
        sub_W = X.T @ G + hp.lambda2 * W + hp.lambda1 * np.sign(W)
        sub_b = G.sum(axis=0) + hp.lambda3 * b
        alpha = step_scale / (mu * t) if mu > 0 else step_scale / np.sqrt(t)
        W = W - alpha * sub_W
        b = b - alpha * sub_b
        W -= W.mean(axis=1, keepdims=True)
        b -= b.mean()
    return best[1], best[2], float(best[0])


def reference_binary_grad(b, w, data, delta):
    """Cache-free gradient of the binary smooth part, one sample at a
    time."""
    n = data.n
    X = data.X
    grad_b = 0.0
    grad_w = np.zeros(data.n_features)
    for i in range(n):
        xi = np.asarray(X[[i]].todense()).ravel() if hasattr(X, "todense") \
            else X[i]
        yi = float(data.labels[i])
        m = yi * (b + float(xi @ w))
        if m > 1.0:
            d = 0.0
        elif m > 1.0 - delta:
            d = (m - 1.0) / delta
        else:
            d = -1.0
        grad_b += d * yi / n
        grad_w += d * yi * xi / n
    return grad_b, grad_w


def reference_parse_libsvm(source, n_features=None) -> Dataset:
    """Parse LIBSVM text: ``label idx:val idx:val ...`` per line.

    Indices must be 1-based and strictly ascending within a line. Labels
    must be integral and values finite; a file whose labels are all 0 is
    treated as unlabeled test data. ``n_features`` overrides the inferred
    width (max index); a larger index raises ``ShapeError``.
    """
    lines = source.splitlines() if isinstance(source, str) else source

    data, indices, indptr, labels = [], [], [], []
    indptr.append(0)
    max_index = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            lab = float(tokens[0])
        except ValueError:
            raise ParseError(f"bad label token {tokens[0]!r}", line_no) from None
        if not math.isfinite(lab):
            raise ParseError(f"label {tokens[0]!r} is not finite", line_no)
        if lab != int(lab):
            raise ParseError(f"label {tokens[0]!r} is not an integer", line_no)
        labels.append(int(lab))
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
            prev = idx
            indices.append(idx - 1)
            data.append(val)
        max_index = max(max_index, prev)
        indptr.append(len(data))

    p = max_index if n_features is None else int(n_features)
    if p < max_index:
        raise ShapeError(f"largest feature index {max_index} exceeds {p}")
    X = sp.csr_array((np.asarray(data, dtype=float),
                      np.asarray(indices, dtype=np.int64),
                      np.asarray(indptr, dtype=np.int64)),
                     shape=(len(labels), p))
    return Dataset(X, np.asarray(labels, dtype=np.int64))

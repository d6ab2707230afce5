"""Slow, independent reference implementations used by the test suite.

Nothing here shares code with the routines it validates: the gradient
checker only evaluates the objective callable it is given, the dual prox
scan re-implements soft thresholding inline, and the subgradient oracle
evaluates the multi-class objective from its definition.
"""

from __future__ import annotations

import numpy as np

from hsvm.errors import DomainError, HsvmError


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

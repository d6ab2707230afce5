"""Per-layer metrics of a traced run, and the self-time table.

Layers are the package's modules: tuning, solver, losses, prox, data
(including the ``X`` products), model and cli. Every ``.s`` value is the
summed span time per repetition; every count is per repetition and exact,
because each repetition gets the same inputs.
"""

from __future__ import annotations

import statistics

import spans

LAYERS = ("tuning", "solver", "losses", "prox", "data", "model", "cli")

# (name, unit, better); BENCHMARK.json's per_layer list is this list.
PER_LAYER = [
    ("solver.fit.s", "s", "lower"),
    ("solver.self_s", "s", "lower"),
    ("solver.line_search.s", "s", "lower"),
    ("solver.plain_fit_s", "s", "lower"),
    ("solver.two_stage_fit_s", "s", "lower"),
    ("solver.fit_p50_ms", "ms", "lower"),
    ("solver.fit_p90_ms", "ms", "lower"),
    ("solver.iterations", "count", "lower"),
    ("solver.fwd_products", "count", "lower"),
    ("solver.grad_products", "count", "lower"),
    ("solver.ls_evals", "count", "lower"),
    ("solver.ls_accept_ratio", "ratio", "higher"),
    ("solver.restart_frac", "ratio", "lower"),
    ("solver.converged_frac", "ratio", "higher"),
    ("solver.two_stage_fallbacks", "count", "lower"),
    ("losses.huber_loss.s", "s", "lower"),
    ("losses.huber_loss.calls", "count", "lower"),
    ("losses.huber_grad.s", "s", "lower"),
    ("losses.huber_grad.calls", "count", "lower"),
    ("losses.multi_smooth_from_margins.s", "s", "lower"),
    ("losses.multi_smooth_from_margins.calls", "count", "lower"),
    ("losses.multi_grad_from_margins.s", "s", "lower"),
    ("losses.multi_grad_from_margins.calls", "count", "lower"),
    ("losses.penalty.s", "s", "lower"),
    ("losses.penalty.calls", "count", "lower"),
    ("losses.lipschitz.s", "s", "lower"),
    ("prox.binary_prox_step.s", "s", "lower"),
    ("prox.binary_prox_step.calls", "count", "lower"),
    ("prox.multi_w_step.s", "s", "lower"),
    ("prox.multi_w_step.calls", "count", "lower"),
    ("prox.multi_b_step.s", "s", "lower"),
    ("prox.multi_b_step.calls", "count", "lower"),
    ("data.X_fwd.s", "s", "lower"),
    ("data.X_fwd.calls", "count", "lower"),
    ("data.X_fwd.gbps_computed", "GB/s", "higher"),
    ("data.X_T.s", "s", "lower"),
    ("data.X_T.calls", "count", "lower"),
    ("data.X_T.gbps_computed", "GB/s", "higher"),
    ("data.load_libsvm.s", "s", "lower"),
    ("data.load_libsvm.mb_per_s", "MB/s", "higher"),
    ("data.subset.s", "s", "lower"),
    ("data.subset.calls", "count", "lower"),
    ("data.restrict_features.s", "s", "lower"),
    ("data.row_sqnorms.s", "s", "lower"),
    ("tuning.grid_search.s", "s", "lower"),
    ("tuning.kfold_split.s", "s", "lower"),
    ("model.evaluate.s", "s", "lower"),
    ("model.save_model.s", "s", "lower"),
    ("model.load_model.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower")
      for layer in ("tuning", "losses", "prox", "data", "model")),
    ("trace.overhead_frac", "ratio", "lower"),
]

_SPAN_SECONDS = (
    "solver.line_search", "losses.lipschitz", "data.restrict_features",
    "data.row_sqnorms", "tuning.grid_search", "tuning.kfold_split",
    "model.evaluate", "model.save_model", "model.load_model", "cli.main")
_SPAN_SECONDS_AND_CALLS = (
    "losses.huber_loss", "losses.huber_grad", "losses.multi_smooth_from_margins",
    "losses.multi_grad_from_margins", "losses.penalty", "prox.binary_prox_step",
    "prox.multi_w_step", "prox.multi_b_step", "data.X_fwd", "data.X_T",
    "data.subset")


def _ratio(num, den):
    return num / den if den else 0.0


def _summed(dicts):
    """Element-wise sum of dicts whose values are numbers or tuples."""
    out = {}
    for d in dicts:
        for key, val in d.items():
            if key not in out:
                out[key] = val
            elif isinstance(val, tuple):
                out[key] = tuple(a + b for a, b in zip(out[key], val))
            else:
                out[key] += val
    return out


def _traced_totals(traced):
    """Span totals and layer self times summed over traced repetitions
    (parent indices are per repetition, so each is analysed alone)."""
    return (_summed(spans.span_totals(r.tracer.spans) for r in traced),
            _summed(spans.layer_self_times(r.tracer.spans) for r in traced))


def per_layer(reps) -> dict:
    """Metrics in ``PER_LAYER`` order as ``{name: (value, unit)}``."""
    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    k = len(traced)
    totals, layer_self = _traced_totals(traced)
    fits = [f for r in traced for f in r.recorder.fits]

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0, 0))[0] / k

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0, 0))[1] / k

    def rate(name, scale):
        _, s, _, nbytes = totals.get(name, (0, 0.0, 0.0, 0))
        return _ratio(nbytes / scale, s)

    def fit_sum(attr):
        return sum(getattr(f, attr) for f in fits) / k

    def fit_best(solver):
        times = spans.best_per_op(plain, solver)
        return statistics.median(times) if times else 0.0

    v = {
        "solver.fit.s": secs("solver.fit"),
        "solver.self_s": layer_self.get("solver", 0.0) / k,
        "solver.plain_fit_s": fit_best("bpgh"),
        "solver.two_stage_fit_s": fit_best("bpgh2"),
        "solver.fit_p50_ms": 1e3 * statistics.median(spans.best_per_op(plain)),
        "solver.fit_p90_ms": 1e3 * spans.p90(spans.best_per_op(plain)),
        "solver.iterations": fit_sum("iterations"),
        "solver.fwd_products": fit_sum("fwd_products"),
        "solver.grad_products": fit_sum("grad_products"),
        "solver.ls_evals": fit_sum("ls_evals"),
        "solver.ls_accept_ratio": _ratio(fit_sum("iterations"), fit_sum("ls_evals")),
        "solver.restart_frac": _ratio(fit_sum("restarts"), fit_sum("iterations")),
        "solver.converged_frac": _ratio(fit_sum("converged"), len(fits) / k),
        "solver.two_stage_fallbacks": fit_sum("fallback"),
        "data.X_fwd.gbps_computed": rate("data.X_fwd", 1e9),
        "data.X_T.gbps_computed": rate("data.X_T", 1e9),
        "data.load_libsvm.s": secs("data.load_libsvm"),
        "data.load_libsvm.mb_per_s": rate("data.load_libsvm", 1e6),
        "cli.self_s": totals.get("cli.main", (0, 0.0, 0.0, 0))[2] / k,
        "trace.overhead_frac": _ratio(spans.best_body(traced),
                                      spans.best_body(plain)) - 1.0,
    }
    for name in _SPAN_SECONDS:
        v[f"{name}.s"] = secs(name)
    for name in _SPAN_SECONDS_AND_CALLS:
        v[f"{name}.s"] = secs(name)
        v[f"{name}.calls"] = calls(name)
    for layer in ("tuning", "losses", "prox", "data", "model"):
        v[f"{layer}.self_s"] = layer_self.get(layer, 0.0) / k
    return {name: (float(v[name]), unit) for name, unit, _ in PER_LAYER}


def self_time_table(workload, reps) -> str:
    """Self seconds per layer and per span name, per traced repetition,
    with each one's share of the traced wall time."""
    traced = [r for r in reps if r.traced]
    k = len(traced)
    wall = sum(r.seconds for r in traced) / k
    totals, layer_self = _traced_totals(traced)
    outside = wall - sum(spans.top_level_seconds(r.tracer.spans)
                         for r in traced) / k
    lines = [f"# {workload}: self time per layer, per repetition "
             f"(traced wall {wall:.4f} s, {k} traced repetition(s))",
             f"{'layer':<10} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS:
        s = layer_self.get(layer, 0.0) / k
        lines.append(f"{layer:<10} {s:>10.4f} {s / wall:>7.1%}")
    lines.append(f"{'(bench)':<10} {outside:>10.4f} {outside / wall:>7.1%}")
    lines.append(f"{'span':<40} {'calls':>8} {'incl_s':>10} {'self_s':>10}")
    for name, (n, incl, own, _) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<40} {n / k:>8.0f} {incl / k:>10.4f} {own / k:>10.4f}")
    return "\n".join(lines)


def write_spans(fh, reps) -> None:
    """All traced spans as CSV; ``parent`` indexes into the same
    repetition's rows, ``fit_id`` 0 means outside any fit."""
    fh.write("rep,id,name,start_ns,end_ns,parent,fit_id,nbytes\n")
    for rep_no, r in enumerate(x for x in reps if x.traced):
        for i, s in enumerate(r.tracer.spans):
            fh.write(f"{rep_no},{i},{','.join(map(str, s))}\n")

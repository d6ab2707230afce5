"""Command-line surface: generate, train, predict, cross-validate,
benchmark, and statistical reporting.

Exit codes are a stable scripting contract: 0 success, 1 usage error or
out of memory, 2 solver hit the iteration cap, 3 I/O failure. Every
subcommand taking a --seed is bit-deterministic. Wall-clock columns in
bench reports are the one exception: hardware-bound timings are reported
for trend inspection only.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from functools import partial

import numpy as np

from .data import (
    SynthSpec,
    UNLABELED,
    generate,
    load_libsvm,
    save_libsvm,
    write_sidecar,
)
from .errors import FormatError, HsvmError, LabelError, ParseError, ShapeError
from .losses import Hyperparams
from .model import _columns, check_labels, load_model, predict, save_model
from .solver import ABLATION_SETTINGS, SolverOptions, ablation_run
from .stats import RANKS, RAW_SCORES, RankTable, compare_to_control, friedman, holm, wilcoxon_z
from .tuning import LAMBDA3_TIED, SOLVERS, Grid, grid_search

TEST_SEED_OFFSET = 1_000_003  # derives the held-out stream from --seed

# A copy, not the same dict: tools that wrap each fitter table's entries
# would otherwise wrap every fit twice.
_FITTERS = dict(SOLVERS)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep the contract
        raise _UsageError(f"{self.prog}: {message}")


def _add_hyper_flags(p):
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    p.add_argument("--lambda3", type=float, required=True)
    p.add_argument("--delta", type=float, default=Hyperparams.delta)


def _add_solver_flags(p):
    p.add_argument("--tol", type=float, default=SolverOptions.tol)
    p.add_argument("--max-iter", type=int, default=SolverOptions.max_iter)


def _solver_options(args) -> SolverOptions:
    return SolverOptions(tol=args.tol, max_iter=args.max_iter)


def build_parser() -> _Parser:
    parser = _Parser(prog="hsvm", description=__doc__)
    parser.add_argument("--format", choices=["csv", "human"], default="human",
                        help="stdout rendering of tabular results")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic train/test files")
    p.add_argument("--kind", choices=["binary", "four_class"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-test", type=int, default=0)
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="fit a model and write it to disk")
    p.add_argument("--data", required=True)
    p.add_argument("--solver", choices=sorted(_FITTERS), required=True)
    _add_hyper_flags(p)
    _add_solver_flags(p)
    p.add_argument("--model-out", required=True)
    p.add_argument("--trace-out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label a dataset with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cv", help="grid search by k-fold cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--solver", choices=sorted(_FITTERS), default="bpgh")
    p.add_argument("--lambda1-grid", required=True,
                   help="comma-separated values")
    p.add_argument("--lambda2-grid", required=True)
    p.add_argument("--lambda3", default=Grid.lambda3,
                   help=f"number, or {LAMBDA3_TIED!r} to tie to the lambda2 value")
    p.add_argument("--delta", type=float, default=Hyperparams.delta)
    p.add_argument("--folds", type=int, default=Grid.folds)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--table-out")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("bench", help="timing/ablation scenarios")
    p.add_argument("--scenario", choices=["ablation", "two_stage"],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    _add_hyper_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stats", help="nonparametric method comparison")
    p.add_argument("--scores", required=True,
                   help="CSV of per-dataset scores, one column per method")
    p.add_argument("--kind", choices=["scores", "ranks"], default="scores")
    p.add_argument("--control", default=None,
                   help="control method name or column index (default first)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    return parser


def cmd_gen(args) -> int:
    if args.n_test < 0:
        raise _UsageError(f"--n-test must be nonnegative, got {args.n_test}")
    kind = "binary_gaussian" if args.kind == "binary" else "four_class"
    spec = SynthSpec(kind=kind, n=args.n, p=args.p, s=args.s, rho=args.rho,
                     seed=args.seed)
    train = generate(spec)
    # The test set is generated before anything is written, so a size it
    # rejects leaves no partial output.
    test = (generate(replace(spec, n=args.n_test,
                             seed=args.seed + TEST_SEED_OFFSET))
            if args.n_test else None)
    save_libsvm(train, f"{args.out}.train.libsvm")
    write_sidecar(spec, train, f"{args.out}.meta.json")
    made = [f"{args.out}.train.libsvm", f"{args.out}.meta.json"]
    if test is not None:
        save_libsvm(test, f"{args.out}.test.libsvm")
        made.append(f"{args.out}.test.libsvm")
    print("wrote " + " ".join(made))
    return 0


def cmd_train(args) -> int:
    data = load_libsvm(args.data)
    hp = Hyperparams(args.lambda1, args.lambda2, args.lambda3, args.delta)
    res = _FITTERS[args.solver](data, hp, _solver_options(args))
    with open(args.model_out, "w", encoding="ascii") as fh:
        save_model(res.model, hp, fh)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="ascii") as fh:
            res.trace.to_csv(fh)
    gap = "" if res.gap is None else f" gap={res.gap:.3g}"
    nnz = np.count_nonzero(_columns(res.model))  # the model file's w lines
    print(f"converged={res.converged} iterations={res.iterations} "
          f"objective={res.final_objective:.12g} nnz={nnz}" + gap)
    return 0 if res.converged else 2


def cmd_predict(args) -> int:
    with open(args.model, "r", encoding="ascii") as fh:
        try:
            model, _ = load_model(fh)
        except UnicodeDecodeError:
            raise FormatError(f"{args.model}: not an ASCII text file") from None
    try:
        data = load_libsvm(args.data, n_features=model.n_features)
    except ShapeError as exc:
        raise _UsageError(f"{args.data}: {exc}, the model's feature "
                          "count") from None
    if data.n == 0:
        raise _UsageError(f"{args.data}: file has no rows")
    labelled = data.kind != UNLABELED
    if labelled:
        try:
            check_labels(model, data.labels)
        except LabelError as exc:
            raise _UsageError(f"{args.data}: {exc}") from None
    pred = predict(model, data)
    with open(args.out, "w", encoding="ascii") as fh:
        for lab in pred:
            fh.write(f"{int(lab)}\n")
        if labelled:
            acc = float(np.mean(pred == data.labels))
            fh.write(f"accuracy {acc:.17g}\n")
    if labelled:
        print(f"accuracy {acc:.17g}")
    return 0


def _parse_float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"malformed grid {text!r}") from None


def cmd_cv(args) -> int:
    lambda3 = args.lambda3
    if lambda3 != LAMBDA3_TIED:
        try:
            lambda3 = float(lambda3)
        except ValueError:
            raise _UsageError(f"malformed --lambda3 {lambda3!r}") from None
    data = load_libsvm(args.data)
    grid = Grid(_parse_float_list(args.lambda1_grid),
                _parse_float_list(args.lambda2_grid),
                lambda3=lambda3, delta=args.delta, folds=args.folds)
    res = grid_search(data, grid, solver=args.solver, seed=args.seed)
    print(f"best lambda1={res.best_lambda1:.17g} "
          f"lambda2={res.best_lambda2:.17g}")
    if args.table_out:
        with open(args.table_out, "w", encoding="ascii") as fh:
            res.to_csv(fh)
    return 0


def cmd_bench(args) -> int:
    kind = "binary_gaussian"
    spec = SynthSpec(kind=kind, n=args.n, p=args.p, s=args.s, rho=args.rho,
                     seed=args.seed)
    data = generate(spec)
    hp = Hyperparams(args.lambda1, args.lambda2, args.lambda3, args.delta)
    opts = _solver_options(args)
    if args.scenario == "ablation":
        fits = [(setting, partial(ablation_run, setting=setting))
                for setting in ABLATION_SETTINGS]
    else:
        fits = [(name, _FITTERS[name]) for name in ("bpgh", "bpgh2")]
    # Fill the norm caches now, or the first fit timed pays their passes.
    data.row_sqnorms()
    data.col_sqnorms()
    rows = []
    for name, fit in fits:
        t0 = time.perf_counter()
        res = fit(data, hp, opts=opts)
        ms = 1000.0 * (time.perf_counter() - t0)
        rows.append((name, res.iterations, ms, res.final_objective,
                     res.trace.rows[-1].nnz))
    header = "setting,iterations,time_ms,objective,nnz"
    lines = [header] + [f"{s},{it},{ms:.3f},{obj:.12g},{nnz}"
                        for s, it, ms, obj, nnz in rows]
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    if args.format == "csv":
        print("\n".join(lines))
    else:
        for s, it, ms, obj, nnz in rows:
            print(f"{s:<24} iters={it:<6} time={ms:9.2f} ms "
                  f"obj={obj:.8g} nnz={nnz}")
    return 0


def _read_scores_csv(path):
    with open(path, "r", encoding="ascii") as fh:
        try:
            rows = [line.strip().split(",") for line in fh if line.strip()]
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not an ASCII text file") from None
    if len(rows) < 2:
        raise _UsageError("scores CSV needs a header and at least one row")
    header = [h.strip() for h in rows[0]]
    body = rows[1:]
    name_col = header and header[0].lower() in ("dataset", "name", "")
    labels = header[1:] if name_col else header
    width = len(labels) + (1 if name_col else 0)
    if any(len(r) != width for r in body):
        raise _UsageError("ragged scores CSV")
    try:
        values = np.asarray(
            [[float(v) for v in (r[1:] if name_col else r)] for r in body])
    except ValueError:
        raise _UsageError("non-numeric score in CSV") from None
    return labels, values


def cmd_stats(args) -> int:
    labels, values = _read_scores_csv(args.scores)
    kind = RANKS if args.kind == "ranks" else RAW_SCORES
    table = RankTable(values, kind=kind, labels=tuple(labels))
    if args.control is None:
        control = 0
    elif args.control in labels:
        control = labels.index(args.control)
    else:
        try:
            control = int(args.control)
        except ValueError:
            raise _UsageError(f"unknown control {args.control!r}") from None
    k = len(labels)
    lines = ["wilcoxon,method_a,method_b,z,p"]
    for i in range(k):
        for j in range(i + 1, k):
            _, z, p = wilcoxon_z(values[:, i], values[:, j])
            lines.append(f"wilcoxon,{labels[i]},{labels[j]},{z:.6g},{p:.6g}")
    chi2, p_f = friedman(table)
    lines.append("friedman,chi2,p")
    lines.append(f"friedman,{chi2:.6g},{p_f:.6g}")
    z_ctrl, p_ctrl = compare_to_control(table, control)
    others = [j for j in range(k) if j != control]
    rejects = holm(p_ctrl[others], args.alpha)
    lines.append(f"control,method,z,p,holm_reject_alpha={args.alpha:g}")
    for idx, j in enumerate(others):
        lines.append(f"control,{labels[j]},{z_ctrl[j]:.6g},"
                     f"{p_ctrl[j]:.6g},{int(rejects[idx])}")
    report = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(report)
    if args.format == "csv" or not args.out:
        sys.stdout.write(report)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ParseError, FormatError, OSError) as exc:
        print(f"hsvm: {exc}", file=sys.stderr)
        return 3
    except HsvmError as exc:
        print(f"hsvm: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # NumPy names the allocation; Python's own failures carry no text.
        print(f"hsvm: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

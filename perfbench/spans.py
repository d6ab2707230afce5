"""Outside-in instrumentation of the hsvm package.

Nothing in ``src/`` is edited. Timing comes from wrappers that rebind the
public names the package looks up at call time:

* ``hsvm.tuning.SOLVERS`` and ``hsvm.cli._FITTERS`` entries (one op per
  top-level fit), and ``hsvm.cli.main`` (one op per CLI command). These
  entry timers are installed in every run.
* With a :class:`Tracer`, also the loss, prox and solver helpers imported
  into ``hsvm.solver``, the tuning and model entry points, the ``Dataset``
  methods, a ``Dataset.X`` accessor whose ``@`` and ``.T @`` are timed, and
  the I/O helpers ``hsvm.cli`` calls.

Spans live in memory as ``[name, start_ns, end_ns, parent, fit_id, nbytes]``
and are summarised or written out after the run.
"""

from __future__ import annotations

import functools
import os
import statistics
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns

import numpy as np
import scipy.sparse as sp

import hsvm.cli
import hsvm.model
import hsvm.solver
import hsvm.tuning
from hsvm.data import Dataset
from hsvm.errors import HsvmError

NAME, START, END, PARENT, FIT, NBYTES = range(6)

# (module, attribute, span name) rebound while tracing.
TRACED_FUNCTIONS = [
    (hsvm.solver, "huber_loss", "losses.huber_loss"),
    (hsvm.solver, "huber_grad", "losses.huber_grad"),
    (hsvm.solver, "multi_smooth_from_margins", "losses.multi_smooth_from_margins"),
    (hsvm.solver, "multi_grad_from_margins", "losses.multi_grad_from_margins"),
    (hsvm.solver, "binary_penalty", "losses.penalty"),
    (hsvm.solver, "multi_penalty", "losses.penalty"),
    (hsvm.solver, "lipschitz_binary", "losses.lipschitz"),
    (hsvm.solver, "lipschitz_multi", "losses.lipschitz"),
    (hsvm.solver, "binary_prox_step", "prox.binary_prox_step"),
    (hsvm.solver, "multi_w_step", "prox.multi_w_step"),
    (hsvm.solver, "multi_b_step", "prox.multi_b_step"),
    (hsvm.solver, "line_search", "solver.line_search"),
    # Reached only from inside fit_binary_two_stage (stage 2 or fallback).
    (hsvm.solver, "fit_binary", "solver.fit_binary"),
    (hsvm.tuning, "grid_search", "tuning.grid_search"),
    (hsvm.cli, "grid_search", "tuning.grid_search"),
    (hsvm.tuning, "kfold_split", "tuning.kfold_split"),
    (hsvm.tuning, "evaluate", "model.evaluate"),
    (hsvm.model, "evaluate", "model.evaluate"),
    (hsvm.cli, "save_model", "model.save_model"),
    (hsvm.cli, "load_model", "model.load_model"),
    (hsvm.cli, "predict", "model.predict"),
    (Dataset, "subset", "data.subset"),
    (Dataset, "restrict_features", "data.restrict_features"),
    (Dataset, "row_sqnorms", "data.row_sqnorms"),
]


class Tracer:
    """In-memory span recorder; one fit id per top-level fit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._fit_id = 0
        self._fits = 0

    def begin(self, name: str, new_fit: bool = False) -> int:
        if new_fit:
            self._fits += 1
            self._fit_id = self._fits
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self._fit_id, 0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, nbytes: int = 0) -> None:
        span = self.spans[idx]
        span[END] = perf_counter_ns()
        span[NBYTES] = nbytes
        self._stack.pop()
        if span[NAME] == "solver.fit":
            self._fit_id = 0


class FitOp:
    """One top-level fit as seen from outside: time, outcome and the exact
    counts read from its ``FitResult``."""

    __slots__ = ("solver", "seconds", "ok", "error", "iterations",
                 "fwd_products", "grad_products", "ls_evals", "restarts",
                 "converged", "fallback")

    def __init__(self, solver, seconds, result=None, error=None):
        self.solver = solver
        self.seconds = seconds
        self.error = error
        self.converged = bool(result is not None and result.converged)
        self.ok = error is None and self.converged
        rows = result.trace.rows if result is not None else []
        self.iterations = result.iterations if result is not None else 0
        self.fwd_products = sum(r.n_products for r in rows)
        self.grad_products = result.grad_products if result is not None else 0
        self.ls_evals = sum(r.ls_evals for r in rows)
        self.restarts = sum(1 for r in rows if r.restarted)
        self.fallback = bool(result is not None and result.two_stage_fallback)


class CommandOp:
    __slots__ = ("command", "seconds", "exit_code", "ok")

    def __init__(self, command, seconds, exit_code):
        self.command = command
        self.seconds = seconds
        self.exit_code = exit_code
        self.ok = exit_code == 0


class Recorder:
    """Ops of one workload repetition. ``top_level`` holds the ops not run
    inside another op (a fit inside ``hsvm train`` is not top-level)."""

    def __init__(self):
        self.fits: list[FitOp] = []
        self.commands: list[CommandOp] = []
        self.top_level: list = []
        self.depth = 0

    @property
    def ops(self):
        return self.fits + self.commands

    def add(self, op, kind: list) -> None:
        kind.append(op)
        if self.depth == 0:
            self.top_level.append(op)

    def failures(self) -> list[str]:
        out = [f"fit {f.solver}: " + (f.error or "converged=False")
               for f in self.fits if not f.ok]
        out += [f"command {c.command}: exit code {c.exit_code}"
                for c in self.commands if not c.ok]
        return out


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid)
    return wrapper


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _load_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        sid = tracer.begin("data.load_libsvm")
        try:
            return fn(path, *args, **kwargs)
        finally:
            tracer.end(sid, _file_bytes(path))
    return wrapper


def _fit_wrapper(recorder: Recorder, tracer, solver: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.begin("solver.fit", new_fit=True) if tracer else None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except HsvmError as exc:
            recorder.add(FitOp(solver, perf_counter() - t0,
                               error=f"{type(exc).__name__}: {exc}"), recorder.fits)
            raise
        finally:
            if sid is not None:
                tracer.end(sid)
        recorder.add(FitOp(solver, perf_counter() - t0, result), recorder.fits)
        return result
    return wrapper


def _main_wrapper(recorder: Recorder, tracer, fn):
    @functools.wraps(fn)
    def wrapper(argv=None):
        sid = tracer.begin("cli.main") if tracer else None
        t0 = perf_counter()
        recorder.depth += 1
        try:
            code = fn(argv)
        finally:
            recorder.depth -= 1
            if sid is not None:
                tracer.end(sid)
        command = argv[0] if argv else "?"
        recorder.add(CommandOp(command, perf_counter() - t0, code), recorder.commands)
        return code
    return wrapper


def _matrix_nbytes(a) -> int:
    if sp.issparse(a):
        return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    return a.nbytes


class TimedMatrix:
    """Stand-in for ``Dataset.X`` whose ``@`` (forward) and ``.T @``
    (transpose) products are recorded as spans with the bytes they touch:
    the matrix, the operand and the result. Everything else is forwarded."""

    __slots__ = ("_a", "_tracer", "_name")

    def __init__(self, a, tracer: Tracer, name: str = "data.X_fwd"):
        self._a = a
        self._tracer = tracer
        self._name = name

    def __matmul__(self, other):
        sid = self._tracer.begin(self._name)
        out = None
        try:
            out = self._a @ other
        finally:
            nbytes = _matrix_nbytes(self._a) + np.asarray(other).nbytes
            if out is not None:
                nbytes += np.asarray(out).nbytes
            self._tracer.end(sid, nbytes)
        return out

    @property
    def T(self):
        return TimedMatrix(self._a.T, self._tracer, "data.X_T")

    def __getitem__(self, key):
        return self._a[key]

    def __getattr__(self, name):
        # Array protocols stay undefined so numpy never densifies the proxy.
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self._a, name)


@contextmanager
def install(recorder: Recorder, tracer: Tracer | None = None):
    """Install the entry timers, plus every span wrapper when ``tracer`` is
    given; restore every original on exit, also when the body raised."""
    saved = []

    def rebind(owner, key, value):
        if isinstance(owner, dict):
            saved.append((owner, key, owner[key]))
            owner[key] = value
        else:
            saved.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    try:
        for table in (hsvm.tuning.SOLVERS, hsvm.cli._FITTERS):
            for solver, fn in list(table.items()):
                rebind(table, solver, _fit_wrapper(recorder, tracer, solver, fn))
        rebind(hsvm.cli, "main", _main_wrapper(recorder, tracer, hsvm.cli.main))
        if tracer is not None:
            for owner, attr, name in TRACED_FUNCTIONS:
                rebind(owner, attr, _span_wrapper(tracer, name, getattr(owner, attr)))
            rebind(hsvm.cli, "load_libsvm", _load_wrapper(tracer, hsvm.cli.load_libsvm))
            x_property = Dataset.__dict__["X"]
            rebind(Dataset, "X", property(
                lambda self: TimedMatrix(x_property.fget(self), tracer)))
        yield
    finally:
        for owner, key, original in reversed(saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


# ---------------------------------------------------------------- analysis

def best_body(reps) -> float:
    """Fastest observed time of the repeated body: every top-level op at
    its fastest repetition, plus the fastest repetition of the time spent
    outside top-level ops. Short ops find the quiet moments of a shared
    host that a multi-second body rarely fits into."""
    per_rep = [[op.seconds for op in r.recorder.top_level] for r in reps]
    rest = min(r.seconds - sum(ops) for r, ops in zip(reps, per_rep))
    return sum(min(times) for times in zip(*per_rep)) + rest


def best_per_op(reps, solver=None) -> list[float]:
    """Fastest time of each top-level fit across repetitions. Repetitions
    run the same fits in the same order on the same inputs, so the k-th
    fit of every repetition is the same work; shared-host noise only adds
    time to it."""
    per_rep = [[f.seconds for f in r.recorder.fits
                if solver is None or f.solver == solver] for r in reps]
    return [min(times) for times in zip(*per_rep)]


def p90(values):
    """90th percentile by linear interpolation between order statistics."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def self_times(spans) -> np.ndarray:
    """Per span: its duration minus the time its direct children cover (in
    seconds). Children of one span never overlap: calls are synchronous."""
    if not spans:
        return np.zeros(0)
    dur = np.array([s[END] - s[START] for s in spans], dtype=float) * 1e-9
    parent = np.array([s[PARENT] for s in spans], dtype=np.int64)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(spans))
    return dur - covered


def span_totals(spans):
    """``{name: (calls, inclusive seconds, self seconds, bytes)}``."""
    selfs = self_times(spans)
    out: dict[str, list] = {}
    for s, own in zip(spans, selfs):
        acc = out.setdefault(s[NAME], [0, 0.0, 0.0, 0])
        acc[0] += 1
        acc[1] += (s[END] - s[START]) * 1e-9
        acc[2] += own
        acc[3] += s[NBYTES]
    return {k: tuple(v) for k, v in out.items()}


def layer_self_times(spans) -> dict[str, float]:
    """Self seconds per layer (the span-name prefix before the first dot)."""
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        layer = s[NAME].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def top_level_seconds(spans) -> float:
    return sum((s[END] - s[START]) * 1e-9 for s in spans if s[PARENT] < 0)

"""hsvm benchmark: one workload per process, end to end or traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload binary_cv --seed 0 --seconds 10 --trace 0

The workload's inputs come from ``--seed``. After set-up (repeated
``SETUPS`` times, median reported) the timed body is repeated until
``--seconds`` would be exceeded, at least once; every repetition gets the
same inputs, must pass the workload's checks and must give bit-identical
outputs. Times are built from each op's fastest repetition (see
``spans.best_body``). ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer
metrics, a per-layer self-time table, and the tracing overhead. The last
line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when every op and every check passed.

Details and spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SETUPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_environment() -> None:
    """Before numpy loads: BLAS threads at most the usable cores, and the
    package's own thread pool off."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            want = min(int(os.environ.get(var, cores)), cores)
        except ValueError:
            want = cores
        os.environ[var] = str(max(1, want))
    os.environ.pop("HSVM_THREADS", None)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


class Rep:
    """One timed repetition of a workload body."""

    def __init__(self, traced, seconds, recorder, tracer, out, checks, digest):
        self.traced = traced
        self.seconds = seconds
        self.recorder = recorder
        self.tracer = tracer
        self.out = out
        self.checks = checks          # failed workload invariants
        self.digest = digest

    @property
    def failures(self):
        return self.recorder.failures() + self.checks


def measure(workload, state, seconds, trace, peak_rss):
    """Repeat the body until the next repetition would end past ``seconds``
    (at least once per mode). With ``trace``, untraced and traced
    repetitions alternate. ``peak_rss[0]`` gets the peak resident size
    after set-up and the first repetition (later repetitions only add
    allocator churn, and their number depends on speed)."""
    import spans

    modes = (False, True) if trace else (False,)
    reps = []
    t_start = perf_counter()
    while True:
        traced = modes[len(reps) % len(modes)]
        inputs = workload.prepare(state)
        gc.collect()
        recorder = spans.Recorder()
        tracer = spans.Tracer() if traced else None
        with spans.install(recorder, tracer):
            t0 = perf_counter()
            out = workload.run(inputs)
            dt = perf_counter() - t0
        if not reps:
            peak_rss[0] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reps.append(Rep(traced, dt, recorder, tracer, out, workload.check(out),
                        workload.digest(out)))
        del inputs
        elapsed = perf_counter() - t_start
        typical = statistics.median(r.seconds for r in reps)
        if len(reps) >= len(modes) and elapsed + typical > seconds:
            return reps


# BENCHMARK.json's end_to_end list, in order.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
             "test_accuracy": "fraction"}


def end_to_end(workload, reps, setup_s, peak_rss_mb):
    """The body time is built from the fastest repetition of each op:
    every repetition is identical work, and on a shared host contention
    only ever adds time."""
    import spans

    values = {
        "setup_s": setup_s,
        "wall_s": spans.best_body(reps),
        "peak_rss_mb": peak_rss_mb,
        "test_accuracy": workload.accuracy(reps[0].out),
    }
    return {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "hsvm" / "__init__.py").is_file():
        print(f"perfbench: no hsvm sources under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))

    import numpy  # noqa: F401  (loaded before the package import is timed)

    t0 = perf_counter()
    import hsvm  # noqa: F401
    import_s = perf_counter() - t0

    import layers
    import machine
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        setup_times = []
        state = None
        for _ in range(SETUPS):
            state = None
            gc.collect()
            t0 = perf_counter()
            state = workload.setup(args.seed, workdir)
            setup_times.append(perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)
        peak_rss = [0.0]
        reps = measure(workload, state, args.seconds, args.trace, peak_rss)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in reps for f in r.failures]
    if any(r.digest != reps[0].digest for r in reps):
        failures.append("outputs differ between repetitions of the same inputs")
    if len({(len(r.recorder.fits), len(r.recorder.top_level)) for r in reps}) != 1:
        failures.append("repetitions of the same inputs ran different ops")
    attempted = sum(len(r.recorder.ops) for r in reps)
    failed = len(failures)

    if args.trace:
        metrics = layers.per_layer(reps)
        print(layers.self_time_table(args.workload, reps))
    else:
        metrics = end_to_end(workload, reps, setup_s, peak_rss[0])
    named = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    info = machine.describe(ROOT)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "import_s": import_s,
        "setup_samples_s": setup_times,
        "reps": [{"traced": r.traced, "seconds": r.seconds,
                  "ops": len(r.recorder.ops), "failures": r.failures}
                 for r in reps],
        "failures": failures,
        "metrics": named,
    }
    if args.trace:
        with open(out_dir / f"{stem}.spans.csv", "w", encoding="ascii") as fh:
            layers.write_spans(fh, reps)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    blas = info["blas"]
    print(f"# {args.workload} seed={args.seed} reps={len(reps)} "
          f"fits={sum(len(r.recorder.fits) for r in reps)} | nproc={info['nproc']} "
          f"{blas['name']} {blas['version']} threads={blas['threads']} "
          f"{info['llc']} | python {info['python']} numpy {info['numpy']} "
          f"scipy {info['scipy']} | commit {info['commit'][:12]}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    for f in failures:
        print(f"FAILED CHECK: {f}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": named,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

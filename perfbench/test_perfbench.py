"""Self-tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hsvm.cli  # noqa: E402
import hsvm.solver  # noqa: E402
import hsvm.tuning  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from hsvm import Dataset, Hyperparams, SolverOptions  # noqa: E402
from hsvm.errors import HsvmError  # noqa: E402
from workloads import gen_binary, gen_fourclass  # noqa: E402


def small_binary(seed=3):
    return Dataset(*gen_binary(40, 30, 5, 0.0, seed), kind="binary")


def snapshot():
    return ([owner.__dict__[attr] for owner, attr, _ in spans.TRACED_FUNCTIONS],
            dict(hsvm.tuning.SOLVERS), dict(hsvm.cli._FITTERS),
            hsvm.cli.main, hsvm.cli.load_libsvm, Dataset.__dict__["X"])


def test_wrappers_restore_originals_on_exit_and_on_error():
    before = snapshot()
    with spans.install(spans.Recorder(), spans.Tracer()):
        assert hsvm.solver.huber_loss is not before[0][0]
        assert hsvm.tuning.SOLVERS["bpgh"] is not before[1]["bpgh"]
        assert Dataset.__dict__["X"] is not before[5]
    assert snapshot() == before
    with pytest.raises(RuntimeError):
        with spans.install(spans.Recorder(), spans.Tracer()):
            raise RuntimeError("body failed")
    assert snapshot() == before


def test_tracing_leaves_results_bit_identical():
    data, hp = small_binary(), Hyperparams(0.05, 1.0, 1.0)
    plain = hsvm.tuning.SOLVERS["bpgh2"](data, hp)
    with spans.install(spans.Recorder(), spans.Tracer()):
        traced = hsvm.tuning.SOLVERS["bpgh2"](small_binary(), hp)
    assert traced.final_objective == plain.final_objective
    assert np.array_equal(traced.model.w, plain.model.w)


def test_child_spans_nest_within_their_fit_span():
    tracer, recorder = spans.Tracer(), spans.Recorder()
    hp = Hyperparams(0.05, 1.0, 1.0)
    with spans.install(recorder, tracer):
        for seed in (1, 2):
            hsvm.tuning.SOLVERS["bpgh2"](small_binary(seed), hp)
    s = tracer.spans
    fits = [i for i, x in enumerate(s) if x[spans.NAME] == "solver.fit"]
    assert len(fits) == 2 and len(recorder.fits) == 2
    assert {s[i][spans.FIT] for i in fits} == {1, 2}
    for i, x in enumerate(s):
        assert x[spans.START] <= x[spans.END]
        if i in fits:
            assert x[spans.PARENT] == -1
            continue
        root = i
        while s[root][spans.PARENT] >= 0:
            p = s[root][spans.PARENT]
            assert s[p][spans.START] <= s[root][spans.START]
            assert s[root][spans.END] <= s[p][spans.END]
            root = p
        assert root in fits and s[root][spans.FIT] == x[spans.FIT]
    names = {x[spans.NAME] for x in s}
    assert {"losses.huber_loss", "prox.binary_prox_step", "data.X_fwd",
            "data.X_T", "data.restrict_features", "solver.fit_binary"} <= names


def test_self_time_and_percentile_arithmetic():
    ms = 1_000_000
    # root [0, 10] ms with children [1, 4] and [5, 9]; [5, 9] has a child [6, 7].
    s = [["solver.fit", 0, 10 * ms, -1, 1, 0],
         ["losses.huber_loss", 1 * ms, 4 * ms, 0, 1, 0],
         ["solver.line_search", 5 * ms, 9 * ms, 0, 1, 0],
         ["data.X_fwd", 6 * ms, 7 * ms, 2, 1, 100]]
    assert np.allclose(spans.self_times(s), [3e-3, 3e-3, 3e-3, 1e-3])
    assert spans.layer_self_times(s) == pytest.approx(
        {"solver": 6e-3, "losses": 3e-3, "data": 1e-3})
    totals = spans.span_totals(s)
    assert totals["data.X_fwd"] == pytest.approx((1, 1e-3, 1e-3, 100))
    assert spans.top_level_seconds(s) == pytest.approx(1e-2)
    assert spans.p90(list(range(11))) == pytest.approx(9.0)
    assert spans.p90([1.0, 2.0]) == pytest.approx(1.9)
    assert spans.p90([4.0]) == 4.0


class _Rep:
    def __init__(self, seconds, fit_seconds):
        self.seconds = seconds
        self.recorder = spans.Recorder()
        for t in fit_seconds:
            self.recorder.add(spans.FitOp("bpgh", t), self.recorder.fits)


def test_best_of_repetitions_arithmetic():
    reps = [_Rep(10.0, [4.0, 5.0]), _Rep(8.0, [2.0, 5.5]), _Rep(9.0, [3.0, 3.0])]
    assert spans.best_per_op(reps) == [2.0, 3.0]
    # best ops 2 + 3, best time outside ops min(1, 0.5, 3) = 0.5
    assert spans.best_body(reps) == pytest.approx(5.5)


def test_forced_solver_failures_count_as_failed_ops():
    recorder = spans.Recorder()
    hp = Hyperparams(0.05, 1.0, 1.0)
    multi = Dataset(*gen_fourclass(40, 30, 4, 0.0, 0), kind="multiclass")
    with spans.install(recorder):
        hsvm.tuning.SOLVERS["bpgh"](small_binary(), hp, SolverOptions(max_iter=1))
        with pytest.raises(HsvmError):
            hsvm.tuning.SOLVERS["bpgh"](multi, hp)
        hsvm.tuning.SOLVERS["bpgh"](small_binary(), hp)
    assert [f.ok for f in recorder.fits] == [False, False, True]
    assert len(recorder.failures()) == 2
    assert "LabelError" in recorder.failures()[1]


def test_failed_command_counts_as_failed_op(tmp_path):
    recorder = spans.Recorder()
    with spans.install(recorder):
        code = hsvm.cli.main(["predict", "--model", str(tmp_path / "none"),
                              "--data", str(tmp_path / "none"),
                              "--out", str(tmp_path / "out")])
    assert code == 3 and [c.ok for c in recorder.commands] == [False]


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    import run
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.E2E_UNITS.values())
    from workloads import WORKLOADS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "binary_cv", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

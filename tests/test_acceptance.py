"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them).

Criterion 10 is a documentation entry, not a test: absolute wall-clock
timings of the large benchmarks are hardware-bound (only orderings are
asserted), real microarray/fMRI datasets are not bundled (the pipeline
accepts any LIBSVM file), and no external solvers are re-implemented.
"""

import time

import numpy as np
import pytest

from hsvm import (
    Dataset,
    Grid,
    Hyperparams,
    RankTable,
    SolverOptions,
    ablation_run,
    binary_smooth_grad,
    compare_to_control,
    eq_constrained_l1_prox,
    evaluate,
    fit_binary,
    fit_binary_two_stage,
    fit_multi,
    friedman,
    grid_search,
    holm,
    multi_smooth_grad,
    wilcoxon_z,
)
from hsvm.cli import main as cli_main
from hsvm.data import SynthSpec, gen_binary_gaussian, gen_fourclass
from hsvm.losses import (
    binary_margins,
    huber_loss,
    multi_margins,
    multi_smooth_from_margins,
)
from hsvm.model import MultiModel

from oracles import bruteforce_eq_prox, finite_diff_grad


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def feasible_multi_point(rng, p, J, scale=0.4):
    b = rng.normal(size=J)
    b -= b.mean()
    W = rng.normal(size=(p, J)) * scale
    W -= W.mean(axis=1, keepdims=True)
    return b, W


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(20240501)
    deltas = [0.01, 0.1, 1.0]
    worst = 0.0
    for trial in range(25):
        delta = deltas[trial % 3]
        n = int(rng.integers(5, 31))
        p = int(rng.integers(2, 16))
        data = Dataset(rng.normal(size=(n, p)), rng.choice([-1, 1], n))
        b, w = rng.normal() * 0.5, rng.normal(size=p) * 0.5
        gb, gw = binary_smooth_grad(binary_margins(b, w, data), data, delta)
        grad = np.concatenate([[gb], gw])

        def f(u, data=data, delta=delta):
            return float(np.mean(huber_loss(
                binary_margins(u[0], u[1:], data), delta)))

        fd = finite_diff_grad(f, np.concatenate([[b], w]), h=1e-5)
        worst = max(worst, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    for trial in range(25):
        delta = deltas[trial % 3]
        n = int(rng.integers(5, 31))
        p = int(rng.integers(2, 16))
        J = int(rng.integers(2, 6))
        data = Dataset(rng.normal(size=(n, p)), rng.integers(1, J + 1, n),
                       n_classes=J)
        b, W = feasible_multi_point(rng, p, J)
        gb, gW = multi_smooth_grad(MultiModel(b, W), data, delta)
        grad = np.concatenate([gb, gW.ravel()])

        def f(u, data=data, delta=delta, p=p, J=J):
            return multi_smooth_from_margins(
                multi_margins(u[:J], u[J:].reshape(p, J), data),
                data.labels, delta)

        fd = finite_diff_grad(f, np.concatenate([b, W.ravel()]), h=1e-5)
        worst = max(worst, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    elapsed = time.time() - t0
    report(1, worst <= 1e-6 and elapsed < 5.0,
           f"50 instances, max FD relative error {worst:.2e} "
           f"(tol 1e-6), {elapsed:.1f}s (limit 5s)")


def test_criterion_2_dual_prox_exactness():
    t0 = time.time()
    rng = np.random.default_rng(777)
    worst_w = worst_kkt = 0.0
    for _ in range(10_000):
        J = int(rng.integers(2, 13))
        z = rng.normal(size=J) * rng.uniform(0.1, 5.0)
        if rng.random() < 0.25:
            z = np.round(z, 1)
        lam = rng.uniform(0.005, 3.0)
        res = eq_constrained_l1_prox(z, lam)
        w_ref, _ = bruteforce_eq_prox(z, lam)
        worst_w = max(worst_w, np.abs(res.w - w_ref).max())
        w, sigma = res.w, res.sigma
        worst_kkt = max(worst_kkt, abs(w.sum()))
        nz = w != 0
        if nz.any():
            worst_kkt = max(worst_kkt, np.abs(
                w[nz] - z[nz] + sigma + lam * np.sign(w[nz])).max())
        if (~nz).any():
            worst_kkt = max(worst_kkt,
                            max(0.0, (np.abs(z[~nz] - sigma) - lam).max()))
    elapsed = time.time() - t0
    report(2, worst_w <= 1e-12 and worst_kkt <= 1e-10 and elapsed < 10.0,
           f"10^4 instances, max |w - brute force| {worst_w:.2e} (tol 1e-12), "
           f"max KKT residual {worst_kkt:.2e} (tol 1e-10), "
           f"{elapsed:.1f}s (limit 10s)")


def _binary_trial(rho, seed, grid):
    train = gen_binary_gaussian(SynthSpec(
        kind="binary_gaussian", n=50, p=300, s=20, rho=rho, seed=seed))
    test = gen_binary_gaussian(SynthSpec(
        kind="binary_gaussian", n=1000, p=300, s=20, rho=rho,
        seed=seed + 70_000))
    best = grid_search(train, grid, solver="bpgh", seed=seed)
    hp = grid.hyperparams(best.best_lambda1, best.best_lambda2)
    res = fit_binary(train, hp)
    return evaluate(res.model, test, true_support=train.true_support)


def test_criterion_3_binary_synthetic_reproduction():
    t0 = time.time()
    grid = Grid(np.logspace(-2, -0.5, 4), np.asarray([0.1, 1.0, 10.0]),
                lambda3="lambda2", folds=10)
    metrics0 = [_binary_trial(0.0, seed, grid) for seed in range(20)]
    acc0 = float(np.mean([m.accuracy for m in metrics0]))
    n_t0 = float(np.mean([m.n_t for m in metrics0]))
    n_f0 = float(np.mean([m.n_f for m in metrics0]))
    metrics8 = [_binary_trial(0.8, seed, grid) for seed in range(20)]
    acc8 = float(np.mean([m.accuracy for m in metrics8]))
    elapsed = time.time() - t0
    ok = (acc0 >= 0.99 and n_t0 >= 19.5 and n_f0 <= 1.0
          and 0.835 <= acc8 <= 0.895 and elapsed < 300.0)
    report(3, ok,
           f"rho=0: acc {acc0:.4f} (>=0.99), n_t {n_t0:.2f} (>=19.5), "
           f"n_f {n_f0:.2f} (<=1); rho=0.8: acc {acc8:.4f} "
           f"(in [0.835, 0.895]); {elapsed:.0f}s (limit 300s)")


def _four_class_trial(rho, seed, points):
    train = gen_fourclass(SynthSpec(
        kind="four_class", n=100, p=500, s=30, rho=rho, seed=seed))
    val = gen_fourclass(SynthSpec(
        kind="four_class", n=100, p=500, s=30, rho=rho, seed=seed + 50_000))
    test = gen_fourclass(SynthSpec(
        kind="four_class", n=20_000, p=500, s=30, rho=rho, seed=seed + 90_000))
    best = (-1.0, None, None)
    for l1, l2 in points:
        res = fit_multi(train, Hyperparams(l1, l2, 1.0, 1.0))
        acc = evaluate(res.model, val).accuracy
        if acc > best[0]:
            best = (acc, res.model, (l1, l2))
    feas = best[1].feasibility_residual()
    return evaluate(best[1], test).accuracy, feas


def test_criterion_4_four_class_reproduction():
    t0 = time.time()
    points = [(l1, l2) for l1 in (0.02, 0.05, 0.1, 0.15, 0.2)
              for l2 in (0.3, 1.0, 3.0)]
    accs0, feas0 = zip(*[_four_class_trial(0.0, s, points) for s in range(10)])
    accs8, feas8 = zip(*[_four_class_trial(0.8, s, points) for s in range(10)])
    acc0, acc8 = float(np.mean(accs0)), float(np.mean(accs8))
    feas = max(max(feas0), max(feas8))
    elapsed = time.time() - t0
    ok = acc0 >= 0.93 and acc8 >= 0.74 and feas <= 1e-8 and elapsed < 600.0
    report(4, ok,
           f"rho=0: acc {acc0:.4f} (>=0.93); rho=0.8: acc {acc8:.4f} "
           f"(>=0.74); max feasibility residual {feas:.1e} (<=1e-8); "
           f"{elapsed:.0f}s (limit 600s)")


def test_criterion_5_monotonicity_and_linear_rate():
    t0 = time.time()
    data = gen_binary_gaussian(SynthSpec(
        kind="binary_gaussian", n=300, p=100, s=10, rho=0.0, seed=5))
    hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
    ref = fit_binary(data, hp, SolverOptions(tol=1e-12, max_iter=50_000))
    u_star = np.concatenate([[ref.model.b], ref.model.w])
    res = fit_binary(data, hp, SolverOptions(tol=1e-9, record_iterates=True,
                                             check_margin_drift=True))
    F = res.trace.column("F")
    monotone = bool(np.all(np.diff(F) <= 1e-12))
    d = np.array([np.linalg.norm(u - u_star) for u in res.iterates])[19:]
    d = d[d > 1e-13]
    median_ratio = float(np.median(d[1:] / d[:-1]))
    slope = float(np.polyfit(np.arange(d.size), np.log(d), 1)[0])
    elapsed = time.time() - t0
    ok = monotone and median_ratio < 0.995 and slope < 0 and elapsed < 30.0
    report(5, ok,
           f"monotone={monotone}, median contraction {median_ratio:.4f} "
           f"(<0.995), log-distance slope {slope:.4f} (<0); "
           f"{elapsed:.1f}s (limit 30s)")


def test_criterion_6_ablation_trend():
    t0 = time.time()
    data = gen_binary_gaussian(SynthSpec(
        kind="binary_gaussian", n=3000, p=300, s=30, rho=0.0, seed=123))
    hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
    results = {s: ablation_run(data, hp, s)
               for s in ("ours", "backtrack_no_monotone",
                         "fixed_L_no_monotone")}
    iters = {s: r.iterations for s, r in results.items()}
    objs = [r.final_objective for r in results.values()]
    spread = (max(objs) - min(objs)) / min(objs)
    ordered = (iters["ours"] <= iters["backtrack_no_monotone"]
               <= iters["fixed_L_no_monotone"])
    elapsed = time.time() - t0
    ok = ordered and spread <= 1e-4 and elapsed < 120.0
    report(6, ok,
           f"iterations {iters['ours']} <= {iters['backtrack_no_monotone']} "
           f"<= {iters['fixed_L_no_monotone']}, objective spread "
           f"{spread:.1e} (<=1e-4 rel); {elapsed:.0f}s (limit 120s)")


def test_criterion_7_two_stage_equivalence_and_speed():
    t0 = time.time()
    data = gen_binary_gaussian(SynthSpec(
        kind="binary_gaussian", n=2000, p=20_000, s=200, rho=0.0, seed=77))
    hp = Hyperparams(0.1, 1.0, 1.0, 1.0)
    t1 = time.perf_counter()
    r1 = fit_binary(data, hp)
    time_plain = time.perf_counter() - t1
    t1 = time.perf_counter()
    r2 = fit_binary_two_stage(data, hp)
    time_two_stage = time.perf_counter() - t1
    rel = abs(r1.final_objective - r2.final_objective) / abs(r1.final_objective)
    elapsed = time.time() - t0
    ok = (rel <= 1e-4 and time_two_stage < time_plain
          and not r2.two_stage_fallback and elapsed < 600.0)
    report(7, ok,
           f"objective gap {rel:.1e} (<=1e-4 rel), wall time "
           f"{time_two_stage:.2f}s < {time_plain:.2f}s, "
           f"fallback={r2.two_stage_fallback}; {elapsed:.0f}s (limit 600s)")


RANKS_5 = np.array([
    [1.5, 1.5, 4.0, 3.0, 5.0],
    [2.5, 2.5, 2.5, 2.5, 5.0],
    [2.5, 2.5, 2.5, 2.5, 5.0],
    [1.0, 2.0, 4.0, 3.0, 5.0],
    [2.0, 2.0, 4.5, 4.5, 2.0],
    [1.5, 1.5, 3.0, 4.0, 5.0],
    [1.5, 1.5, 4.0, 3.0, 5.0],
    [1.5, 1.5, 4.0, 4.0, 4.0],
    [2.0, 2.0, 4.0, 2.0, 5.0],
    [1.5, 1.5, 4.0, 3.0, 5.0],
])


def test_criterion_8_statistics_reproduction():
    t0 = time.time()
    checks = []
    a = np.arange(1.0, 11.0)
    t_val, z, p = wilcoxon_z(a, a - np.array([0., 1, 2, 3, 4, 5, 6, 7, 8, 9]))
    checks.append(t_val == 0.5)
    checks.append(abs(z - (-2.7521)) <= 1e-4)
    checks.append(abs(p - 0.0060) <= 5e-4)

    table = RankTable(RANKS_5, kind="ranks")
    chi2, p_f = friedman(table)
    checks.append(abs(chi2 - 23.56) <= 0.01)
    checks.append(abs(p_f - 9.78e-5) <= 0.02 * 9.78e-5)

    _, p_ctrl = compare_to_control(table, control=0)
    expected = np.array([0.8875, 0.0072, 0.0477, 5.57e-5])
    checks.append(bool(np.all(np.abs(p_ctrl[1:] - expected)
                              <= 0.02 * expected)))

    rej05 = holm(expected, 0.05)
    rej10 = holm(expected, 0.10)
    checks.append(bool(np.array_equal(rej05, [False, True, False, True])))
    checks.append(bool(np.array_equal(rej10, [False, True, True, True])))
    elapsed = time.time() - t0
    report(8, all(checks) and elapsed < 1.0,
           f"wilcoxon z={z:.4f} p={p:.4f}, friedman chi2={chi2:.2f} "
           f"p={p_f:.3g}, control p-values and holm decisions at "
           f"alpha=0.05/0.10 all match; {elapsed:.2f}s (limit 1s)")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    blobs = []
    for tag in ("first", "second"):
        prefix = str(tmp_path / tag)
        assert cli_main(["gen", "--kind", "binary", "--n", "60", "--p", "40",
                         "--s", "5", "--rho", "0.3", "--seed", "21",
                         "--n-test", "40", "--out", prefix]) == 0
        assert cli_main(["train", "--data", prefix + ".train.libsvm",
                         "--solver", "bpgh2", "--lambda1", "0.1",
                         "--lambda2", "1", "--lambda3", "1",
                         "--model-out", prefix + ".model",
                         "--trace-out", prefix + ".trace"]) == 0
        assert cli_main(["predict", "--model", prefix + ".model",
                         "--data", prefix + ".test.libsvm",
                         "--out", prefix + ".pred"]) == 0
        assert cli_main(["cv", "--data", prefix + ".train.libsvm",
                         "--lambda1-grid", "0.05,0.1", "--lambda2-grid",
                         "0.5,1", "--folds", "5", "--seed", "3",
                         "--table-out", prefix + ".cv"]) == 0
        blobs.append(tuple(
            open(prefix + ext, "rb").read()
            for ext in (".train.libsvm", ".test.libsvm", ".model", ".trace",
                        ".pred", ".cv")))
    capsys.readouterr()
    report(9, blobs[0] == blobs[1],
           "two seeded gen/train/predict/cv pipelines produced bit-identical "
           "model, trace, prediction and CV table files")

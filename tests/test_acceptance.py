"""Acceptance suite: nine end-to-end criteria, one pass/fail line each.

Each test prints a single "criterion N: PASS/FAIL" line directly to the
terminal (bypassing capture) and then asserts, so a full `pytest -v` run
doubles as the acceptance report.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from scorebo.acquisition import score_grid
from scorebo.baseline import JOINT_LENGTHSCALE, BoOptimizer
from scorebo.cli import RunConfig, run_experiment
from scorebo.engine import ProjectionTable, ScoreOptimizer
from scorebo.gp import NOISE_VARIANCE, KernelConfig, gp_fit
from scorebo.problems import ackley, ackley_space, sdm_objective, sdm_space
from scorebo.report import CSV_COLUMNS, write_trace_csv
from scorebo.space import History, SearchSpace, make_grid

from oracles import (antithetic_normals, brute_force_projection,
                     dense_gp_predict, dense_layout, mc_expected_improvement)

SEEDS = range(10)
ROOT = Path(__file__).resolve().parent.parent
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def _report(capsys, n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, line


def _run_score(space, objective, seed, n_init, batch, max_evals):
    opt = ScoreOptimizer(space=space, objective=objective,
                         batch_size=batch, seed=seed)
    opt.initialize(n_init)
    while opt.history.n_evaluations < max_evals:
        opt.step(max_batch=max_evals - opt.history.n_evaluations)
    return opt


def _run_bo(space, objective, seed, n_init, max_evals):
    opt = BoOptimizer(space=space, objective=objective, seed=seed)
    opt.initialize(n_init)
    while opt.history.n_evaluations < max_evals:
        opt.step()
    return opt


def test_criterion_1_ei_matches_monte_carlo_oracle(capsys):
    samples = antithetic_normals(np.random.default_rng(101), 1_000_000)
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        mean = float(rng.uniform(-2, 2))
        std = float(rng.uniform(0.0, 2.0))
        best = float(rng.uniform(-2, 2))
        zeta = float(rng.uniform(0.0, 0.5))
        ei = score_grid(mean, std, best, zeta)
        oracle = mc_expected_improvement(mean, std, best, zeta, samples)
        worst = max(worst, abs(ei - oracle))
    examples_ok = (
        abs(score_grid(0.0, 1.0, 0.0, 0.0) - 0.3989422804) < 1e-9
        and score_grid(0.0, 1e-15, 0.5, 0.0) == 0.5
        and abs(score_grid(1.0, 2.0, 0.5, 0.1)
                - mc_expected_improvement(
                    1.0, 2.0, 0.5, 0.1,
                    antithetic_normals(np.random.default_rng(7),
                                       10_000_000))) < 2e-3)
    _report(capsys, 1, worst < 5e-3 and examples_ok,
            f"max |EI - MC oracle| = {worst:.2e} over 1000 tuples "
            f"(bound 5e-3); tagged examples {'ok' if examples_ok else 'FAILED'}")


def test_criterion_2_gp_matches_dense_inversion_oracle(capsys):
    rng = np.random.default_rng(201)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        x = np.sort(rng.uniform(0.0, 60.0, n))
        y = rng.normal(0.0, 3.0, n)
        cfg = KernelConfig(lengthscale=float(rng.uniform(1.0, 10.0)),
                           noise_variance=float(rng.uniform(1e-4, 1e-1)))
        query = np.concatenate([x[: min(3, n)], rng.uniform(-5.0, 65.0, 20)])
        mean, std = gp_fit(x[:, None], y, cfg).predict(query[:, None])
        o_mean, o_std = dense_gp_predict(x, y, query, cfg.lengthscale, 1.0,
                                         cfg.noise_variance, cfg.jitter)
        worst = max(worst, float(np.max(np.abs(mean - o_mean))),
                    float(np.max(np.abs(std - o_std))))
    # prior recovery and interpolation properties
    model = gp_fit([[0.0], [1.0], [2.0]], [5.0, 7.0, 6.0], KernelConfig(lengthscale=2.0))
    far_mean, far_std = model.predict([[500.0]])
    props_ok = (abs(far_mean[0] - 6.0) < 1e-3
                and abs(far_std[0] - np.std([5.0, 7.0, 6.0])) < 1e-3)
    interp = gp_fit([[0.0]], [1.0], KernelConfig(noise_variance=0.0)).predict([[0.0]])
    props_ok = props_ok and abs(interp[0][0] - 1.0) < 1e-6 and interp[1][0] <= 1e-6
    _report(capsys, 2, worst < 1e-8 and props_ok,
            f"max |GP - dense oracle| = {worst:.2e} over 100 datasets "
            f"(bound 1e-8); properties {'ok' if props_ok else 'FAILED'}")


def test_criterion_3_projection_equals_brute_force(capsys):
    rng = np.random.default_rng(301)
    mismatches = 0
    for _ in range(100):
        dims = int(rng.integers(1, 7))
        space = SearchSpace(tuple(
            make_grid(0.0, 1.0, int(rng.integers(2, 12)), name=f"d{d}")
            for d in range(dims)))
        history = History(space)
        for _ in range(int(rng.integers(1, 501))):
            indices = tuple(int(rng.integers(len(g))) for g in space.grids)
            history.record_evaluation(indices, float(rng.normal()))
        max_grid = max(len(g) for g in space.grids)
        table = ProjectionTable(dims, max_grid)
        table.update(history.records)
        brute = brute_force_projection(history.records, dims)
        minima, _ = dense_layout(brute, max_grid)
        observed_ok = all(
            np.array_equal(table.observed(d)[0], sorted(cells))
            and np.array_equal(table.observed(d)[1],
                               [cells[k][0] for k in sorted(cells)])
            for d, cells in enumerate(brute))
        if not (np.array_equal(table.minima, minima) and observed_ok):
            mismatches += 1
    _report(capsys, 3, mismatches == 0,
            f"{mismatches}/100 random histories disagreed with brute force")


def test_criterion_4_10d_ackley_convergence(capsys):
    score_best = []
    for seed in SEEDS:
        opt = _run_score(ackley_space(10), ackley, seed,
                         n_init=20, batch=1, max_evals=300)
        score_best.append(opt.history.best.value)
    bo_best = []
    for seed in SEEDS:
        opt = _run_bo(ackley_space(10), ackley, seed,
                      n_init=20, max_evals=300)
        bo_best.append(opt.history.best.value)
    score_median = statistics.median(score_best)
    bo_median = statistics.median(bo_best)
    under_two = sum(v < 2.0 for v in score_best)
    ok = score_median <= 1.0 and under_two >= 8 and bo_median > score_median
    _report(capsys, 4, ok,
            f"SCORE median {score_median:.3g} (<=1.0), {under_two}/10 seeds "
            f"< 2.0 (>=8), BO median {bo_median:.3g} (> SCORE median)")


def test_criterion_5_time_scaling(capsys):
    # SCORE: bounded per-iteration cost
    ratios = []
    for run in range(5):
        opt = ScoreOptimizer(space=ackley_space(5), objective=ackley,
                             seed=run)
        opt.initialize(10)
        times = []
        for _ in range(300):
            t0 = time.perf_counter()
            opt.step()
            times.append(time.perf_counter() - t0)
        ratios.append(times[299] / statistics.median(times[19:40]))
    score_ratio = statistics.median(ratios)

    # BO: superlinear per-iteration GP-fit cost
    opt = BoOptimizer(space=ackley_space(5), objective=ackley, seed=0)
    opt.initialize(10)
    sizes, fit_times = [], []
    for _ in range(300):
        sizes.append(len(opt.history))
        fit_times.append(opt.step().gp_fit_seconds)
    mask = np.array(sizes) >= 60
    slope = np.polyfit(np.log(np.array(sizes)[mask]),
                       np.log(np.array(fit_times)[mask]), 1)[0]
    ok = score_ratio <= 3.0 and slope > 1.5
    _report(capsys, 5, ok,
            f"SCORE iter-300/median(20-40) time ratio {score_ratio:.2f} "
            f"(<=3); BO log-log fit-time slope {slope:.2f} (>1.5)")


def bo_fit_time_slopes(bound: float) -> list[float]:
    """Log-log slopes of the median BO fit time over N = 300, 600, 1 200.

    Each reading times 11 fits at each N on BO-like 5-D rows, the sizes
    interleaved in alternating order, so that every N is timed on the same
    inputs under the same load; its slope is fitted through the three
    medians. A reading at or below ``bound`` is taken again, twice at most:
    load slows some fits, but does not make the factor cheaper.
    """
    rng = np.random.default_rng(501)
    sizes = (300, 600, 1200)
    indices = rng.integers(0, 61, (sizes[-1], 5))
    inputs = indices / 60.0
    targets = np.array([ackley(-5.0 + 0.25 * row) for row in indices])
    cfg = KernelConfig(lengthscale=JOINT_LENGTHSCALE, noise_variance=NOISE_VARIANCE)
    for _ in range(3):                # warm-up: the first large arrays map pages
        for n in sizes:
            gp_fit(inputs[:n], targets[:n], cfg)
    slopes = []
    while len(slopes) < 3 and not any(s > bound for s in slopes):
        times = {n: [] for n in sizes}
        for k in range(11):
            for n in sizes[::1 - 2 * (k % 2)]:
                t0 = time.perf_counter()
                gp_fit(inputs[:n], targets[:n], cfg)
                times[n].append(time.perf_counter() - t0)
        medians = [statistics.median(times[n]) for n in sizes]
        slopes.append(float(np.polyfit(np.log(sizes), np.log(medians), 1)[0]))
    return slopes


def test_bo_fit_time_grows_faster_than_n_squared_at_equal_work():
    # The BO half of criterion 5 without its in-loop timing, in a child
    # process on one BLAS thread: at these N the O(N^2) kernel and solves
    # are a large share of a fit, and a second thread shortens only the
    # factor, so in-process readings measured the thread pool as much as
    # the fit (2.16-2.29 on two threads, 2.36-2.51 on one). In the child the
    # slope read 2.41-2.57 over 24 readings, 12 each with one and with the
    # default BLAS threads outside, and 2.00-2.14 over 24 with the Cholesky
    # factor replaced by an O(N^2) stand-in (np.tril of the kernel). The
    # kernel alone, O(N^2) but past the caches at N = 1 200, reads above 2.5
    # from 600 to 1 200, so "above 2" would not tell the two apart.
    bound = 2.28
    code = ("import sys; sys.path[:0] = {!r}; import test_acceptance; "
            "print(test_acceptance.bo_fit_time_slopes({!r}))").format(
                [str(ROOT / "src"), str(ROOT / "tests")], bound)
    proc = subprocess.run([sys.executable, "-c", code], text=True, timeout=300,
                          env={**os.environ, **BLAS_ONE_THREAD},
                          capture_output=True, stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    slopes = json.loads(proc.stdout.strip().splitlines()[-1])
    assert max(slopes) > bound, f"BO fit-time slopes {slopes} (bound {bound})"


def _lines_without_evidence(opt: ScoreOptimizer) -> np.ndarray:
    moved = ~np.isnan(opt.lines.levels)
    moved[np.arange(opt.space.dims), opt.lines.anchor_array] = False
    return np.flatnonzero(~moved.any(axis=1))


def _saturated_score(records: int = 0, dims: int = 10) -> ScoreOptimizer:
    """Ackley at B=10 with every projection cell observed.

    A 61-tuple Latin design observes every grid value of every dimension,
    and steps to N = 300 give the lines their evidence; a line still
    without any (none at 10 dimensions) is given one move from the
    incumbent. Records past that, up to ``records``, are random tuples that
    move no line, so the line evidence is untouched, and that lie above the
    projection minimum at each of their cells, so no projection changes:
    the states built here at one ``dims`` hold the same surrogates and
    differ only in N.
    """
    space = ackley_space(dims)
    opt = ScoreOptimizer(space=space, objective=ackley, batch_size=10, seed=0)
    opt.initialize(20)
    for v in range(61):
        t = tuple((v + 7 * d) % 61 for d in range(space.dims))
        if t not in opt.history.evaluated:
            opt.history.evaluate(t)
    while opt.history.n_evaluations < 300:
        opt.step()
    a = opt.lines.anchor
    for d in _lines_without_evidence(opt).tolist():
        v = next(v for v in range(61) if a[:d] + (v,) + a[d + 1:] not in opt.history.evaluated)
        opt.history.evaluate(a[:d] + (v,) + a[d + 1:])
    rng = np.random.default_rng(1)
    rows = np.arange(space.dims)
    while len(opt.history) < records:
        t = tuple(rng.integers(0, 61, space.dims).tolist())
        if (t not in opt.history.evaluated and opt.lines.moved_dim(t) is None
                and np.all(ackley(space.point(t)) > opt.projections.minima[rows, t])):
            opt.history.evaluate(t)
    return opt


def test_score_step_time_is_flat_in_n_at_equal_work():
    # Criterion 5's SCORE half times late steps, most of which reuse their
    # line tables. Here every timed step does a step's whole work: all
    # projections are saturated, so none is inverted again, and the line
    # evidence's version is bumped before each step, so the line tables are
    # derived again (from the same evidence, to the same bits). The states
    # at N = 301 and N = 3 010 hold the same surrogates and take the same
    # batches, and their steps are interleaved in alternating order, so
    # host drift hits both alike. So SCORE's step costs at most what it
    # costs at saturation, whatever N.
    small = _saturated_score()
    large = _saturated_score(10 * len(small.history))
    assert np.isfinite(small.projections.minima).all()
    assert len(_lines_without_evidence(small)) == 0, "a line without evidence"
    assert small.projections.minima.tobytes() == large.projections.minima.tobytes()
    assert small.lines.levels.tobytes() == large.lines.levels.tobytes()
    sizes = len(small.history), len(large.history)
    times, batches = ([], []), [None, None]
    for k in range(30):
        for i, opt in list(enumerate((small, large)))[::1 - 2 * (k % 2)]:
            opt.lines.version += 1
            t0 = time.perf_counter()
            batches[i] = opt.step().batch
            times[i].append(time.perf_counter() - t0)
        assert batches[0] == batches[1]
    ratio = statistics.median(times[1]) / statistics.median(times[0])
    assert ratio <= 1.5, f"step time N={sizes[1]} / N={sizes[0]} = {ratio:.2f}"


def score_step_time_ratio_in_d() -> float:
    """Median SCORE step time at D = 400 over that at D = 100, equal work.

    Saturated Ackley states (B = 10, every line with evidence) at the two
    sizes; the line tables are derived again at every timed step, and the
    sizes are interleaved in alternating order, 20 steps each after 4
    warm-up pairs.
    """
    small, large = _saturated_score(dims=100), _saturated_score(dims=400)
    for opt in (small, large):
        assert np.isfinite(opt.projections.minima).all()
        assert len(_lines_without_evidence(opt)) == 0, "a line without evidence"
    times = ([], [])
    for k in range(24):
        for i, opt in list(enumerate((small, large)))[::1 - 2 * (k % 2)]:
            opt.lines.version += 1
            t0 = time.perf_counter()
            opt.step()
            if k >= 4:
                times[i].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[0])


def test_score_step_time_is_at_most_linear_in_d_at_equal_work():
    # The D axis of the cost claim. A step costs O(D * G^2) (the projection
    # pass's batched mat-vec over the (D, G, G) inverses) plus costs flat in
    # D, so the step-time ratio from D = 100 to D = 400 stays below the
    # linear factor 4, and the flat costs keep it well below. On one BLAS
    # thread it read 2.31-2.43 over 18 runs on a 2-core x86-64 VM (steps of
    # about 2.5 and 6 ms), so it is bounded at 3.0. Planted per step, a
    # pairwise numpy pass over the dimensions' score rows (O(D^2 * G)) read
    # 10.7-11.5 and a Python loop over the D^2 pairs of dimensions read
    # 3.62-3.74. Timed in a child on one BLAS thread: on two, 400-D steps
    # ran 15-22 ms and 100-D steps jumped between 2.6 and 6.6 ms, so the
    # ratio read 2.4-5.8 and timed the thread pool.
    code = ("import sys; sys.path[:0] = {!r}; import test_acceptance; "
            "print(test_acceptance.score_step_time_ratio_in_d())").format(
                [str(ROOT / "src"), str(ROOT / "tests")])
    proc = subprocess.run([sys.executable, "-c", code], text=True, timeout=300,
                          env={**os.environ, **BLAS_ONE_THREAD},
                          capture_output=True, stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    ratio = float(proc.stdout.strip().splitlines()[-1])
    assert ratio <= 3.0, f"step time D=400 / D=100 = {ratio:.2f}"


def test_criterion_6_batch_accounting(capsys):
    t0 = time.perf_counter()
    opt_b1 = _run_score(ackley_space(10), ackley, seed=0,
                        n_init=20, batch=1, max_evals=300)
    wall_b1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    opt_b10 = _run_score(ackley_space(10), ackley, seed=0,
                         n_init=20, batch=10, max_evals=300)
    wall_b10 = time.perf_counter() - t0
    ratio = opt_b1.gp_fit_count / opt_b10.gp_fit_count
    ok = ratio == 10.0 and wall_b10 < wall_b1
    _report(capsys, 6, ok,
            f"GP fits {opt_b1.gp_fit_count} (B=1) vs {opt_b10.gp_fit_count} "
            f"(B=10), ratio {ratio:.1f} (== 10.0); wall {wall_b1:.2f}s vs "
            f"{wall_b10:.2f}s (B=10 strictly lower)")


def test_criterion_7_200d_ackley(capsys):
    bests, walls = [], []
    for seed in SEEDS:
        t0 = time.perf_counter()
        opt = _run_score(ackley_space(200), ackley, seed,
                         n_init=50, batch=10, max_evals=500)
        walls.append(time.perf_counter() - t0)
        bests.append(opt.history.best.value)
    under_one = sum(v <= 1.0 for v in bests)
    ok = under_one >= 7 and max(walls) <= 600.0
    _report(capsys, 7, ok,
            f"{under_one}/10 seeds reached best <= 1.0 (need >=7); best "
            f"values median {statistics.median(bests):.2f}; max wall "
            f"{max(walls):.1f}s (<= 600s)")


def test_criterion_8_sdm_fitting(capsys, datasheet):
    space = sdm_space(datasheet)
    objective = sdm_objective(datasheet)
    threshold = 0.02
    finals, evals_to_threshold = [], []
    for seed in SEEDS:
        opt = ScoreOptimizer(space=space, objective=objective,
                             batch_size=1, seed=seed)
        opt.initialize(150)
        hit = (opt.history.n_evaluations
               if opt.history.best.value <= threshold else None)
        while opt.history.n_evaluations < 500:
            opt.step(max_batch=500 - opt.history.n_evaluations)
            if hit is None and opt.history.best.value <= threshold:
                hit = opt.history.n_evaluations
        finals.append(opt.history.best.value)
        evals_to_threshold.append(hit)
    hits = sum(v <= threshold for v in finals)
    reached = [e for e in evals_to_threshold if e is not None]
    _report(capsys, 8, hits >= 8,
            f"{hits}/10 seeds reached residual <= {threshold} within 500 "
            f"evals (need >=8); evals-to-threshold median "
            f"{statistics.median(reached) if reached else 'n/a'}, "
            f"per-seed {evals_to_threshold}")


def test_criterion_9_deterministic_csv(capsys, tmp_path):
    keep = [i for i, c in enumerate(CSV_COLUMNS)
            if c not in ("iter_time_ms", "cum_time_ms")]
    payloads = []
    for rep in range(2):
        config = RunConfig(method="score", problem="ackley", dims=5,
                           n_init=10, batch_size=2, max_evals=60, seed=11)
        trace = run_experiment(config)
        path = tmp_path / f"rep{rep}.csv"
        write_trace_csv(trace, path)
        payloads.append("\n".join(
            ",".join(line.split(",")[i] for i in keep)
            for line in path.read_text().splitlines()))
    ok = payloads[0] == payloads[1]
    _report(capsys, 9, ok,
            "repeated run produced byte-identical CSV after dropping the "
            "timing columns" if ok else "CSV payloads differ between runs")

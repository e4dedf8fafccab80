"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 6 is implemented exactly as stated and is expected to fail: on the
noiseless stiff 1D Laplacian race the recursion machinery's own
significant-progress veto makes the multilevel solver reduce to (at best) the
single-level one, so the required 1.2x cost advantage is not attainable; see
the repository notes for the measured analysis.
"""

import math
import time

import numpy as np
import pytest

import moffo
from moffo.bounds import (
    check_adagrad_rate,
    check_divergent_rate,
    lambert_bound_check,
    lambert_w_minus1,
    theory_constants,
)
from moffo.cli import write_trace_csv
from moffo.hierarchy import (
    TransferOperator,
    build_coherent_model,
    build_depth_prolongation,
    interior_interpolation_1d,
)
from moffo.problems import (
    ResNetSpec,
    finite_difference_check,
    laplacian_quadratic_1d,
    nonconvex_chain_1d,
    quadratic_diag,
    resnet_regression,
    with_minibatch,
)
from moffo.solver import SolverConfig, solve
from moffo.step import HessianModel, cauchy_step, compute_radius, taylor_step
from moffo.weights import init_lower_adagrad, init_lower_divergent


def _report(num, ok, detail=""):
    print("criterion %02d: %s %s" % (num, "PASS" if ok else "FAIL", detail))
    return ok


def _cost_when(res, target):
    for rec in res.trace.records:
        if rec.level == res.trace.r and rec.grad_norm <= target:
            return rec.cost_cum
    return None


def test_criterion_01_adagrad_equivalence(record_top_iterates):
    t0 = time.perf_counter()
    problem = quadratic_diag()
    cfg = SolverConfig(eps_top=1e-300, i_max_top=1000, mu=0.5, varsigma=0.01,
                       tau=1.0, step_scale=1.0)
    iterates = record_top_iterates(problem)
    solve(problem, cfg)
    # independently written momentum-less AdaGrad loop
    d = np.array([1.0, 2.0])
    x = np.array([3.0, -4.0])
    acc = np.zeros(2)
    refs = [x.copy()]
    for _ in range(1000):
        g = d * x
        acc += g * g
        x = x - g / np.sqrt(0.01 + acc)
        refs.append(x.copy())
    worst = 0.0
    for mine, ref in zip(iterates, refs):
        worst = max(worst, float(np.max(np.abs(mine - ref) / np.maximum(1e-300, np.abs(ref)))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert _report(1, ok, "max rel diff %.2e, %.2fs" % (worst, elapsed))


def test_criterion_02_adagrad_rate_bound():
    ratios = {}
    quad = quadratic_diag()
    lap = laplacian_quadratic_1d(n_fine=31, levels=3)
    for mu in (0.1, 0.5, 0.9):
        for tag, problem in (("r1", quad), ("r3", lap)):
            t0 = time.perf_counter()
            cfg = SolverConfig(eps_top=1e-300, i_max_top=10_000, mu=mu)
            res = solve(problem, cfg)
            tc = theory_constants(problem, cfg)
            rep = check_adagrad_rate(res.trace, tc.kappa_star)
            elapsed = time.perf_counter() - t0
            ratios[(mu, tag)] = (rep.max_ratio, rep.status, elapsed)
    ok = all(st == "pass" and el < 10.0 for _, st, el in ratios.values())
    worst = max(r for r, _, _ in ratios.values())
    assert _report(2, ok, "max ratio %.3e over %d configs" % (worst, len(ratios)))
    for (mu, tag), (ratio, status, _) in ratios.items():
        assert status == "pass", "mu=%g %s violated the proved bound" % (mu, tag)


def test_criterion_03_divergent_rate_diagnostic():
    problem = quadratic_diag()
    cfg = SolverConfig(weight_kind="maxgi", mu=0.1, nu=0.1, eps_top=1e-300,
                       i_max_top=100_000)
    tc = theory_constants(problem, cfg)
    res = solve(problem, cfg)
    rep = check_divergent_rate(res.trace, (tc.i_theta, tc.i_sigma, tc.kappa_diamond),
                               cfg.mu)
    # the trace is capped at 1e5; an off-the-chart i_sigma makes the
    # diagnostic inconclusive, which the criterion allows
    ok = rep.status == "pass" and rep.max_ratio <= 1.0 or (
        rep.status == "inconclusive" and tc.i_sigma > 2 * len(res.trace))
    assert _report(3, ok, "status %s (i_sigma = %.3g)" % (rep.status, tc.i_sigma))


def test_criterion_04_structural_invariants_fuzz():
    rng = np.random.default_rng(2024)
    violations = 0

    # (a) Taylor machinery: box, fractional decrease, decrease lemma, step norm
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
        varsigma = rng.uniform(0.01, 1.0)
        w = np.maximum(varsigma, rng.uniform(0.0, 4.0, n))
        kappa_B = rng.uniform(1.0, 4.0)
        B = HessianModel.diagonal(rng.uniform(-kappa_B, kappa_B, n), kappa_B=kappa_B)
        tau = rng.uniform(0.05, 1.0)
        tr = compute_radius(w, np.abs(g), w.min(), True, np.inf, 0.0)
        s = taylor_step(g, tr.delta, B, tau)
        sQ = cauchy_step(g, tr.delta, B)
        mq = B.model(g, sQ)
        dec = float(np.sum(g * g / w))
        bound = -(tau * varsigma / (2 * kappa_B)) * dec + 0.5 * kappa_B * tr.delta_norm ** 2
        if not (np.all(np.abs(s) <= tr.delta * (1 + 1e-12) + 1e-300)
                and B.model(g, s) <= tau * mq + 1e-10 * (1 + abs(mq))
                and float(g @ s) <= bound + 1e-9 * (1 + abs(bound))
                and np.linalg.norm(s) <= 1.0 * tr.delta_hat_norm * (1 + 1e-12)):
            violations += 1

    # (b) lower-level weight initializations: budget + coupling conditions
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        vs = rng.uniform(0.005, 1.0, n)
        p_norm = rng.uniform(0.2, 4.0)
        rg = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        alpha = rng.uniform(1.0, 30.0)
        dnorm = 10.0 ** rng.uniform(-6, 3)
        w_up = rng.uniform(vs.min(), 10.0, int(rng.integers(1, 9)))
        wd = init_lower_divergent(vs, p_norm, rg, alpha, dnorm, float(w_up.min()))
        wa = init_lower_adagrad(vs, p_norm, rg, alpha, dnorm, float(np.linalg.norm(w_up)))
        budget = alpha * dnorm / p_norm * (1 + 1e-12)
        if not (np.linalg.norm(np.abs(rg) / wd) <= budget
                and np.linalg.norm(np.abs(rg) / wa) <= budget
                and wd.min() >= float(w_up.min()) - 1e-15
                and np.linalg.norm(wa) >= np.linalg.norm(w_up) * (1 - 1e-12)):
            violations += 1

    # (c) total-step cap: any admissible step obeys ||P s|| <= 2 delta
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
        w = rng.uniform(0.01, 3.0, n)
        delta_cap = 10.0 ** rng.uniform(-3, 2)
        p_norm = rng.uniform(0.2, 3.0)
        tr = compute_radius(w, np.abs(g), w.min(), False, delta_cap, p_norm)
        s = rng.uniform(-1.0, 1.0, n) * tr.delta
        if not p_norm * np.linalg.norm(s) <= 2.0 * delta_cap * (1 + 1e-12):
            violations += 1

    # (d) coherence identity at the lower entry point
    for _ in range(10_000):
        n_c = int(rng.integers(1, 5))
        n_f = n_c + int(rng.integers(1, 5))
        op = TransferOperator(rng.standard_normal((n_f, n_c)), rng.uniform(0.2, 2.0))
        M = rng.standard_normal((n_c, n_c))
        lower = lambda y, M=M: M @ y + 1.0
        x_low0 = rng.standard_normal(n_c)
        g_up = rng.standard_normal(n_f) * 10.0 ** rng.uniform(-2, 2)
        rg = op.restrict(g_up)
        model = build_coherent_model(lower, x_low0, rg)
        if not np.linalg.norm(model.grad(x_low0) - rg) <= 1e-12 * (1 + np.linalg.norm(rg)):
            violations += 1

    assert _report(4, violations == 0, "%d violations over 4x10^4 cases" % violations)
    assert violations == 0


def test_criterion_05_linear_coherence_identity():
    ops = [build_depth_prolongation(2), build_depth_prolongation(9),
           interior_interpolation_1d(3)]
    lap = laplacian_quadratic_1d(n_fine=255, levels=3)
    ops += lap.hierarchy.operators
    ops += nonconvex_chain_1d(n_fine=63, levels=3).hierarchy.operators
    ops += resnet_regression(ResNetSpec(width=4, k_coarse=3, levels=3, n_in=3,
                                        n_out=2), n_samples=16).hierarchy.operators
    rng = np.random.default_rng(55)
    worst = 0.0
    for op in ops:
        G = rng.standard_normal((1000, op.n_fine))
        S = rng.standard_normal((1000, op.n_coarse))
        lhs = np.sum(G * (S @ op.P.T), axis=1)
        rhs = np.sum((G @ (op.omega * op.P.T).T) * S, axis=1) / op.omega
        rel = np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs)))
        worst = max(worst, float(rel))
    ok = worst <= 1e-10
    assert _report(5, ok, "worst relative defect %.2e over %d operators" % (worst, len(ops)))


def test_criterion_06_multilevel_benefit():
    # As stated: noiseless 255-point Laplacian, 3 levels, AdaGrad-like
    # mu = 1/2, shared tuned step scale; multilevel must reach the target at
    # <= single-level cost / 1.2.  Expected to fail: every recursion attempt
    # is vetoed, so the multilevel run ties single level.  The vetoes come
    # from how step_scale enters the lower-level weights, not from the
    # problem: the veto's left side, sum(Rg**2 / w_low), scales with
    # step_scale and its right side does not, and over the first 100
    # attempts their median ratio is 0.58 here against 23.3 at step_scale 1
    # (see README).
    t0 = time.perf_counter()
    problem = laplacian_quadratic_1d(n_fine=255, levels=3)
    g0 = float(np.linalg.norm(problem.exact_grad(3, problem.x0)))
    target = 1e-3 * g0
    scale = 0.003
    res1 = solve(problem.single_level(),
                 SolverConfig(eps_top=target, i_max_top=40_000, mu=0.5, step_scale=scale))
    c1 = _cost_when(res1, target)
    res3 = solve(problem,
                 SolverConfig(eps_top=target, i_max_top=40_000, mu=0.5, step_scale=scale))
    c3 = _cost_when(res3, target)
    elapsed = time.perf_counter() - t0
    ok = (c1 is not None and c3 is not None and c3 <= c1 / 1.2 and elapsed < 30.0)
    _report(6, ok, "cost r3 %s vs r1 %s (ratio %s), %.1fs"
            % (c3, c1, None if not (c1 and c3) else round(c3 / c1, 3), elapsed))
    assert c1 is not None and c3 is not None, "a run failed to reach the target"
    assert c3 <= c1 / 1.2, (
        "multilevel cost %.1f exceeds single-level cost %.1f / 1.2" % (c3, c1))


def test_criterion_07_noise_robustness(record_top_iterates):
    base = laplacian_quadratic_1d(n_fine=255, levels=3, dataset_size=40,
                                  noise_scale=0.01)
    g0 = float(np.linalg.norm(base.exact_grad(3, base.x0)))
    target = 1e-2 * g0
    scale = 0.003
    costs1, costs3 = [], []
    cfg = SolverConfig(eps_top=1e-300, i_max_top=30_000, mu=0.5, step_scale=scale)
    every = 25  # the exact gradient is read at every 25th top iterate
    for seed in range(10):
        for out, problem in ((costs1, with_minibatch(base, 0.25, seed=seed).single_level()),
                             (costs3, with_minibatch(base, 0.25, seed=seed))):
            iterates = record_top_iterates(problem, every=every)
            res = solve(problem, cfg)
            costs = [r.cost_cum for r in res.trace.records if r.level == res.trace.r]
            found = math.inf
            exact = np.array([np.linalg.norm(base.exact_grad(3, x)) for x in iterates])
            hits = np.nonzero(exact <= target)[0]
            if hits.size:
                found = costs[min(int(hits[0]) * every, len(costs) - 1)]
            out.append(found)
    med1, med3 = float(np.median(costs1)), float(np.median(costs3))
    ok = math.isfinite(med1) and math.isfinite(med3) and med3 <= med1
    assert _report(7, ok, "median cost r3 %.1f vs r1 %.1f" % (med3, med1))


def test_criterion_08_lambert_branch():
    ok = abs(lambert_w_minus1(-math.exp(-1.0)) + 1.0) <= 1e-8
    worst_resid = 0.0
    for x in -np.logspace(np.log10(1e-8), np.log10(1 / math.e - 1e-12), 100):
        w = lambert_w_minus1(float(x))
        worst_resid = max(worst_resid, abs(w * math.exp(w) - x) / abs(x))
    ok = ok and worst_resid <= 1e-12
    rng = np.random.default_rng(8)
    ok = ok and all(lambert_bound_check(float(x)) for x in rng.uniform(1e-9, 50.0, 100))
    assert _report(8, ok, "worst residual %.2e" % worst_resid)


def test_criterion_09_gradient_correctness():
    t0 = time.perf_counter()
    cases = [
        (quadratic_diag(), 1e-3, 1e-9),
        (laplacian_quadratic_1d(n_fine=31, levels=3), 1e-3, 1e-9),
        (nonconvex_chain_1d(n_fine=31, levels=3), 1e-5, 1e-6),
        (resnet_regression(ResNetSpec(width=4, k_coarse=3, levels=2, n_in=3,
                                      n_out=2), n_samples=32), 1e-5, 1e-5),
    ]
    worst_by = {}
    ok = True
    for problem, h, threshold in cases:
        worst = 0.0
        for level in range(1, problem.hierarchy.r + 1):
            worst = max(worst, finite_difference_check(problem, level=level, h=h,
                                                       seed=level))
        worst_by[problem.name] = worst
        ok = ok and worst <= threshold
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 20.0
    assert _report(9, ok, "%s, %.1fs" %
                   ({k: "%.1e" % v for k, v in worst_by.items()}, elapsed))


def test_criterion_10_offo_contract(tmp_path):
    configs = [
        ("c1", quadratic_diag(),
         SolverConfig(eps_top=1e-300, i_max_top=1000, mu=0.5)),
        ("c2", laplacian_quadratic_1d(n_fine=31, levels=3),
         SolverConfig(eps_top=1e-300, i_max_top=500, mu=0.5)),
        ("c6", laplacian_quadratic_1d(n_fine=255, levels=3),
         SolverConfig(eps_top=1e-300, i_max_top=400, mu=0.5, step_scale=0.003)),
    ]
    ok = True
    for tag, problem, cfg in configs:
        res_with = solve(problem, cfg)
        res_without = solve(problem.strip_values(), cfg)
        a, b = tmp_path / (tag + "_with.csv"), tmp_path / (tag + "_without.csv")
        write_trace_csv(res_with.trace, a)
        write_trace_csv(res_without.trace, b)
        ok = ok and a.read_bytes() == b.read_bytes()
        # diagnostics on: every non-diagnostic column still byte-identical
        cfg_diag = SolverConfig(**{**cfg.__dict__, "diag_values": True})
        res_diag = solve(problem, cfg_diag)
        c = tmp_path / (tag + "_diag.csv")
        write_trace_csv(res_diag.trace, c)
        stripped = ["\n".join(",".join(line.split(",")[:10]) for line in
                    p.read_text().splitlines()) for p in (c, b)]
        ok = ok and stripped[0] == stripped[1]
    assert _report(10, ok, "byte-identical traces with the value oracle disabled")

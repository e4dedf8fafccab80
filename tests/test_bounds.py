"""Complexity constants, Lambert branch, and rate checkers."""

import math

import numpy as np
import pytest

from moffo.bounds import (
    beta_recursion,
    check_adagrad_rate,
    check_divergent_rate,
    divergent_thresholds,
    kappa_star,
    lambert_bound_check,
    lambert_w_minus1,
    psi_constant,
    theory_constants,
)
from moffo.hierarchy import Level, LevelHierarchy, TransferOperator
from moffo.problems import ProblemHierarchy, laplacian_quadratic_1d, quadratic_diag
from moffo.solver import SolverConfig, Trace


def _fake_trace(gnorms, r=1):
    tr = Trace(r)
    for i, gn in enumerate(gnorms):
        tr.add(r, i, "taylor", float(gn), 0.0, 0.0, 0.0, None, None, 0.0)
    return tr


def test_beta_recursion_base_and_one_step():
    b1, b2 = beta_recursion(1, 1.0, 0.01, 1.0, 0.01, 0.5, 5.0, 2.0, [10], [])
    assert b1 == [0.005]
    assert b2 == [1.0]
    b1, b2 = beta_recursion(2, 1.0, 0.01, 1.0, 0.01, 0.5, 5.0, 2.0, [10, 100], [1.0])
    assert b1[1] == pytest.approx(5e-5)
    assert b2[1] == pytest.approx(max(1.0, 2 * 25.0 * 10 * 3.0 / 1.0))


def test_beta_recursion_monotonicity():
    b1, b2 = beta_recursion(4, 0.7, 0.3, 1.5, 0.2, 0.5, 2.0, 7.0,
                            [5, 5, 5, 50], [0.9, 1.1, 1.3])
    assert all(x > y for x, y in zip(b1, b1[1:]))  # beta1 strictly decreasing
    assert all(x <= y for x, y in zip(b2, b2[1:]))  # beta2 nondecreasing
    assert b2[0] == 1.5


def test_lambert_branch_point():
    assert lambert_w_minus1(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-8)


def test_lambert_reference_value():
    # bisection oracle for w exp(w) = -0.1 on (-inf, -1]
    lo, hi = -10.0, -1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) >= -0.1:
            lo = mid
        else:
            hi = mid
    ref = lo
    assert ref == pytest.approx(-3.577152, abs=1e-6)
    assert lambert_w_minus1(-0.1) == pytest.approx(ref, abs=1e-9)


def test_lambert_residuals_log_spaced():
    for x in -np.logspace(np.log10(1e-8), np.log10(1 / math.e - 1e-12), 100):
        w = lambert_w_minus1(float(x))
        assert w <= -1.0 + 1e-12
        assert abs(w * math.exp(w) - x) <= 1e-12 * abs(x)


def test_lambert_monotone_decreasing():
    xs = -np.logspace(-6, np.log10(1 / math.e - 1e-9), 50)[::-1]  # increasing x
    ws = [lambert_w_minus1(float(x)) for x in xs]
    assert all(a >= b for a, b in zip(ws, ws[1:]))


def test_lambert_domain_errors():
    with pytest.raises(ValueError):
        lambert_w_minus1(0.0)
    with pytest.raises(ValueError):
        lambert_w_minus1(-1.0)


def test_lambert_bound_inequality():
    assert abs(lambert_w_minus1(-math.exp(-2.0))) == pytest.approx(3.146193, abs=1e-5)
    assert lambert_bound_check(1.0)
    rng = np.random.default_rng(1)
    for x in rng.uniform(1e-6, 50.0, 100):
        assert lambert_bound_check(float(x))


def test_kappa_star_floor_case():
    # all variable arguments tiny: the floor wins
    val = kappa_star(0.25, 0.9, 1, 1e-12, 0.0, 1e9, 1e-12)
    assert val == pytest.approx(0.9)


def test_kappa_star_mu_half_term_by_term():
    mu, vs, n, L, b1, b2, g0 = 0.5, 1.0, 2, 2.0, 0.005, 1.0, 12.5
    head = n * (b2 + 0.5 * L)
    psi = 4.0 * max(1.5 * b1, head) / (b1 * math.sqrt(vs))
    w = lambert_w_minus1(-1.0 / psi)
    expected = max(vs, 0.5 * math.exp(2 * g0 / head), 0.5 * vs * psi ** 2 * w ** 2)
    assert psi == pytest.approx(psi_constant(vs, n, L, b1, b2))
    assert kappa_star(mu, vs, n, g0, L, b1, b2) == pytest.approx(expected, rel=1e-12)


def test_kappa_star_high_mu_exponent():
    # mu = 0.75: the bracketed term is raised to 1/(1 - mu) = 4
    val = kappa_star(0.75, 1.0, 1, 1.0, 0.0, 1.0, 1.0)
    base = 2.0 ** 0.75 * (1.0 + 1.0 * (1.0 + 0.0) * 1.0 / 0.5)
    assert val == pytest.approx(max(1.0, base ** 4.0), rel=1e-12)


def test_kappa_star_low_mu_term_by_term():
    mu, vs, n, L, b1, b2, g0 = 0.1, 0.01, 3, 2.0, 0.005, 1.0, 7.0
    head = n * (b2 + 0.5 * L)
    expected = max(vs,
                   (4 * head / (b1 * (1 - 2 * mu))) ** (1 / mu),
                   0.5 * ((1 - 2 * mu) * g0 / head) ** (1 / (1 - 2 * mu)))
    assert kappa_star(mu, vs, n, g0, L, b1, b2) == pytest.approx(expected, rel=1e-12)


def test_kappa_star_monotonicity_perturbations():
    base = dict(mu=0.5, varsigma=0.5, n=4, Gamma0=3.0, L=2.0, beta1r=0.004, beta2r=1.5)
    k0 = kappa_star(base["mu"], base["varsigma"], base["n"], base["Gamma0"],
                    base["L"], base["beta1r"], base["beta2r"])
    # nonincreasing in beta1r, nondecreasing in Gamma0, n, L
    assert kappa_star(0.5, 0.5, 4, 3.0, 2.0, 0.004 * 1.1, 1.5) <= k0 + 1e-12
    assert kappa_star(0.5, 0.5, 4, 3.3, 2.0, 0.004, 1.5) >= k0 - 1e-12
    assert kappa_star(0.5, 0.5, 5, 3.0, 2.0, 0.004, 1.5) >= k0 - 1e-12
    assert kappa_star(0.5, 0.5, 4, 3.0, 2.2, 0.004, 1.5) >= k0 - 1e-12


def test_kappa_star_rejects_bad_mu():
    with pytest.raises(ValueError):
        kappa_star(1.0, 0.1, 1, 1.0, 1.0, 0.01, 1.0)


def test_divergent_thresholds_balanced_case():
    # nu = 1 and rho = varsigma (beta1 - vartheta) gives i_theta = 0
    b1 = 2.0
    vartheta = 1.0
    vs = 1.0
    # rho = beta2 + alpha^2 L / 2 = 1 requires beta2 = 1, L = 0
    i_t, i_s, kd = divergent_thresholds(vartheta, 0.5, 1.0, vs, 1, 1.0, 0.0,
                                        b1, 1.0, 0.0)
    assert i_t == pytest.approx(0.0)
    assert kd == pytest.approx(2.0 / vartheta * (0.0 + 1 * 1.0 * 1.0))
    assert i_s == pytest.approx((2.0 * 1.0 * kd / vs) ** 2.0)


def test_divergent_thresholds_term_by_term():
    vartheta, mu, nu, vs, n, alpha, L = 0.002, 0.1, 0.1, 0.01, 2, 1.0, 2.0
    b1, b2, g0 = 0.005, 1.0, 12.5
    i_t, i_s, kd = divergent_thresholds(vartheta, mu, nu, vs, n, alpha, L, b1, b2, g0)
    rho = b2 + 0.5 * alpha ** 2 * L
    assert i_t == pytest.approx((rho / (vs * (b1 - vartheta))) ** 10.0 - 1.0, rel=1e-12)
    count = math.floor(i_t) + 1
    assert kd == pytest.approx(2.0 / vartheta * (g0 + n * rho * count), rel=1e-12)
    # i_sigma may overflow to inf for these exponents; accept either form
    expected = (2.0 * (i_t + 1.0) * kd / vs)
    assert i_s == pytest.approx(expected ** (1 / 0.9), rel=1e-9) or math.isinf(i_s)


def test_divergent_thresholds_guard():
    with pytest.raises(ValueError):
        divergent_thresholds(0.005, 0.1, 0.1, 0.01, 1, 1.0, 0.0, 0.005, 1.0, 1.0)


def test_theory_constants_rejects_infinite_kappa_B():
    # beta_recursion divides by kappa_B, so it must be finite
    with pytest.raises(ValueError, match="kappa_B"):
        theory_constants(quadratic_diag(), SolverConfig(kappa_B=math.inf))


def _two_level_quadratic(P):
    P = np.asarray(P, dtype=float)
    levels = [Level(n, lambda x: x.copy(), lambda x: 0.5 * float(x @ x)) for n in P.shape[::-1]]
    hier = LevelHierarchy(levels, [TransferOperator(P, 0.5)])
    return ProblemHierarchy("hand-built", hier, np.ones(P.shape[0]), exact_L=1.0, f_low=0.0)


@pytest.mark.parametrize("P", [np.zeros((4, 2)), [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
                               [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [0.0, 0.0]], np.ones((2, 4))],
                         ids=["zero", "rank-1", "rank-1-scaled", "wide"])
def test_theory_constants_rejects_an_operator_without_full_column_rank(P):
    with pytest.raises(ValueError, match="operator into level 2 has sigma_min .*full column rank"):
        theory_constants(_two_level_quadratic(P), SolverConfig())


def test_theory_constants_accepts_a_full_rank_hand_built_operator():
    tc = theory_constants(_two_level_quadratic([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.0, 0.0]]),
                          SolverConfig())
    assert tc.sigma_min == [pytest.approx(np.linalg.svd([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
                                                        compute_uv=False)[-1])]
    assert all(math.isfinite(b) for b in tc.beta2)


def test_check_adagrad_rate_trivial_and_violation():
    rep = check_adagrad_rate(_fake_trace([0.0, 0.0]), 1.0)
    assert rep.status == "pass" and rep.max_ratio == 0.0
    rep2 = check_adagrad_rate(_fake_trace([3.0]), 1.0)
    assert rep2.status == "fail" and rep2.max_ratio == pytest.approx(9.0)


def test_check_divergent_rate_synthetic():
    # contrived thresholds exercising the ratio arithmetic
    thresholds = (2.0, 5.0, 10.0)
    mu = 0.5
    gnorms = np.full(40, 3.0)
    gnorms[20:] = 0.0
    rep = check_divergent_rate(_fake_trace(gnorms), thresholds, mu)
    assert rep.status == "pass" and rep.max_ratio == 0.0
    short = check_divergent_rate(_fake_trace([1.0, 1.0]), thresholds, mu)
    assert short.status == "inconclusive"
    big = check_divergent_rate(_fake_trace(np.full(40, 100.0)), thresholds, mu)
    assert big.status == "fail"
    inf_case = check_divergent_rate(_fake_trace(np.ones(5)), (1.0, math.inf, 1.0), mu)
    assert inf_case.status == "inconclusive"


def test_laplacian_lipschitz_matches_eig_oracle():
    problem = laplacian_quadratic_1d(n_fine=3, levels=1)
    h = 0.25
    A = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]) / h ** 2
    lam_max = np.linalg.eigvalsh(A)[-1]
    assert problem.exact_L == pytest.approx(lam_max, rel=1e-12)
    assert problem.exact_L == pytest.approx(16.0 * (2.0 + math.sqrt(2.0)), rel=1e-12)

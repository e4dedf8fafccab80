"""Worst-case complexity constants and convergence-rate trace checks.

The constants are evaluated from problem data (Lipschitz constant, initial
gap, operator spectra, solver parameters) through a per-level recursion.
Two checkers confront solver traces with the predicted rates: the
AdaGrad-weight rate is an unconditional bound on the running sum of squared
top-level gradient norms, asserted exactly; the divergent-weight rate only
promises a subsequence, so its check is a min-ratio diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .weights import ADAGRAD_LIKE

__all__ = [
    "TheoryConstants",
    "beta_recursion",
    "lambert_w_minus1",
    "lambert_bound_check",
    "kappa_star",
    "psi_constant",
    "divergent_thresholds",
    "RateReport",
    "check_adagrad_rate",
    "check_divergent_rate",
    "theory_constants",
]


def beta_recursion(r, tau, varsigma_min, kappa_B, kappa_R, omega, alpha, L,
                   i_max, sigma_min_list):
    """Per-level decrease/growth constants.

    Level 1 seeds beta1 = tau * varsigma_min / (2 kappa_B) and beta2 =
    kappa_B; each higher level shrinks beta1 by kappa_R / max(omega, 1) and
    grows beta2 through the lower level's iteration budget and the coupling
    operator's smallest singular value.  i_max lists budgets for levels
    1..r; sigma_min_list gives the smallest singular values of the
    operators linking levels 1-2, ..., (r-1)-r.
    """
    if r < 1:
        raise ValueError("need at least one level")
    if len(sigma_min_list) != r - 1:
        raise ValueError("expected %d sigma_min values, got %d" % (r - 1, len(sigma_min_list)))
    if len(i_max) < r - 1:
        raise ValueError("need budgets for levels 1..r-1 at least")
    beta1 = [tau * varsigma_min / (2.0 * kappa_B)]
    beta2 = [float(kappa_B)]
    m = max(omega, 1.0)
    for l in range(1, r):
        beta1.append(kappa_R / m * beta1[-1])
        growth = (2.0 * alpha ** 2 * i_max[l - 1] * (beta2[-1] + L)
                  / (m * sigma_min_list[l - 1] ** 2))
        beta2.append(max(beta2[-1], growth))
    return beta1, beta2


_BRANCH_POINT = -math.exp(-1.0)


def _wexp(w):
    return w * math.exp(w)


def lambert_w_minus1(x):
    """Second real branch of w * exp(w) = x on [-1/e, 0).

    Halley iteration from the asymptotic guess log(-x) - log(-log(-x)),
    guarded by a bisection bracket; near the branch point a series start is
    used.  The residual |w e^w - x| is driven below 1e-13 |x|.
    """
    x = float(x)
    if x >= 0.0 or x < _BRANCH_POINT * (1.0 + 1e-12):
        raise ValueError("lambert_w_minus1 requires -1/e <= x < 0, got %.17g" % x)
    p = 1.0 + math.e * x  # distance from the branch point
    if p <= 0.0:
        return -1.0
    if p < 1e-8:
        q = -math.sqrt(2.0 * p)
        return -1.0 + q - q * q / 3.0 + 11.0 * q ** 3 / 72.0
    # w e^w decreases from -1/e to 0 as w runs from -1 to -inf, so the
    # bracket [lo, hi] keeps wexp(lo) >= x >= wexp(hi) with lo <= root <= hi.
    hi = -1.0
    w = math.log(-x) - math.log(-math.log(-x))
    lo = min(w, -1.0) - 1.0
    while _wexp(lo) < x:
        lo *= 2.0
    tol = 1e-13 * abs(x)
    if not lo <= w <= hi:
        w = 0.5 * (lo + hi)
    for _ in range(200):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            return w
        if f >= 0.0:
            lo = max(lo, w)
        else:
            hi = min(hi, w)
        fp = ew * (w + 1.0)
        fpp = ew * (w + 2.0)
        denom = 2.0 * fp * fp - f * fpp
        w_next = w - 2.0 * f * fp / denom if denom != 0.0 else w
        if not lo < w_next < hi or w_next == w:
            w_next = 0.5 * (lo + hi)
        w = w_next
    return w


def lambert_bound_check(x):
    """Explicit-bound inequality |W_-1(-e^{-x-1})| <= 1 + sqrt(2x) + x for x > 0."""
    if not x > 0.0:
        raise ValueError("x must be positive")
    w = lambert_w_minus1(-math.exp(-x - 1.0))
    return abs(w) <= 1.0 + math.sqrt(2.0 * x) + x


def psi_constant(varsigma, n, L, beta1r, beta2r):
    """Logarithmic-regime constant entering the mu = 1/2 rate."""
    return 4.0 * max(1.5 * beta1r, n * (beta2r + 0.5 * L)) / (beta1r * math.sqrt(varsigma))


def kappa_star(mu, varsigma, n, Gamma0, L, beta1r, beta2r):
    """Rate constant for the AdaGrad-like weight family, by exponent regime."""
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    head = n * (beta2r + 0.5 * L)
    if mu < 0.5:
        return max(
            varsigma,
            (4.0 * head / (beta1r * (1.0 - 2.0 * mu))) ** (1.0 / mu),
            0.5 * ((1.0 - 2.0 * mu) * Gamma0 / head) ** (1.0 / (1.0 - 2.0 * mu)),
        )
    if mu == 0.5:
        psi = psi_constant(varsigma, n, L, beta1r, beta2r)
        w = lambert_w_minus1(-1.0 / psi)
        return max(
            varsigma,
            0.5 * math.exp(2.0 * Gamma0 / head),
            0.5 * varsigma * psi ** 2 * w ** 2,
        )
    return max(
        varsigma,
        (2.0 ** mu / beta1r * (Gamma0 + n * (beta2r + L) * varsigma ** (1.0 - 2.0 * mu)
                               / (2.0 * mu - 1.0))) ** (1.0 / (1.0 - mu)),
    )


def divergent_thresholds(vartheta, mu, nu, varsigma_min, n, alpha, L,
                         beta1r, beta2r, Gamma0):
    """Burn-in indices and rate constant for the divergent weight family.

    Returns (i_theta, i_sigma, kappa_diamond).  vartheta must stay strictly
    inside (0, beta1r); the sequence a_i is the constant 1 of the running-max
    update rule, so its burn-in sum of squares is the burn-in count.
    """
    if not (0.0 < vartheta and vartheta < beta1r - 1e-9 * beta1r):
        raise ValueError("vartheta must lie strictly inside (0, beta1r)")
    rho = beta2r + 0.5 * alpha ** 2 * L
    i_theta = (rho / (varsigma_min * (beta1r - vartheta))) ** (1.0 / nu) - 1.0
    a_sum = float(max(0, math.floor(i_theta) + 1))
    kappa_diamond = (2.0 / vartheta) * (Gamma0 + n * rho * a_sum)
    base = 2.0 * (i_theta + 1.0) * kappa_diamond / varsigma_min
    try:
        i_sigma = base ** (1.0 / (1.0 - mu))
    except OverflowError:
        i_sigma = math.inf
    return i_theta, i_sigma, kappa_diamond


@dataclass
class RateReport:
    name: str
    status: str           # "pass" | "fail" | "inconclusive"
    max_ratio: float | None
    detail: str = ""

    def as_dict(self):
        return {"status": self.status, "max_ratio": self.max_ratio, "detail": self.detail}


def check_adagrad_rate(trace, kappa_star_value):
    """Assert the running sum of squared top gradients never exceeds kappa*.

    This is an unconditional bound, so any violation is a failure; the
    maximum prefix-sum-to-constant ratio is reported.
    """
    gnorms = trace.top_grad_norms()
    if gnorms.size == 0:
        return RateReport("rate_adag", "inconclusive", None, "empty trace")
    sums = np.cumsum(gnorms ** 2)
    max_ratio = float(sums[-1] / kappa_star_value)
    status = "pass" if max_ratio <= 1.0 else "fail"
    return RateReport("rate_adag", status, max_ratio,
                      "largest prefix sum of ||g||^2 against kappa*")


def check_divergent_rate(trace, thresholds, mu):
    """Min-ratio diagnostic for the subsequence rate of divergent weights.

    thresholds is the (i_theta, i_sigma, kappa_diamond) triple.  For each
    index i past both burn-in points, the best squared gradient norm over
    (i_sigma, i] is compared with kappa_diamond (i+1)^mu / (i - i_theta);
    the theory promises the minimum such ratio is eventually <= 1.  A trace
    that does not reach past i_sigma is inconclusive.
    """
    i_theta, i_sigma, kappa_diamond = thresholds
    gnorms = trace.top_grad_norms()
    last = gnorms.size - 1
    if not (math.isfinite(i_theta) and math.isfinite(i_sigma)):
        return RateReport("rate_divs", "inconclusive", None, "burn-in indices not finite")
    k0 = math.floor(i_sigma) + 1            # first index inside (i_sigma, ...]
    lo = max(k0, math.floor(i_theta) + 1)   # also need i > i_theta
    if last < lo:
        return RateReport("rate_divs", "inconclusive", None,
                          "trace of length %d does not reach i_sigma = %.6g"
                          % (gnorms.size, i_sigma))
    sq = gnorms ** 2
    running_best = np.minimum.accumulate(sq[k0:])
    idx = np.arange(lo, last + 1)
    best = running_best[idx - k0]
    ratios = best * (idx - i_theta) / (kappa_diamond * (idx + 1.0) ** mu)
    min_ratio = float(np.min(ratios))
    status = "pass" if min_ratio <= 1.0 else "fail"
    return RateReport("rate_divs", status, min_ratio, "min-ratio statistic")


@dataclass
class TheoryConstants:
    """Everything the rate checks need, bundled for reports."""

    r: int
    n: int
    L: float
    Gamma0: float
    tau: float
    varsigma_min: float
    kappa_B: float
    kappa_R: float
    alpha: float
    omega: float
    mu: float
    nu: float
    i_max: list
    sigma_min: list
    beta1: list
    beta2: list
    kappa_star: float | None = None
    psi: float | None = None
    i_theta: float | None = None
    i_sigma: float | None = None
    kappa_diamond: float | None = None

    def as_dict(self):
        d = asdict(self)
        d["i_max"] = [int(v) for v in self.i_max]
        for key in ("sigma_min", "beta1", "beta2"):
            d[key] = [float(v) for v in d[key]]
        return d


def theory_constants(problem, config):
    """Evaluate all constants for a problem/config pair.

    Needs the problem's exact Lipschitz constant and lower bound.  For the
    AdaGrad-like family kappa* (and psi when mu = 1/2) is filled in; for
    the divergent family the burn-in thresholds, with vartheta set to half
    the top-level beta1.  The config is validated first.
    """
    hier = problem.hierarchy
    r = hier.r
    config.validate(r)
    L = problem.exact_L
    f_low = problem.f_low
    if L is None or f_low is None:
        raise ValueError("problem must carry exact_L and f_low for bound checks")
    f0 = hier.level(r).value(np.asarray(problem.x0, dtype=float))
    Gamma0 = float(f0) - float(f_low)
    omega = hier.op(2).omega if r > 1 else 1.0
    sig = [hier.op(l).sigma_min for l in range(2, r + 1)]
    budgets = config.resolved_i_max(r)
    varsigma_min = float(np.min(np.asarray(config.varsigma, dtype=float)))
    beta1, beta2 = beta_recursion(r, config.tau, varsigma_min, config.kappa_B,
                                  config.kappa_R, omega, config.alpha, L, budgets, sig)
    tc = TheoryConstants(
        r=r, n=hier.dim(r), L=float(L), Gamma0=Gamma0, tau=config.tau,
        varsigma_min=varsigma_min, kappa_B=config.kappa_B, kappa_R=config.kappa_R,
        alpha=config.alpha, omega=omega, mu=config.mu, nu=config.nu_resolved(),
        i_max=budgets, sigma_min=sig, beta1=beta1, beta2=beta2,
    )
    if config.weight_kind == ADAGRAD_LIKE:
        tc.kappa_star = kappa_star(config.mu, varsigma_min, tc.n, Gamma0, L,
                                   beta1[-1], beta2[-1])
        if config.mu == 0.5:
            tc.psi = psi_constant(varsigma_min, tc.n, L, beta1[-1], beta2[-1])
    else:
        vartheta = 0.5 * beta1[-1]
        tc.i_theta, tc.i_sigma, tc.kappa_diamond = divergent_thresholds(
            vartheta, config.mu, tc.nu, varsigma_min, tc.n, config.alpha, L,
            beta1[-1], beta2[-1], Gamma0)
    return tc

"""Trust-region radius, linear/Cauchy/Taylor steps, decrease guarantees."""

import itertools

import numpy as np
import pytest

from moffo import step
from moffo.step import (
    HessianModel,
    cauchy_step,
    compute_radius,
    linear_step,
    taylor_step,
)
from moffo.weights import ADAGRAD_LIKE, WeightState, seed_lower_state


def test_radius_top_level_example():
    tr = compute_radius(np.array([2.0, 4.0]), np.array([1.0, 2.0]), 2.0, True, np.inf, 0.0)
    assert np.allclose(tr.delta_hat, [0.5, 0.5])
    assert np.allclose(tr.delta, [0.5, 0.5])


def test_radius_lower_level_cap_example():
    tr = compute_radius(np.array([2.0, 4.0]), np.array([1.0, 2.0]), 2.0, False, 0.1, 1.0)
    scale = min(0.2 / np.sqrt(0.5), 1.0)
    assert scale == pytest.approx(0.2828427, rel=1e-6)
    assert np.allclose(tr.delta, [0.1414214, 0.1414214], rtol=1e-6)
    assert np.allclose(tr.delta_hat, [0.5, 0.5])


def test_radius_zero_gradient():
    tr = compute_radius(np.array([1.0, 1.0]), np.zeros(2), 1.0, False, 0.5, 1.0)
    assert np.array_equal(tr.delta, np.zeros(2))


def test_radius_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        compute_radius(np.array([0.0, 1.0]), np.ones(2), 0.0, True, np.inf, 0.0)


def test_linear_step_example():
    s = linear_step(np.array([1.0, -2.0]), np.array([0.5, 0.5]))
    assert np.allclose(s, [-0.5, 0.5])
    assert np.array_equal(linear_step(np.zeros(3), np.ones(3)), np.zeros(3))


def test_linear_step_minimizes_over_box_corners():
    rng = np.random.default_rng(2)
    for _ in range(100):
        g = rng.standard_normal(3)
        delta = rng.uniform(0.0, 2.0, 3)
        s = linear_step(g, delta)
        best = min(float(g @ np.array(c)) for c in
                   itertools.product(*[(-d, 0.0, d) for d in delta]))
        assert float(g @ s) <= best + 1e-12


def test_cauchy_step_examples():
    g = np.array([1.0, -2.0])
    delta = np.abs(g)  # unit weights
    # |g^T sL| = 5 = sL^T B sL, so gamma = 1 and the Cauchy point is sL itself
    sQ = cauchy_step(g, delta, HessianModel.diagonal([1.0, 1.0], kappa_B=1.0))
    assert np.allclose(sQ, [-1.0, 2.0])
    sQ0 = cauchy_step(g, delta, HessianModel.zero())
    assert np.allclose(sQ0, [-1.0, 2.0])
    s1 = cauchy_step(np.array([1.0]), np.array([1.0]), HessianModel.diagonal([4.0]))
    assert np.allclose(s1, [-0.25])


def test_taylor_step_default_is_cauchy_point():
    g = np.array([0.3, -1.2, 0.0])
    delta = np.array([0.2, 0.4, 0.0])
    B = HessianModel.zero()
    s = taylor_step(g, delta, B, 1.0)
    assert np.array_equal(s, linear_step(g, delta))


def test_fuzz_sbound_gcp_and_decrease_lemma():
    rng = np.random.default_rng(77)
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
        # box and fractional-decrease conditions
        assert np.all(np.abs(s) <= tr.delta * (1 + 1e-12) + 1e-300)
        mq = B.model(g, sQ)
        assert B.model(g, s) <= tau * mq + 1e-10 * (1 + abs(mq))
        # Cauchy decrease dominates the weighted gradient sum
        assert mq <= -(varsigma / (2 * kappa_B)) * np.sum(g * g / w) + 1e-10
        # linear decrease bound for the uncapped radius
        bound = (-(tau * varsigma / (2.0 * kappa_B)) * float(np.sum(g * g / w))
                 + 0.5 * kappa_B * tr.delta_norm ** 2)
        assert float(g @ s) <= bound + 1e-9 * (1 + abs(bound))
        # step norm never exceeds ||D(w)|g||
        assert np.linalg.norm(s) <= tr.delta_hat_norm * (1 + 1e-12)
        # componentwise sign agreement
        assert np.all(s * g <= 1e-12)


def test_prolonged_step_cap_fuzz():
    # capped radius keeps ||P s|| within twice the budget for any admissible s
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
        w = rng.uniform(0.01, 3.0, n)
        delta_cap = 10.0 ** rng.uniform(-3, 2)
        p_norm = rng.uniform(0.2, 3.0)
        tr = compute_radius(w, np.abs(g), w.min(), False, delta_cap, p_norm)
        s = rng.uniform(-1.0, 1.0, n) * tr.delta
        assert p_norm * np.linalg.norm(s) <= 2.0 * delta_cap * (1 + 1e-12)


def test_hessian_model_bounds():
    B = HessianModel.diagonal([0.5, -0.25])
    assert B.kappa_B == 1.0
    with pytest.raises(ValueError):
        HessianModel("diagonal", np.array([3.0]), kappa_B=1.0)
    with pytest.raises(ValueError):
        HessianModel.zero(kappa_B=0.5)


def test_hessian_model_rejects_nan_diagonal():
    # a NaN entry once passed the range check and made cauchy_step return the
    # unscaled linear step
    nan = float("nan")
    with pytest.raises(ValueError):
        HessianModel.diagonal([nan, 0.5])
    with pytest.raises(ValueError):
        HessianModel("diagonal", np.array([0.5, nan]), kappa_B=2.0)
    # an infinite bound would make cauchy_step return the zero step
    inf = float("inf")
    with pytest.raises(ValueError):
        HessianModel.diagonal([inf, 0.5])
    with pytest.raises(ValueError):
        HessianModel.zero(kappa_B=inf)


def test_taylor_step_rejects_bad_tau():
    with pytest.raises(ValueError):
        taylor_step(np.ones(2), np.ones(2), HessianModel.zero(), 0.0)


@pytest.mark.parametrize("scale, factor, raises", [
    (1.0, 1.0, False),
    (1.0, 1.0 + 1e-13, False),    # inside the relative slack
    (1e-15, 2.0, False),          # inside the absolute slack
    (1.0, 1.0 + 1e-11, True),
    (1e-15, 1e4, True),
])
def test_taylor_step_box_check_keeps_its_slack(monkeypatch, scale, factor, raises):
    linear = step.linear_step
    monkeypatch.setattr(step, "linear_step", lambda g, delta: factor * linear(g, delta))
    g = np.array([1.0, -2.0, 0.0])
    delta = scale * np.array([0.5, 3.0, 1.0])
    if raises:
        with pytest.raises(step.InvariantError, match="left the trust region"):
            taylor_step(g, delta, HessianModel.zero(), 1.0)
    else:
        assert np.array_equal(taylor_step(g, delta, HessianModel.zero(), 1.0),
                              factor * linear(g, delta))


def test_nan_rejected_at_component_boundaries():
    nan = float("nan")
    w = np.array([nan, 1.0])
    with pytest.raises(ValueError):
        compute_radius(w, np.ones(2), w.min(), True, np.inf, 0.0)
    with pytest.raises(ValueError):
        HessianModel.zero(kappa_B=nan)
    with pytest.raises(ValueError):
        WeightState(ADAGRAD_LIKE, 0.5, None, nan, 2)
    with pytest.raises(ValueError):
        seed_lower_state(ADAGRAD_LIKE, 0.5, None, 0.1, np.ones(2), g0=[0.0, nan])

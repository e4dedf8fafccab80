"""Weight schedules, lower-level initialization rules, seeded states."""

import numpy as np
import pytest

from moffo.weights import (
    ADAGRAD_LIKE,
    MAXGI,
    WeightState,
    init_lower_adagrad,
    init_lower_divergent,
    seed_lower_state,
)


def _update(state, g):
    """One schedule step, with the squares formed as the solver forms them."""
    g = np.asarray(g, dtype=float)
    return state.update(g, g * g)


def test_adagrad_accumulation_example():
    st = WeightState(ADAGRAD_LIKE, mu=0.5, nu=None, varsigma=1.0, dim=1)
    _update(st, np.array([1.0]))
    w = _update(st, np.array([2.0]))
    assert w[0] == pytest.approx(np.sqrt(6.0), rel=1e-15)


def test_maxgi_running_max_example():
    st = WeightState(MAXGI, mu=0.1, nu=0.1, varsigma=0.01, dim=1)
    w0 = _update(st, np.array([1.0]))
    w1 = _update(st, np.array([-3.0]))
    w2 = _update(st, np.array([2.0]))
    assert st.acc[0] == 3.0
    assert w0[0] == pytest.approx(1.0 * 1.0 ** 0.1)
    assert w1[0] == pytest.approx(3.0 * 2.0 ** 0.1)
    assert w2[0] == pytest.approx(3.0 * 3.0 ** 0.1, rel=1e-15)


def test_zero_gradients_forever():
    st = WeightState(MAXGI, mu=0.3, nu=0.2, varsigma=0.04, dim=2)
    for i in range(5):
        w = _update(st, np.zeros(2))
        assert np.allclose(w, 0.04 * (i + 1.0) ** 0.2)
    st2 = WeightState(ADAGRAD_LIKE, mu=0.3, nu=None, varsigma=0.04, dim=2)
    for _ in range(5):
        w = _update(st2, np.zeros(2))
        assert np.allclose(w, 0.04 ** 0.3)


def test_weights_monotone_and_floored_fuzz():
    rng = np.random.default_rng(11)
    for kind in (ADAGRAD_LIKE, MAXGI):
        for _ in range(50):
            dim = rng.integers(1, 6)
            mu = rng.uniform(0.05, 0.95)
            nu = rng.uniform(0.01, mu)
            floors = rng.uniform(0.01, 1.0)
            st = WeightState(kind, mu, nu, floors, dim)
            prev = np.zeros(dim)
            for _ in range(20):
                w = _update(st, rng.standard_normal(dim) * 3.0)
                assert np.all(w >= floors - 1e-15)
                assert np.all(w >= prev - 1e-12)
                prev = w


def test_maxgi_vikprop_and_viklow():
    rng = np.random.default_rng(5)
    st = WeightState(MAXGI, mu=0.2, nu=0.2, varsigma=0.01, dim=3)
    v_prev = np.zeros(3)
    for _ in range(200):
        g = rng.standard_normal(3)
        _update(st, g)
        v = st.acc
        grew = v > v_prev + 1e-300
        # growth only to the current |g|; and v always dominates |g|
        assert np.all(v[grew] == np.abs(g)[grew])
        assert np.all(v >= np.abs(g) - 1e-15)
        v_prev = v.copy()


def test_adagrad_sandwich_bound():
    # max_j w_j lies between varsigma^mu and (varsigma + sum ||g||^2)^mu
    rng = np.random.default_rng(13)
    mu, vs = 0.5, 0.25
    st = WeightState(ADAGRAD_LIKE, mu, None, vs, 4)
    total = 0.0
    for _ in range(100):
        g = rng.standard_normal(4)
        total += float(g @ g)
        w = _update(st, g)
        assert vs ** mu - 1e-15 <= w.max() <= (vs + total) ** mu + 1e-12


def test_init_lower_divergent_example():
    w = init_lower_divergent(np.array([0.01]), 1.0, np.array([2.0]), 5.0, 1.0, 0.5)
    assert w[0] == pytest.approx(0.5)


def test_init_lower_divergent_zero_rg():
    w = init_lower_divergent(np.array([0.01, 0.01]), 2.0, np.zeros(2), 5.0, 1.0, 0.7)
    assert np.allclose(w, 0.7)


def test_init_lower_divergent_rejects_bad_delta():
    with pytest.raises(ValueError):
        init_lower_divergent(np.array([0.5]), 1.0, np.array([1.0]), 1.0, 0.0, 0.5)


def test_init_lower_adagrad_scaling_example():
    # hat-w = (3, 4) has norm 5; upper norm 10 doubles it
    vs = np.array([3.0e-3, 4.0e-3])
    rg = np.array([3.0, 4.0])
    # choose inputs so the budget term equals (3, 4): sqrt(2)*P*|rg|/(a*D) = rg
    w = init_lower_adagrad(np.array([0.01, 0.01]), 1.0, rg, np.sqrt(2.0), 1.0, 10.0)
    assert np.allclose(w, [6.0, 8.0])
    w2 = init_lower_adagrad(np.array([0.01, 0.01]), 1.0, rg, np.sqrt(2.0), 1.0, 2.0)
    assert np.allclose(w2, [3.0, 4.0])


def test_lower_inits_satisfy_conditions_fuzz():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        vs = rng.uniform(0.005, 1.0, n)
        p_norm = rng.uniform(0.2, 4.0)
        rg = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        alpha = rng.uniform(1.0, 30.0)
        dnorm = 10.0 ** rng.uniform(-6, 3)
        w_up = rng.uniform(vs.min(), 10.0, int(rng.integers(1, 9)))
        wd = init_lower_divergent(vs, p_norm, rg, alpha, dnorm, float(w_up.min()))
        # budget condition in the Euclidean norm, then the min-weight coupling
        assert np.linalg.norm(np.abs(rg) / wd) <= alpha * dnorm / p_norm * (1 + 1e-12)
        assert wd.min() >= min(float(w_up.min()), wd.min()) - 1e-15
        assert wd.min() >= float(w_up.min()) - 1e-15
        wa = init_lower_adagrad(vs, p_norm, rg, alpha, dnorm, float(np.linalg.norm(w_up)))
        assert np.linalg.norm(np.abs(rg) / wa) <= alpha * dnorm / p_norm * (1 + 1e-12)
        assert np.linalg.norm(wa) >= np.linalg.norm(w_up) * (1 - 1e-12)
        assert np.all(wd >= vs - 1e-15) and np.all(wa >= vs - 1e-15)


def test_seed_lower_state_first_emit_bitwise():
    rng = np.random.default_rng(3)
    for kind in (ADAGRAD_LIKE, MAXGI):
        w0 = rng.uniform(0.02, 5.0, 4)
        g0 = rng.standard_normal(4)
        st = seed_lower_state(kind, 0.5, 0.5 if kind == MAXGI else None, 0.01, w0, g0)
        assert np.array_equal(_update(st, g0), w0)


def test_seed_lower_state_floor_monotone():
    rng = np.random.default_rng(9)
    for kind in (ADAGRAD_LIKE, MAXGI):
        w0 = rng.uniform(0.02, 3.0, 3)
        g0 = rng.standard_normal(3)
        st = seed_lower_state(kind, 0.4, 0.3 if kind == MAXGI else None, 0.01, w0, g0)
        w = _update(st, g0)
        for _ in range(30):
            w_new = _update(st, rng.standard_normal(3) * 2.0)
            assert np.all(w_new >= w0 - 1e-15)
            assert np.all(w_new >= w - 1e-12)
            w = w_new


def test_seed_lower_state_floor_case_constant():
    vs = np.full(2, 0.04)
    st = seed_lower_state(ADAGRAD_LIKE, 0.5, None, 0.04, vs.copy(), np.zeros(2))
    assert np.array_equal(_update(st, np.zeros(2)), vs)
    for _ in range(4):
        w = _update(st, np.zeros(2))
        assert np.allclose(w, 0.04 ** 0.5)


def test_update_shape_mismatch():
    st = WeightState(ADAGRAD_LIKE, 0.5, None, 0.1, 3)
    with pytest.raises(ValueError):
        _update(st, np.zeros(2))


def test_state_validation():
    with pytest.raises(ValueError):
        WeightState("other", 0.5, None, 0.1, 2)
    with pytest.raises(ValueError):
        WeightState(ADAGRAD_LIKE, 1.5, None, 0.1, 2)
    with pytest.raises(ValueError):
        WeightState(MAXGI, 0.5, 0.9, 0.1, 2)
    for varsigma in (1.5, float("nan"), True, np.full(2, 0.5)):
        with pytest.raises(ValueError, match="varsigma"):
            WeightState(ADAGRAD_LIKE, 0.5, None, varsigma, 2)

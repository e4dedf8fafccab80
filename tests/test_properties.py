"""Property-based checks that the streamlined step, norm, ledger, weight,
transfer and oracle arithmetic is bit-equal to the textbook formulas it
replaces, plus the weight-schedule invariants.

These sit beside criterion 04's hand-rolled fuzz, which checks the
theory invariants themselves.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from moffo.hierarchy import TransferOperator, build_coherent_model
from moffo.problems import ResNetSpec, laplacian_quadratic_1d, resnet_regression
from moffo.solver import CostLedger, should_recurse
from moffo.step import HessianModel, cauchy_step, compute_radius, taylor_step, vector_norm
from moffo.weights import (
    ADAGRAD_LIKE,
    MAXGI,
    WeightState,
    init_lower_adagrad,
    init_lower_divergent,
    seed_lower_state,
)

_SETTINGS = settings(max_examples=300, deadline=None)
_finite = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)
_radius = st.floats(0.0, 1e100, allow_nan=False, allow_infinity=False)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _g_and_delta(draw, elements=_finite):
    n = draw(st.integers(1, 64))
    return (draw(arrays(np.float64, n, elements=elements)),
            draw(arrays(np.float64, n, elements=_radius)))


@_SETTINGS
@given(_g_and_delta(), st.floats(1e-3, 1.0))
def test_zero_model_taylor_step_is_cauchy_step(gd, tau):
    g, delta = gd
    B = HessianModel.zero()
    assert _same_bits(taylor_step(g, delta, B, tau), cauchy_step(g, delta, B))


@_SETTINGS
@given(st.integers(2, 5000), st.integers(0, 2**32 - 1), st.floats(-150, 150))
def test_vector_norm_is_linalg_norm(n, seed, log_scale):
    v = np.random.default_rng(seed).standard_normal(n) * 10.0 ** log_scale
    assert _same_bits(vector_norm(v), np.linalg.norm(v))


@_SETTINGS
@given(_g_and_delta(elements=st.floats(-1e50, 1e50)), st.booleans(),
       st.floats(1e-6, 1e6), st.floats(0.1, 10.0), st.floats(1e-3, 10.0))
def test_trust_region_norms_and_cap(gw, is_top, cap, p_norm, scale):
    g, w = gw
    w = w + 1e-3
    tr = compute_radius(w, np.abs(g), float(w.min()), is_top, cap, p_norm, scale=scale)
    assert _same_bits(tr.delta_hat, scale * np.abs(g) / w)
    assert _same_bits(tr.delta_hat_norm, np.linalg.norm(tr.delta_hat))
    assert _same_bits(tr.delta_norm, np.linalg.norm(tr.delta))
    if is_top:
        factor = 1.0
    else:
        nd = float(np.linalg.norm(tr.delta_hat))
        factor = min(2.0 * cap / (p_norm * nd), 1.0) if nd > 0.0 else 1.0
    assert _same_bits(tr.delta, factor * tr.delta_hat)


@_SETTINGS
@given(st.integers(1, 6).flatmap(lambda r: st.tuples(
    st.just(r),
    st.lists(st.tuples(st.integers(1, r), st.floats(0.0, 1.0)), max_size=40))))
def test_ledger_total_is_weighted_count_sum(case):
    r, adds = case
    ledger = CostLedger(r)
    counts = np.zeros(r)
    for level, fraction in adds:
        ledger.add(level, fraction)
        counts[level - 1] += fraction
        expected = float((2.0 ** (np.arange(1, r + 1) - r)) @ counts)
        assert _same_bits(ledger.total(), expected)


@st.composite
def _upper_and_lower(draw):
    """Restricted gradient and lower weights, gradient and weights: random
    vectors of random sizes and magnitudes, positive weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    g_scale, w_scale = 10.0 ** draw(st.floats(-6, 6)), 10.0 ** draw(st.floats(-6, 6))
    return (g_scale * rng.standard_normal(m), w_scale * rng.uniform(1e-3, 1.0, m),
            g_scale * rng.standard_normal(n), w_scale * rng.uniform(1e-3, 1.0, n))


@_SETTINGS
@given(_upper_and_lower(), st.floats(1e-4, 0.9999))
def test_should_recurse_with_decrease_is_five_argument_form(vecs, kappa_R):
    Rg, w_low, g, w = vecs
    decrease = float((g * g / w).sum())
    assert (should_recurse(Rg, w_low, g, w, kappa_R, decrease=decrease)
            == should_recurse(Rg, w_low, g, w, kappa_R))


@st.composite
def _schedule(draw):
    kind = draw(st.sampled_from([ADAGRAD_LIKE, MAXGI]))
    mu = draw(st.floats(0.01, 0.99))
    nu = draw(st.floats(0.001, 1.0)) * mu
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, steps = draw(st.integers(1, 16)), draw(st.integers(1, 15))
    floors = np.full(n, rng.uniform(1e-4, 1.0))  # one floor, every coordinate's
    grads = 10.0 ** draw(st.floats(-4, 3)) * rng.standard_normal((steps, n))
    return kind, mu, nu, floors, grads


@_SETTINGS
@given(_schedule())
def test_weights_nondecreasing_and_floored(case):
    kind, mu, nu, floors, grads = case
    state = WeightState(kind, mu, nu, floors[0], floors.size)
    prev = floors
    for g in grads:
        w = state.update(g, g * g)
        assert (w >= floors).all() and (w >= prev).all()
        prev = w


@_SETTINGS
@given(_schedule())
def test_weight_update_is_textbook_schedule(case):
    # the schedule with the accumulator written out, squares formed in place
    kind, mu, nu, floors, grads = case
    state = WeightState(kind, mu, nu, floors[0], floors.size)
    acc = np.zeros(floors.size)
    for i, g in enumerate(grads):
        if kind == ADAGRAD_LIKE:
            acc = acc + g * g
            reference = (floors + np.zeros(floors.size) + acc) ** mu
        else:
            acc = np.maximum(acc, np.abs(g))
            reference = np.maximum(floors, acc) * (i + 1.0) ** nu
        assert _same_bits(state.update(g, g * g), reference)


@_SETTINGS
@given(_schedule(), st.floats(1.0, 1e3))
def test_seeded_lower_state_emits_w0_then_stays_above(case, lift):
    kind, mu, nu, floors, grads = case
    w0 = lift * floors
    state = seed_lower_state(kind, mu, nu, floors[0], w0, grads[0])
    assert _same_bits(state.update(grads[0], grads[0] * grads[0]), w0)
    for g in grads[1:]:
        assert (state.update(g, g * g) >= w0).all()


@_SETTINGS
@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**32 - 1),
       st.floats(1e-3, 10.0))
def test_restrict_is_omega_p_transpose(n_fine, n_coarse, seed, omega):
    rng = np.random.default_rng(seed)
    op = TransferOperator(rng.standard_normal((n_fine, n_coarse)), omega)
    v = rng.standard_normal(n_fine)
    assert _same_bits(op.restrict(v), omega * (op.P.T @ v))
    model = build_coherent_model(lambda y: np.zeros_like(y), np.zeros(n_coarse),
                                 op.restrict(v))
    assert _same_bits(model.anchor_model_grad, omega * (op.P.T @ v))


@_SETTINGS
@given(_upper_and_lower(), st.floats(0.1, 10.0), st.floats(1.0, 10.0), st.floats(1e-6, 1e3))
def test_lower_inits_are_textbook_formulas(vecs, p_norm, alpha, delta_norm):
    Rg, _, _, w = vecs
    floors = np.full(Rg.size, 0.01)
    budget = np.sqrt(Rg.size) * p_norm * np.abs(Rg) / (alpha * delta_norm)
    w_hat = np.maximum(floors, budget)
    upper = float(np.linalg.norm(w))
    scale = max(1.0, upper / float(np.linalg.norm(w_hat)))
    assert _same_bits(init_lower_adagrad(floors, p_norm, Rg, alpha, delta_norm, upper),
                      scale * w_hat)
    assert _same_bits(init_lower_divergent(floors, p_norm, Rg, alpha, delta_norm, w.min()),
                      np.maximum(np.maximum(floors, budget), float(w.min())))


def _resnet_reference(x, spec, K, Y, C):
    """The textbook ResNet regression gradient: one backward product per layer."""
    w, blk = spec.width, spec.block
    dt = spec.horizon / (K - 1)
    theta = x[: K * blk].reshape(K, blk).copy()
    W, b = theta[:, : w * w].reshape(K, w, w), theta[:, w * w:]
    rest = x[K * blk:]
    Q = rest[: w * spec.n_in].reshape(w, spec.n_in)
    WT = rest[w * spec.n_in: w * spec.n_in + spec.n_out * w].reshape(spec.n_out, w)
    bT = rest[w * spec.n_in + spec.n_out * w:]
    nb = Y.shape[0]
    q = Y @ Q.T
    states, acts = [q], []
    for k in range(K - 1):
        a = np.tanh(q @ W[k].T + b[k])
        acts.append(a)
        q = q + dt * a
        states.append(q)
    resid = q @ WT.T + bT - C
    dtheta = np.diff(theta, axis=0)
    value = (float(np.sum(resid * resid)) / nb
             + 0.5 * spec.beta1 * (float(np.sum(WT * WT)) + float(np.sum(bT * bT)))
             + dt * 0.5 * spec.beta1 * float(np.sum(theta[:-1] * theta[:-1]))
             + 0.5 * spec.beta2 / dt * float(np.sum(dtheta * dtheta)))
    gW, gb = np.zeros_like(W), np.zeros_like(b)
    dout = 2.0 * resid / nb
    gWT = dout.T @ states[-1] + spec.beta1 * WT
    gbT = dout.sum(axis=0) + spec.beta1 * bT
    dq = dout @ WT
    for k in range(K - 2, -1, -1):
        dz = (dt * dq) * (1.0 - acts[k] * acts[k])
        gW[k] = dz.T @ states[k]
        gb[k] = dz.sum(axis=0)
        dq = dq + dz @ W[k]
    gtheta = np.concatenate([gW.reshape(K, w * w), gb], axis=1)
    gtheta[:-1] += dt * spec.beta1 * theta[:-1]
    gtheta[:-1] -= spec.beta2 / dt * dtheta
    gtheta[1:] += spec.beta2 / dt * dtheta
    grad = np.concatenate([gtheta.ravel(), (dq.T @ Y).ravel(), gWT.ravel(), gbT.ravel()])
    return value, grad


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(1, 3), st.integers(2, 4),
       st.integers(1, 2), st.integers(1, 48), st.integers(0, 2**32 - 1),
       st.floats(0.01, 3.0), st.booleans())
def test_resnet_oracle_is_per_layer_reference(width, n_in, n_out, k_coarse, levels,
                                              n_samples, seed, scale, batch):
    spec = ResNetSpec(k_coarse=k_coarse, levels=levels, width=width, n_in=n_in, n_out=n_out)
    problem = resnet_regression(spec, n_samples=n_samples, seed=seed % 1000)
    Y, C = problem.dataset
    rng = np.random.default_rng(seed)
    idx = rng.choice(n_samples, size=max(1, n_samples // 4), replace=False) if batch else None
    for l, K in enumerate(spec.layer_counts(), start=1):
        x = scale * rng.standard_normal(spec.dim(K))
        if idx is None:
            value, grad = _resnet_reference(x, spec, K, Y, C)
            assert problem.hierarchy.level(l).value(x) == value
            assert _same_bits(problem.hierarchy.level(l).grad(x), grad)
        else:
            _, grad = _resnet_reference(x, spec, K, Y[idx], C[idx])
            assert _same_bits(problem.sampled_grads[l - 1](x, idx), grad)


@_SETTINGS
@given(st.integers(1, 3), st.integers(1, 60), st.integers(0, 2**32 - 1), st.floats(0.0, 1e3))
def test_sampled_laplacian_gradient_is_mean_form(levels, dataset_size, seed, noise_scale):
    sample_seed = seed % 1000
    problem = laplacian_quadratic_1d(n_fine=31, levels=levels, dataset_size=dataset_size,
                                     noise_scale=noise_scale, sample_seed=sample_seed)
    # the builder's offsets, rebuilt from its recipe
    zeta = np.random.default_rng(sample_seed).standard_normal((dataset_size, 31))
    zeta = zeta - zeta.mean(axis=0)
    b_top = -problem.exact_grad(levels, np.zeros(31))
    z = [noise_scale * float(np.max(np.abs(b_top))) * zeta]
    for op in reversed(problem.hierarchy.operators):
        z.insert(0, np.array([op.restrict(row) for row in z[0]]))
    rng = np.random.default_rng(seed)
    for l in range(1, levels + 1):
        x = rng.standard_normal(problem.hierarchy.dim(l))
        nb = int(rng.integers(1, dataset_size + 1))
        idx = rng.choice(dataset_size, size=nb, replace=False)
        # the textbook form: the exact gradient plus the mean sampled offset
        reference = problem.hierarchy.level(l).grad(x) + z[l - 1][idx].mean(axis=0)
        assert _same_bits(problem.sampled_grads[l - 1](x, idx), reference)

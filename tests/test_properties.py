"""Property-based checks that the streamlined step, norm and ledger
arithmetic is bit-equal to the textbook formulas it replaces.

These sit beside criterion 04's hand-rolled fuzz, which checks the
theory invariants themselves.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from moffo.solver import CostLedger
from moffo.step import HessianModel, cauchy_step, compute_radius, taylor_step, vector_norm

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
    tr = compute_radius(w, g, is_top, cap, p_norm, scale=scale)
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

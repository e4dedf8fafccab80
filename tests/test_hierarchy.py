"""Transfer operators, interpolation stencils, and coherent models."""

import numpy as np
import pytest

from moffo import hierarchy
from moffo.hierarchy import (
    Level,
    TransferOperator,
    build_coherent_model,
    interior_interpolation_1d,
    linear_interpolation_1d,
)
from moffo.problems import build_depth_prolongation, build_problem, laplacian_quadratic_1d
from moffo.solver import SolverConfig, solve
from moffo.step import vector_norm


def test_restriction_is_omega_p_transpose():
    op = TransferOperator([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], omega=0.5)
    expected = np.array([[0.5, 0.25, 0.0], [0.0, 0.25, 0.5]])
    assert np.array_equal(op.restriction(), expected)


def test_restriction_identity():
    op = TransferOperator(np.eye(2), omega=1.0)
    assert np.array_equal(op.restriction(), np.eye(2))


def test_linear_interpolation_stencil():
    op = linear_interpolation_1d(2)
    assert np.array_equal(op.P, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    assert op.omega == 0.5


def test_linear_interpolation_midpoints_and_constants():
    op = linear_interpolation_1d(2)
    assert np.allclose(op.prolong(np.array([0.0, 1.0])), [0.0, 0.5, 1.0])
    op3 = linear_interpolation_1d(3)
    assert np.allclose(op3.prolong(np.ones(3)), np.ones(5))


def test_linear_interpolation_rejects_small():
    with pytest.raises(ValueError):
        linear_interpolation_1d(1)


def test_operator_norms_identity_and_diagonal():
    op = TransferOperator(np.eye(3), omega=1.0)
    assert op.norm == pytest.approx(1.0)
    assert op.sigma_min == pytest.approx(1.0)
    op2 = TransferOperator([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]], omega=1.0)
    assert op2.norm == pytest.approx(2.0)
    assert op2.sigma_min == pytest.approx(1.0)


def test_interpolation_norm_sqrt_1_5():
    op = linear_interpolation_1d(2)
    # SVD oracle on the dense 3x2 stencil
    ref = np.linalg.svd(np.asarray(op.P), compute_uv=False)[0]
    assert ref == pytest.approx(np.sqrt(1.5), rel=1e-12)
    assert op.norm == pytest.approx(np.sqrt(1.5), rel=1e-9)


def test_norm_cached_and_power_iteration_path():
    rng = np.random.default_rng(0)
    P = rng.standard_normal((150, 70))  # above the dense-SVD size cut
    op = TransferOperator(P, omega=1.0)
    ref = np.linalg.svd(P, compute_uv=False)[0]
    assert op.norm == pytest.approx(ref, rel=1e-8)
    assert op.norm is op.norm or op.norm == op.norm  # cached value stable


def test_norm_falls_back_to_svd_when_power_iteration_stalls():
    # The top of P^T P is clustered for n_fine = 511, so power iteration runs
    # out of iterations; this solve used to raise at its first recursion.
    problem = laplacian_quadratic_1d(n_fine=511, levels=2)
    res = solve(problem, SolverConfig(i_max_top=20))
    assert res.iterations == 20
    op = problem.hierarchy.op(2)
    assert abs(op.norm - np.linalg.svd(op.P, compute_uv=False)[0]) <= 1e-12


def test_lap255_norm_matches_svd_and_closed_form():
    # P^T P is tridiag(0.25, 1.5, 0.25) of order 127, whose top eigenvalue is
    # 1.5 + 0.5 cos(pi/128); power iteration used to stop 4e-8 short of it.
    op = laplacian_quadratic_1d(n_fine=255, levels=3).hierarchy.op(3)
    assert op.P.shape == (255, 127)
    for ref in (np.linalg.svd(op.P, compute_uv=False)[0],
                np.sqrt(1.5 + 0.5 * np.cos(np.pi / 128))):
        assert abs(op.norm - ref) <= 1e-15 * ref


def test_resnet_norms_bit_equal_to_power_iteration():
    # both operators converge fast (contraction about 0.2), where the stop
    # rule ends at the same iteration as a plain successive-difference test
    hier = build_problem("resnet").hierarchy
    assert [hier.op(l).P.shape for l in (2, 3)] == [(248, 164), (416, 248)]
    assert hier.op(2).norm == 1.9999999999797942
    assert hier.op(3).norm == 1.999999999980255


@pytest.mark.parametrize("n_coarse", [127, 511])
def test_power_iteration_stops_at_the_cap(monkeypatch, n_coarse):
    calls = []

    def counting_norm(v):
        calls.append(1)
        return vector_norm(v)

    monkeypatch.setattr(hierarchy, "vector_norm", counting_norm)
    op = interior_interpolation_1d(n_coarse)
    norm = op.norm
    # one call normalizes the start vector, then one per iteration
    assert 1 < len(calls) <= 1 + hierarchy._POWER_MAX_ITER
    assert abs(norm - np.linalg.svd(op.P, compute_uv=False)[0]) <= 1e-15 * norm


def _counted_power_norm(monkeypatch, P):
    calls = []

    def counting_norm(v):
        calls.append(1)
        return vector_norm(v)

    monkeypatch.setattr(hierarchy, "vector_norm", counting_norm)
    norm = hierarchy._power_norm(P)
    # one call normalizes the start vector, then one per iteration
    return norm, len(calls) - 1


def test_power_iteration_gives_up_early_on_a_stall(monkeypatch):
    # lap255's 255x127 operator: the contraction climbs toward one, so the
    # tolerance is out of reach long before the iteration cap
    norm, iterations = _counted_power_norm(monkeypatch, interior_interpolation_1d(127).P)
    assert norm is None
    assert iterations <= 40


@pytest.mark.parametrize("P, iterations", [
    (np.random.default_rng(0).standard_normal((150, 70)), 137),
    # contractions 0, 0.33, 0.95, 0.43, ...: one pessimistic iteration alone
    # must not end the iteration
    (build_depth_prolongation(5, 72, 50).P, None),
], ids=["random", "depth-5-72-50"])
def test_power_iteration_still_converges(monkeypatch, P, iterations):
    norm, count = _counted_power_norm(monkeypatch, P)
    assert norm is not None
    assert abs(norm - np.linalg.svd(P, compute_uv=False)[0]) <= 1e-9 * norm
    if iterations is not None:
        assert count == iterations


@pytest.mark.parametrize("make", [
    lambda: linear_interpolation_1d(9),
    lambda: interior_interpolation_1d(127),
    lambda: TransferOperator(np.random.default_rng(0).standard_normal((150, 70)), 1.0),
], ids=["dense", "power-stalls", "power-converges"])
def test_norm_and_sigma_min_share_one_svd(monkeypatch, make):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    op = make()
    norm = op.norm
    smin = op.sigma_min
    assert (op.norm, op.sigma_min) == (norm, smin)
    assert len(calls) == 1
    assert 0.0 < smin <= norm


def test_coherent_model_telescoping():
    op = TransferOperator(np.eye(1), omega=1.0)
    model = build_coherent_model(lambda x: np.array([3.0]), np.array([0.0]),
                                 op.restrict(np.array([5.0])))
    assert np.allclose(model.v, [2.0])
    assert np.allclose(model.grad(np.array([0.0])), [5.0])


def test_coherent_model_zero_correction():
    op = TransferOperator(np.eye(2), omega=1.0)
    g_up = np.array([1.0, -2.0])
    model = build_coherent_model(lambda x: g_up.copy(), np.zeros(2), op.restrict(g_up))
    assert np.allclose(model.v, 0.0)


def test_coherent_model_anchor_identity_on_laplacian():
    problem = laplacian_quadratic_1d(n_fine=31, levels=2)
    hier = problem.hierarchy
    op = hier.op(2)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(31)
    g = hier.level(2).grad(x)
    rg = op.restrict(g)
    model = build_coherent_model(hier.level(1).grad, op.restrict(x), rg)
    assert np.linalg.norm(model.grad(op.restrict(x)) - rg) <= 1e-12 * (1 + np.linalg.norm(rg))


def test_linear_coherence_identity():
    # g^T (P s) == (1/omega) (R g)^T s for every operator
    rng = np.random.default_rng(3)
    for op in (linear_interpolation_1d(5), interior_interpolation_1d(7),
               TransferOperator(rng.standard_normal((9, 4)), omega=0.37)):
        for _ in range(200):
            g = rng.standard_normal(op.n_fine)
            s = rng.standard_normal(op.n_coarse)
            lhs = g @ op.prolong(s)
            rhs = (1.0 / op.omega) * (op.restrict(g) @ s)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_rp_equals_omega_ptp_dense_oracle():
    for n_c in (2, 5, 16):
        op = linear_interpolation_1d(n_c)
        lhs = op.restriction() @ op.P
        rhs = op.omega * (op.P.T @ op.P)
        assert np.allclose(lhs, rhs, atol=1e-14)
    for n_c in (3, 15):
        op = interior_interpolation_1d(n_c)
        assert np.allclose(op.restriction() @ op.P, op.omega * op.P.T @ op.P, atol=1e-14)


def test_restriction_of_zero_is_zero():
    op = linear_interpolation_1d(4)
    assert np.array_equal(op.restrict(np.zeros(7)), np.zeros(4))


def test_sigma_min_positive_for_builtins():
    for op in (linear_interpolation_1d(2), linear_interpolation_1d(9),
               interior_interpolation_1d(3), interior_interpolation_1d(31)):
        assert op.sigma_min > 0.0


def test_interior_interpolation_shapes():
    op = interior_interpolation_1d(3)
    assert op.P.shape == (7, 3)
    # aligned nodes copied, flanking nodes halved, boundary neighbour is zero
    assert np.allclose(op.prolong(np.array([1.0, 1.0, 1.0])),
                       [0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5])


def test_coherence_defect_zero_for_derived_restriction():
    op = interior_interpolation_1d(7)
    g = np.random.default_rng(1).standard_normal(op.n_fine)
    assert np.linalg.norm(op.omega * (op.P.T @ g) - op.restrict(g)) == 0.0


def test_operator_validation():
    with pytest.raises(ValueError):
        TransferOperator(np.ones(3), omega=1.0)


@pytest.mark.parametrize("omega", [float("nan"), float("inf"), 0.0, -1.0])
def test_operator_rejects_bad_omega(omega):
    with pytest.raises(ValueError, match="omega"):
        TransferOperator(np.eye(2), omega)


@pytest.mark.parametrize("fraction", [float("nan"), float("inf"), -1.0])
def test_level_rejects_bad_eval_fraction_before_any_oracle_call(fraction):
    calls = []
    with pytest.raises(ValueError, match="eval_fraction .*%r" % fraction):
        Level(2, lambda x: calls.append(1) or x.copy(), eval_fraction=fraction)
    assert calls == []

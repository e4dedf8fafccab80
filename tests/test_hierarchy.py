"""Transfer operators, interpolation stencils, and coherent models."""

import re
import tracemalloc

import numpy as np
import pytest

from moffo import hierarchy
from moffo.hierarchy import (
    Level,
    TransferOperator,
    build_coherent_model,
    build_depth_prolongation,
    interior_interpolation_1d,
)
from moffo.problems import build_problem, laplacian_quadratic_1d


def test_restriction_is_omega_p_transpose():
    op = TransferOperator([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], omega=0.5)
    expected = np.array([[0.5, 0.25, 0.0], [0.0, 0.25, 0.5]])
    assert np.array_equal(op.omega * op.P.T, expected)


def test_restriction_identity():
    op = TransferOperator(np.eye(2), omega=1.0)
    assert np.array_equal(op.omega * op.P.T, np.eye(2))


def test_linear_interpolation_stencil():
    op = build_depth_prolongation(2)
    assert np.array_equal(op.P, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    assert op.omega == 0.5


def test_linear_interpolation_midpoints_and_constants():
    op = build_depth_prolongation(2)
    assert np.allclose(op.prolong(np.array([0.0, 1.0])), [0.0, 0.5, 1.0])
    op3 = build_depth_prolongation(3)
    assert np.allclose(op3.prolong(np.ones(3)), np.ones(5))


def test_linear_interpolation_rejects_small():
    for args in [(1,), (1, 3, 2), (2, 0, 0), (2, 0, 3), (2, 1, -1),
                 (2.5,), (3, 1.0, 0), (3, True, 0), (3, 1, 0.0)]:
        with pytest.raises(ValueError, match="integers k_coarse >= 2, block_size >= 1"):
            build_depth_prolongation(*args)
    for n_coarse in (0, -1, 2.5, 3.0, True):
        with pytest.raises(ValueError, match="n_coarse must be an integer >= 1"):
            interior_interpolation_1d(n_coarse)


def test_operator_norms_identity_and_diagonal():
    op = TransferOperator(np.eye(3), omega=1.0)
    assert op.norm == pytest.approx(1.0)
    assert op.sigma_min == pytest.approx(1.0)
    op2 = TransferOperator([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]], omega=1.0)
    assert op2.norm == pytest.approx(2.0)
    assert op2.sigma_min == pytest.approx(1.0)


def test_interpolation_norm_sqrt_1_5():
    op = build_depth_prolongation(2)
    # SVD oracle on the dense 3x2 stencil
    ref = np.linalg.svd(np.asarray(op.P), compute_uv=False)[0]
    assert ref == pytest.approx(np.sqrt(1.5), rel=1e-12)
    assert op.norm == pytest.approx(np.sqrt(1.5), rel=1e-9)


def test_norm_cached_and_power_iteration_path():
    # a caller's dense P takes its norm from the SVD, once
    rng = np.random.default_rng(0)
    P = rng.standard_normal((150, 70))
    op = TransferOperator(P, omega=1.0)
    ref = np.linalg.svd(P, compute_uv=False)[0]
    assert op.norm == pytest.approx(ref, rel=1e-8)
    assert op.norm is op.norm or op.norm == op.norm  # cached value stable


def test_lap255_norm_matches_svd_and_closed_form():
    # P^T P is tridiag(0.25, 1.5, 0.25) of order 127, whose top eigenvalue is
    # 1.5 + 0.5 cos(pi/128)
    op = laplacian_quadratic_1d(n_fine=255, levels=3).hierarchy.op(3)
    assert op.P.shape == (255, 127)
    for ref in (np.linalg.svd(op.P, compute_uv=False)[0],
                np.sqrt(1.5 + 0.5 * np.cos(np.pi / 128))):
        assert abs(op.norm - ref) <= 1e-15 * ref


def test_resnet_norms_bit_equal_to_power_iteration():
    # Power iteration gave 1.9999999999797942 and 1.999999999980255, just
    # under the exact 2; the closed form is the exact value, an upper bound.
    hier = build_problem("resnet").hierarchy
    assert [hier.op(l).P.shape for l in (2, 3)] == [(248, 164), (416, 248)]
    assert hier.op(2).norm == 2.0
    assert hier.op(3).norm == 2.0
    for l, power in ((2, 1.9999999999797942), (3, 1.999999999980255)):
        assert power < hier.op(l).norm <= power + 1e-10
        assert hier.op(l).norm == np.linalg.svd(hier.op(l).P, compute_uv=False)[0]


# The built-in operators with more than 64 coarse columns (the laplacian1d
# operators of lap255 to lap1023, the default ResNet's and the largest
# ResNet resnet_regression accepts: width 16, k_coarse 5): the operators that
# gather and scatter instead of multiplying by the dense P.
_GATHERING = {"interior127", "interior255", "interior511", "resnet-op2", "resnet-op3",
              "resnet-w16k5-op2", "resnet-w16k5-op3"}


@pytest.fixture(scope="module")
def builtin_operators():
    """Every built-in operator shape, lap31 to lap1023, chain63 and both ResNets, by name."""
    ops = {"interior%d" % n: interior_interpolation_1d(n) for n in (15, 31, 63, 127, 255, 511)}
    for tag, name, params in (("chain63", "chain1d", {"n_fine": 63, "levels": 3}),
                              ("resnet", "resnet", {}),
                              ("resnet-w16k5", "resnet", {"width": 16, "k_coarse": 5})):
        hier = build_problem(name, **params).hierarchy
        ops.update({"%s-op%d" % (tag, l): hier.op(l) for l in range(2, hier.r + 1)})
    return ops


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _assert_row_form(rows, shape):
    """rows is a row form of a shape-sized P: each row has one or two
    entries with increasing columns, a one-entry row repeats its column and
    carries weight 0 in slot 1, and every weight is 1/2, 1 or 2, which keeps
    the gather's products exact."""
    cols, weights = rows
    assert cols.shape == weights.shape == (shape[0], 2)
    assert cols.min() >= 0 and cols.max() < shape[1]
    one = weights[:, 1] == 0.0
    assert (cols[one, 0] == cols[one, 1]).all() and (cols[~one, 0] < cols[~one, 1]).all()
    assert np.isin(weights[:, 0], (0.5, 1.0, 2.0)).all()
    assert np.isin(weights[~one, 1], (0.5, 1.0, 2.0)).all()


def test_builtin_operators_have_a_row_form(builtin_operators):
    for op in builtin_operators.values():
        _assert_row_form(op._rows, (op.n_fine, op.n_coarse))
        assert (op._gather is not None) == (op.n_coarse > hierarchy._GATHER_MIN_COARSE)
    assert {name for name, op in builtin_operators.items()
            if op._gather is not None} == _GATHERING


def _test_vectors(rng, n):
    """+0, -0 and +-1 vectors (whose stencil sums can cancel to 0), then
    vectors of magnitudes 1e-200 to 1e200 with +0 and -0 entries."""
    vectors = [np.zeros(n), -np.zeros(n), np.where(rng.random(n) < 0.5, -1.0, 1.0)]
    for _ in range(40):
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-200, 200, size=n)
        v[rng.random(n) < 0.2] = 0.0
        v[rng.random(n) < 0.2] = -0.0
        vectors.append(v)
    return vectors


def test_gather_prolong_bit_equal_to_dense(builtin_operators):
    # restrict's scatter adds each column's entries in fine-row order, the
    # order in which BLAS sums the columns of these shapes
    rng = np.random.default_rng(11)
    for op in builtin_operators.values():
        P = op.P
        for v in _test_vectors(rng, op.n_coarse):
            assert _bits(op.prolong(v)) == _bits(P @ v)
        for g in _test_vectors(rng, op.n_fine):
            assert _bits(op.restrict(g)) == _bits(op.omega * (P.T @ g))


def _within_ulps(value, ref):
    return abs(value - ref) <= 8 * np.spacing(ref)


@pytest.mark.parametrize("name", sorted(_GATHERING))
def test_row_form_norm_equals_dense_gram_norm(builtin_operators, name):
    op = builtin_operators[name]
    assert _within_ulps(op.norm, np.sqrt(np.linalg.eigvalsh(op.P.T @ op.P)[-1]))


def test_interior_interpolation_norms_match_the_svd():
    for n in range(1, 601):
        op = interior_interpolation_1d(n)
        sv = np.linalg.svd(op.P, compute_uv=False)
        assert _within_ulps(op.norm, sv[0]) and _within_ulps(op.sigma_min, sv[-1]), n


def test_depth_prolongation_norms_match_the_svd():
    for k in range(2, 71):
        for block in range(1, 5):
            for shared in range(4):
                op = build_depth_prolongation(k, block, shared)
                sv = np.linalg.svd(op.P, compute_uv=False)
                assert (_within_ulps(op.norm, sv[0])
                        and _within_ulps(op.sigma_min, sv[-1])), (k, block, shared)


def _loop_linear(n_coarse):
    P = np.zeros((2 * n_coarse - 1, n_coarse))
    for j in range(n_coarse):
        P[2 * j, j] = 1.0
    for j in range(n_coarse - 1):
        P[2 * j + 1, j] = 0.5
        P[2 * j + 1, j + 1] = 0.5
    return P


def _loop_interior(n_coarse):
    P = np.zeros((2 * n_coarse + 1, n_coarse))
    for j in range(n_coarse):
        P[2 * j + 1, j] = 1.0
        P[2 * j, j] = 0.5
        P[2 * j + 2, j] = 0.5
    return P


def _kron_depth(k_coarse, block_size, n_shared):
    Pt = _loop_linear(k_coarse)
    P = np.kron(Pt, np.eye(block_size)) if block_size > 1 else Pt.copy()
    if n_shared:
        full = np.zeros((P.shape[0] + n_shared, P.shape[1] + n_shared))
        full[: P.shape[0], : P.shape[1]] = P
        full[P.shape[0]:, P.shape[1]:] = 2.0 * np.eye(n_shared)
        P = full
    return P


def _assert_built(op, reference):
    """op's dense P is reference, and it emitted a row form of it."""
    assert _bits(op.P) == _bits(reference)
    assert not op.P.flags.writeable
    _assert_row_form(op._rows, reference.shape)
    assert op.omega == 0.5


def test_interpolations_built_by_index_match_the_loops_and_kron():
    for n in list(range(2, 40)) + [127, 511]:
        _assert_built(build_depth_prolongation(n), _loop_linear(n))
        _assert_built(interior_interpolation_1d(n - 1), _loop_interior(n - 1))
    for k, block, shared in [(2, 1, 0), (2, 3, 0), (2, 1, 2), (3, 42, 38), (5, 42, 38),
                             (9, 272, 98), (4, 5, 3)]:
        _assert_built(build_depth_prolongation(k, block, shared), _kron_depth(k, block, shared))


@pytest.mark.parametrize("edit", ["weight-0.3", "three-entry-row"])
def test_operator_without_row_form_keeps_the_dense_path(edit):
    # the default ResNet's 248x164 operator
    P = build_depth_prolongation(3, 42, 38).P.copy()
    if edit == "weight-0.3":
        P[10, 4] = 0.3
    else:
        P[10, [4, 5]] = 0.5
    op = TransferOperator(P, 0.5)
    sv = np.linalg.svd(P, compute_uv=False)
    assert (op.norm, op.sigma_min) == (sv[0], sv[-1])
    assert op._rows is None and op._gather is None
    assert _bits(op.P) == _bits(P)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(op.n_coarse)
    assert _bits(op.prolong(v)) == _bits(P @ v)
    g = rng.standard_normal(op.n_fine)
    assert _bits(op.restrict(g)) == _bits(op.omega * (P.T @ g))


def test_constructor_keeps_a_read_only_copy():
    P = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    op = TransferOperator(P, 0.5)
    P[1, 0] = 7.0  # the caller's array stays writable
    assert op.P[1, 0] == 0.5
    with pytest.raises(ValueError, match="read-only"):
        op.P[1, 0] = 7.0


def test_largest_resnet_holds_no_dense_transfer():
    # The dense P of the width-16, k_coarse 5 ResNet's two operators take
    # 96 and 30 MB; the row forms take under 0.5 MB.
    tracemalloc.start()
    try:
        hier = build_problem("resnet", width=16, k_coarse=5).hierarchy
        norms = [hier.op(l).norm for l in (2, 3)]
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert norms == [2.0, 2.0]
    assert held < 8e6
    assert peak < 8e6


def _count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    return calls


# A builder's operator takes its norm and sigma_min from closed forms, a
# caller's dense P both from one SVD.  The ids name the paths the 127-column
# and the 150x70 operators took while norms came from power iteration.
@pytest.mark.parametrize("make, svds", [
    (lambda: TransferOperator(build_depth_prolongation(9).P, 0.5), 1),
    (lambda: interior_interpolation_1d(127), 0),
    (lambda: TransferOperator(np.random.default_rng(0).standard_normal((150, 70)), 1.0), 1),
], ids=["dense", "power-stalls", "power-converges"])
def test_norm_and_sigma_min_share_one_svd(monkeypatch, make, svds):
    op = make()
    calls = _count_svds(monkeypatch)
    norm = op.norm
    smin = op.sigma_min
    assert (op.norm, op.sigma_min) == (norm, smin)
    assert len(calls) == svds
    assert 0.0 < smin <= norm
    sv = np.linalg.svd(op.P, compute_uv=False)
    if svds:
        assert (norm, smin) == (sv[0], sv[-1])
    else:
        assert abs(norm - sv[0]) <= 4 * np.spacing(sv[0])
        assert abs(smin - sv[-1]) <= 4 * np.spacing(sv[0])


def test_lap255_and_resnet_norms_take_no_svd_and_no_dense_p(monkeypatch):
    calls = _count_svds(monkeypatch)
    lap = laplacian_quadratic_1d(n_fine=255, levels=3).hierarchy
    resnet = build_problem("resnet").hierarchy
    for op in lap.operators + resnet.operators:
        assert 0.0 < op.sigma_min <= op.norm
    assert calls == []
    big = [lap.op(3)] + resnet.operators
    assert all(op._P is None for op in big)
    assert [op.P.shape for op in big] == [(255, 127), (248, 164), (416, 248)]
    assert [op.norm for op in resnet.operators] == [2.0, 2.0]


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
    for op in (build_depth_prolongation(5), interior_interpolation_1d(7),
               TransferOperator(rng.standard_normal((9, 4)), omega=0.37)):
        for _ in range(200):
            g = rng.standard_normal(op.n_fine)
            s = rng.standard_normal(op.n_coarse)
            lhs = g @ op.prolong(s)
            rhs = (1.0 / op.omega) * (op.restrict(g) @ s)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_rp_equals_omega_ptp_dense_oracle():
    for n_c in (2, 5, 16):
        op = build_depth_prolongation(n_c)
        lhs = np.column_stack([op.restrict(p) for p in op.P.T])  # R P, column by column
        rhs = op.omega * (op.P.T @ op.P)
        assert np.allclose(lhs, rhs, atol=1e-14)
    for n_c in (3, 15):
        op = interior_interpolation_1d(n_c)
        assert np.allclose(np.column_stack([op.restrict(p) for p in op.P.T]),
                           op.omega * op.P.T @ op.P, atol=1e-14)


def test_restriction_of_zero_is_zero():
    op = build_depth_prolongation(4)
    assert np.array_equal(op.restrict(np.zeros(7)), np.zeros(4))


def test_sigma_min_positive_for_builtins():
    for op in (build_depth_prolongation(2), build_depth_prolongation(9),
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
    with pytest.raises(ValueError, match="non-finite"):
        TransferOperator([[1.0], [np.nan]], omega=1.0)
    for shape in [(3, 0), (0, 3), (0, 0)]:
        with pytest.raises(ValueError, match="needs a row and a column"):
            TransferOperator(np.zeros(shape), omega=1.0)


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


@pytest.mark.parametrize("n", [2.7, 3.0, True, False, 0, -3, "3", None])
def test_level_rejects_a_size_that_is_not_a_positive_integer(n):
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got %s$" % re.escape(repr(n))):
        Level(n, lambda x: x.copy())


def test_level_keeps_an_integer_size():
    assert [type(Level(n, lambda x: x.copy()).n) for n in (1, np.int64(3))] == [int, int]

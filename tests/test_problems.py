"""Built-in problems: stencils, gradients, transfers, noise wrappers."""

import dataclasses
import math

import numpy as np
import pytest

from moffo.hierarchy import build_depth_prolongation
from moffo.problems import (
    _SAMPLE_BLOCK,
    ResNetSpec,
    _batch_sum,
    _index_sets,
    build_problem,
    finite_difference_check,
    laplacian_quadratic_1d,
    list_problems,
    nonconvex_chain_1d,
    quadratic_diag,
    resnet_regression,
    with_gaussian_noise,
    with_minibatch,
)
from moffo.solver import SolverConfig, solve


def test_laplacian_stencil_n3():
    problem = laplacian_quadratic_1d(n_fine=3, levels=1)
    A = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]) * 16.0
    rng = np.random.default_rng(0)
    b = -problem.exact_grad(1, np.zeros(3))
    for _ in range(5):
        x = rng.standard_normal(3)
        assert np.allclose(problem.exact_grad(1, x), A @ x - b, atol=1e-12)


def test_laplacian_gradient_zero_at_solution():
    problem = laplacian_quadratic_1d(n_fine=31, levels=2)
    h = 1.0 / 32
    b = -problem.exact_grad(2, np.zeros(31))
    from moffo.problems import _tridiag_laplacian_solve
    x_star = _tridiag_laplacian_solve(b, h)
    assert np.linalg.norm(problem.exact_grad(2, x_star)) <= 1e-10
    # reported lower bound matches the solve
    assert problem.f_low == pytest.approx(problem.hierarchy.level(2).value(x_star), abs=1e-10)


def test_laplacian_dims_and_validation():
    problem = laplacian_quadratic_1d(n_fine=255, levels=3)
    assert [problem.hierarchy.dim(l) for l in (1, 2, 3)] == [63, 127, 255]
    with pytest.raises(ValueError):
        laplacian_quadratic_1d(n_fine=256, levels=3)
    with pytest.raises(ValueError):
        laplacian_quadratic_1d(n_fine=7, levels=3)


def test_chain_gradient_checks():
    problem = nonconvex_chain_1d(n_fine=31, levels=2)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.standard_normal(31)
        err = finite_difference_check(problem, level=2, x=x, h=1e-5)
        assert err <= 1e-6
    # zero point with zero forcing: cosine term has zero gradient at 0
    flat = nonconvex_chain_1d(n_fine=15, levels=1, forcing=lambda t: 0.0 * t)
    assert np.allclose(flat.exact_grad(1, np.zeros(15)), 0.0, atol=1e-14)


def test_chain_bounded_below_certificate():
    problem = nonconvex_chain_1d(n_fine=31, levels=2)
    rng = np.random.default_rng(5)
    for _ in range(200):
        u = 3.0 * rng.standard_normal(31)
        assert problem.hierarchy.level(2).value(u) >= problem.f_low - 1e-12


def test_chain_coarse_minimizer_helps_fine():
    problem = nonconvex_chain_1d(n_fine=31, levels=2)
    hier = problem.hierarchy
    sub = nonconvex_chain_1d(n_fine=15, levels=1)
    res = solve(sub, SolverConfig(eps_top=1e-6, i_max_top=3000, mu=0.5))
    lifted = hier.op(2).prolong(res.x)
    rng = np.random.default_rng(6)
    rand_init = rng.standard_normal(31)
    assert np.linalg.norm(problem.exact_grad(2, lifted)) < \
        np.linalg.norm(problem.exact_grad(2, rand_init))


def test_quadratic_fd_exactness():
    problem = quadratic_diag()
    err = finite_difference_check(problem, level=1, x=np.array([3.0, -4.0]), h=1e-3)
    assert err <= 1e-9


def test_laplacian_fd():
    problem = laplacian_quadratic_1d(n_fine=31, levels=2)
    err = finite_difference_check(problem, level=2, h=1e-3, seed=1)
    assert err <= 1e-9


def test_resnet_gradient_fd():
    spec = ResNetSpec(width=4, k_coarse=3, levels=2, n_in=3, n_out=2)
    problem = resnet_regression(spec, n_samples=32, seed=1)
    rng = np.random.default_rng(2)
    for level in (1, 2):
        n = problem.hierarchy.dim(level)
        x = 0.5 * rng.standard_normal(n)
        err = finite_difference_check(problem, level=level, x=x, h=1e-5)
        assert err <= 1e-5, "level %d fd err %.3g" % (level, err)


def test_resnet_dead_network_loss():
    spec = ResNetSpec(width=3, k_coarse=3, levels=1, n_in=2, n_out=2,
                      beta1=0.0, beta2=0.0)
    problem = resnet_regression(spec, n_samples=16, seed=3)
    Y, C = problem.dataset
    x = np.zeros(problem.hierarchy.dim(1))
    val = problem.hierarchy.level(1).value(x)
    assert val == pytest.approx(float(np.mean(np.sum(C * C, axis=1))), rel=1e-12)
    g = problem.exact_grad(1, x)
    # layer blocks see zero states, so their weight gradients vanish
    blk = spec.block
    assert np.allclose(g[: spec.k_coarse * blk][: spec.width ** 2], 0.0)


def test_resnet_layer_counts_and_caps():
    spec = ResNetSpec(width=4, k_coarse=3, levels=3)
    assert spec.layer_counts() == [3, 5, 9]
    with pytest.raises(ValueError):
        resnet_regression(ResNetSpec(width=32))
    with pytest.raises(ValueError):
        resnet_regression(ResNetSpec(width=4, k_coarse=5, levels=4))  # 33 layers
    resnet_regression(ResNetSpec(width=4, k_coarse=5, levels=3), n_samples=8)  # 17 ok


@pytest.mark.parametrize("K", [3, 5, 9, 17])
@pytest.mark.parametrize("nb", [16, 32, 64, 33])
def test_bias_gradient_reduction_bit_equal_to_np_sum(K, nb):
    rng = np.random.default_rng([K, nb])
    for _ in range(50):
        dz = rng.standard_normal((K - 1, nb, 6)) * 10.0 ** rng.integers(-8, 8, size=(K - 1, nb, 1))
        assert _batch_sum(dz).tobytes() == np.sum(dz, axis=1).tobytes()


def test_depth_prolongation_properties():
    op = build_depth_prolongation(2, block_size=3, n_shared=0)
    # layer-constant parameters stay layer-constant
    theta = np.tile(np.array([1.0, -2.0, 0.5]), 2)
    fine = op.prolong(theta)
    assert np.allclose(fine, np.tile(np.array([1.0, -2.0, 0.5]), 3))
    # midpoint layer is the average of end layers
    a, b = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 2.0])
    fine2 = op.prolong(np.concatenate([a, b]))
    assert np.allclose(fine2[3:6], 0.5 * (a + b))
    # R P equals omega P^T P against the dense oracle
    lhs = np.column_stack([op.restrict(p) for p in op.P.T])  # R P, column by column
    assert np.allclose(lhs, op.omega * op.P.T @ op.P, atol=1e-14)


def test_depth_prolongation_shared_identity_restriction():
    op = build_depth_prolongation(2, block_size=1, n_shared=2)
    R = op.omega * op.P.T
    fine = np.array([1.0, 2.0, 3.0, 7.0, -5.0])  # 3 layers + 2 shared
    coarse = R @ fine
    assert np.allclose(coarse[-2:], [7.0, -5.0])  # shared block untouched


def test_minibatch_full_fraction_identical():
    problem = laplacian_quadratic_1d(n_fine=15, levels=2)
    wrapped = with_minibatch(problem, 1.0, seed=0)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(15)
    assert np.array_equal(wrapped.hierarchy.level(2).grad(x), problem.exact_grad(2, x))
    assert wrapped.hierarchy.level(2).eval_fraction == 1.0


def test_minibatch_cost_fraction():
    problem = laplacian_quadratic_1d(n_fine=15, levels=2, dataset_size=40)
    wrapped = with_minibatch(problem, 0.25, seed=0)
    lvl = wrapped.hierarchy.level(2)
    assert lvl.eval_fraction == pytest.approx(0.25)
    from moffo.solver import CostLedger
    ledger = CostLedger(1)
    for _ in range(3):
        ledger.add(1, lvl.eval_fraction)
    assert ledger.total() == pytest.approx(0.75)


def test_minibatch_unbiased_monte_carlo():
    problem = laplacian_quadratic_1d(n_fine=15, levels=1, dataset_size=40,
                                     noise_scale=0.5)
    wrapped = with_minibatch(problem, 0.25, seed=3)
    x = np.zeros(15)
    exact = problem.exact_grad(1, x)
    draws = np.mean([wrapped.hierarchy.level(1).grad(x) for _ in range(10_000)], axis=0)
    rel = np.linalg.norm(draws - exact) / np.linalg.norm(exact)
    assert rel <= 0.02


def test_minibatch_determinism_and_freshness():
    problem = laplacian_quadratic_1d(n_fine=15, levels=1)
    w1 = with_minibatch(problem, 0.25, seed=5)
    w2 = with_minibatch(problem, 0.25, seed=5)
    x = np.ones(15)
    a1 = w1.hierarchy.level(1).grad(x)
    a2 = w1.hierarchy.level(1).grad(x)
    b1 = w2.hierarchy.level(1).grad(x)
    assert not np.array_equal(a1, a2)  # fresh draw per call
    assert np.array_equal(a1, b1)      # same seed, same stream


@pytest.mark.parametrize("nd, nb", [(2, 1), (40, 1), (40, 10), (40, 39), (64, 16),
                                    (512, 128), (10001, 150), (20000, 500)])
def test_index_sets_are_generator_choice_call_for_call(nd, nb):
    # (10001, 150) is the largest Floyd case at that size; (20000, 500) is
    # on choice's tail-shuffle branch
    sets = _index_sets(np.random.default_rng(11), nd, nb)
    stream = np.random.default_rng(11)
    for _ in range(3 * _SAMPLE_BLOCK + 1):  # across three block boundaries
        expected = stream.choice(nd, size=nb, replace=False)
        got = next(sets)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_minibatch_oracle_samples_as_generator_choice():
    problem = laplacian_quadratic_1d(n_fine=15, levels=2, dataset_size=40)
    wrapped = with_minibatch(problem, 0.25, seed=4)
    stream = np.random.default_rng([4, 2])  # the top level's stream
    x = np.random.default_rng(1).standard_normal(15)
    for _ in range(_SAMPLE_BLOCK + 3):
        idx = stream.choice(40, size=10, replace=False)
        assert np.array_equal(wrapped.hierarchy.level(2).grad(x),
                              problem.sampled_grads[1](x, idx))


def test_minibatch_requires_sum_structure():
    with pytest.raises(ValueError):
        with_minibatch(quadratic_diag(), 0.5, seed=0)
    with pytest.raises(ValueError):
        with_minibatch(laplacian_quadratic_1d(15, 1), 0.0, seed=0)


def test_gaussian_noise_wrapper():
    problem = quadratic_diag()
    noisy = with_gaussian_noise(problem, 0.1, seed=2)
    x = np.array([1.0, 1.0])
    g1 = noisy.hierarchy.level(1).grad(x)
    g2 = noisy.hierarchy.level(1).grad(x)
    assert not np.array_equal(g1, g2)
    assert np.array_equal(noisy.exact_grad(1, x), problem.exact_grad(1, x))


def test_gaussian_noise_keeps_minibatch_sampling():
    # the noise wraps the sampled levels it is given, not the exact ones
    sampled = with_minibatch(laplacian_quadratic_1d(n_fine=31, levels=3), 0.25, 0)
    both = with_gaussian_noise(
        with_minibatch(laplacian_quadratic_1d(n_fine=31, levels=3), 0.25, 0), 0.0, 0)
    assert [lvl.eval_fraction for lvl in both.hierarchy.levels] == [0.25] * 3
    x = np.random.default_rng(4).standard_normal(31)
    g = both.hierarchy.level(3).grad(x)
    assert np.array_equal(g, sampled.hierarchy.level(3).grad(x))
    assert not np.array_equal(g, sampled.exact_grad(3, x))
    assert both.noise == "minibatch(0.25,0)+gaussian(0,0)"


@pytest.mark.parametrize("sigma", [math.inf, math.nan, -0.1])
def test_gaussian_noise_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="^sigma must be"):
        with_gaussian_noise(quadratic_diag(), sigma, 0)


@pytest.mark.parametrize("seed", [1.7, True, -1, "x"])
def test_noise_wrappers_reject_bad_seeds(seed):
    problem = laplacian_quadratic_1d(n_fine=15, levels=2)
    with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
        with_minibatch(problem, 0.5, seed)
    with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
        with_gaussian_noise(problem, 0.1, seed)


def test_root_is_the_unwrapped_problem():
    problem = laplacian_quadratic_1d(n_fine=31, levels=2)
    assert problem.root is problem
    sampled = with_minibatch(problem, 0.25, 0)
    assert sampled.root is problem
    assert with_gaussian_noise(sampled, 0.1, 0).root is problem
    assert with_gaussian_noise(problem, 0.1, 0).root is problem


def test_registry():
    names = [n for n, _ in list_problems()]
    assert names == sorted(["quadratic2d", "laplacian1d", "chain1d", "resnet"])
    problem = build_problem("quadratic2d")
    assert problem.exact_L == 2.0
    with pytest.raises(ValueError):
        build_problem("nope")
    with pytest.raises(ValueError):
        build_problem("chain1d", bogus=3)


@pytest.mark.parametrize("name, params, bad", [
    ("resnet", {"levels": 0}, "levels"),
    ("resnet", {"levels": -2}, "levels"),
    ("resnet", {"k_coarse": 1}, "k_coarse"),
    ("resnet", {"n_in": 0}, "n_in"),
    ("resnet", {"n_out": 0}, "n_out"),
    ("resnet", {"n_samples": 0}, "n_samples"),
    ("resnet", {"horizon": 0.0}, "horizon"),
    ("resnet", {"horizon": math.nan}, "horizon"),
    ("resnet", {"beta1": -1.0}, "beta1"),
    ("resnet", {"beta2": math.inf}, "beta2"),
    ("laplacian1d", {"dataset_size": 0}, "dataset_size"),
    ("laplacian1d", {"noise_scale": math.nan}, "noise_scale"),
    ("laplacian1d", {"noise_scale": -0.1}, "noise_scale"),
    ("quadratic2d", {"diag": [math.nan, 1.0]}, "diag"),
    ("quadratic2d", {"diag": [math.inf, 1.0]}, "diag"),
    ("quadratic2d", {"diag": [0.0, 1.0]}, "diag"),
    ("quadratic2d", {"diag": []}, "diag"),
    ("quadratic2d", {"diag": [[1.0, 2.0]]}, "diag"),
    ("quadratic2d", {"x0": [math.inf, 1.0]}, "x0"),
    ("quadratic2d", {"x0": [math.nan, 1.0]}, "x0"),
    ("quadratic2d", {"x0": [1.0, 2.0, 3.0]}, "x0"),
    ("laplacian1d", {"n_fine": 15.5}, "n_fine"),
    ("laplacian1d", {"levels": 2.0}, "levels"),
    ("chain1d", {"n_fine": "15"}, "n_fine"),
    ("chain1d", {"levels": True}, "levels"),
    ("quadratic2d", {"diag": ["a", 1.0]}, "diag"),
    ("quadratic2d", {"diag": [True, 1.0]}, "diag"),
    ("quadratic2d", {"x0": [1.0, "b"]}, "x0"),
    ("laplacian1d", {"sample_seed": 1.5}, "sample_seed"),
    ("laplacian1d", {"sample_seed": True}, "sample_seed"),
    ("resnet", {"seed": "x"}, "seed"),
    ("resnet", {"seed": 1.5}, "seed"),
])
def test_builders_reject_out_of_range_parameters(name, params, bad):
    with pytest.raises(ValueError, match=r"^%s must be" % bad):
        build_problem(name, **params)


def test_build_problem_resnet_takes_each_spec_field():
    defaults = {f.name: f.default for f in dataclasses.fields(ResNetSpec)}
    built = build_problem("resnet", **defaults, n_samples=64, seed=0)
    ref = resnet_regression()
    assert built.r == ref.r and np.array_equal(built.x0, ref.x0)
    for level in range(1, ref.r + 1):
        x = np.full(ref.hierarchy.dim(level), 0.1)
        assert np.array_equal(built.exact_grad(level, x), ref.exact_grad(level, x))
    with pytest.raises(ValueError):
        build_problem("resnet", depth=3)


def test_single_level_keeps_top_level_and_metadata():
    base = laplacian_quadratic_1d(n_fine=31, levels=3, dataset_size=8)
    noisy = with_minibatch(base, 0.25, seed=1)
    single = noisy.single_level()
    assert single.r == 1
    assert single.hierarchy.level(1) is noisy.hierarchy.level(3)
    assert single.noise == noisy.noise and single.dataset_size == 8
    x = np.random.default_rng(3).standard_normal(31)
    assert np.array_equal(single.exact_grad(1, x), base.exact_grad(3, x))
    # the unwrapped single level stays eligible for the minibatch wrapper,
    # sampling the top level's data
    again = with_minibatch(base.single_level(), 1.0, seed=1)
    assert again.r == 1
    assert np.array_equal(again.hierarchy.level(1).grad(x), base.exact_grad(3, x))

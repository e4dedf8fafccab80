"""Built-in problem hierarchies with gradient oracles and noise wrappers.

Problems bundle a LevelHierarchy with metadata (exact Lipschitz constant and
lower bound when known, dataset size for sum-structured objectives) plus a
default starting point.  Oracles are deterministic; stochastic variants are
obtained through the minibatch and Gaussian-noise wrappers, which draw from
per-level seeded streams, one fresh sample per call.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .hierarchy import Level, LevelHierarchy, build_depth_prolongation, interior_interpolation_1d

__all__ = [
    "ProblemHierarchy",
    "ResNetSpec",
    "quadratic_diag",
    "laplacian_quadratic_1d",
    "nonconvex_chain_1d",
    "resnet_regression",
    "with_minibatch",
    "with_gaussian_noise",
    "finite_difference_check",
    "build_problem",
    "list_problems",
    "PROBLEM_NAMES",
]


@dataclass(eq=False)
class ProblemHierarchy:
    """A level stack plus the metadata the harness and bound checks need.

    sampled_grads, when present, lists per-level callables (x, idx) -> mean
    gradient over the given sample indices; they make the problem eligible
    for the minibatch wrapper.  base points at the unwrapped problem so
    exact gradients stay reachable from noisy variants.  Variants are
    copies made by dataclasses.replace, sharing the fields they keep.
    """

    name: str
    hierarchy: LevelHierarchy
    x0: np.ndarray
    exact_L: float | None = None
    f_low: float | None = None
    dataset_size: int | None = None
    noise: str = "none"
    sampled_grads: list | None = None
    dataset: tuple | None = None
    base: ProblemHierarchy | None = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)

    @property
    def r(self):
        return self.hierarchy.r

    @property
    def root(self):
        """The un-noised problem: base for a wrapped problem, else itself."""
        return self.base if self.base is not None else self

    def exact_grad(self, level, x):
        """Deterministic full gradient at a level, bypassing any noise wrapper."""
        return self.root.hierarchy.level(level).grad(np.asarray(x, dtype=float))

    def single_level(self):
        """The top level alone as a one-level problem: the single-level baseline.

        Noise wrappers carry over, because the top Level (and its sampling
        stream) is shared; sampled_grads and base are cut down to the top
        level likewise, so exact_grad(1, x) and with_minibatch still see it.
        """
        return dataclasses.replace(
            self, name=self.name + "-single",
            hierarchy=LevelHierarchy([self.hierarchy.level(self.r)], []),
            sampled_grads=None if self.sampled_grads is None else self.sampled_grads[-1:],
            base=None if self.base is None else self.base.single_level())

    def strip_values(self):
        """Clone with all value oracles removed (control flow must not notice)."""
        levels = [Level(l.n, l.grad, None, l.eval_fraction) for l in self.hierarchy.levels]
        hier = LevelHierarchy(levels, self.hierarchy.operators)
        return dataclasses.replace(self, hierarchy=hier)


def _check_int(name, value, minimum):
    """Raise a ValueError naming the parameter unless value is an integer
    (not a bool) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError("%s must be an integer >= %d, got %r" % (name, minimum, value))


def _check_real(name, value, positive=False):
    """Raise a ValueError naming the parameter unless value is a finite real
    that is positive (if positive) or nonnegative."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or not (value > 0 if positive else value >= 0)):
        raise ValueError("%s must be a finite %s number, got %r"
                         % (name, "positive" if positive else "nonnegative", value))


def _real_list(values):
    """values as a 1-d float array if it is a sequence of real numbers
    (bools and strings are not), else None."""
    try:
        items = list(values)
    except TypeError:
        return None
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in items):
        return None
    return np.array(items, dtype=float)


def quadratic_diag(diag=(1.0, 2.0), x0=(3.0, -4.0)):
    """Single-level diagonal quadratic f(x) = x^T diag(d) x / 2."""
    d = _real_list(diag)
    if d is None or d.size == 0 or not (np.isfinite(d).all() and d.min() > 0.0):
        raise ValueError("diag must be a nonempty list of finite positive numbers, got %r"
                         % (diag,))
    x = _real_list(x0)
    if x is None or x.shape != d.shape or not np.isfinite(x).all():
        raise ValueError("x0 must be a list of %d finite numbers, got %r" % (d.size, x0))
    level = Level(
        d.size,
        grad=lambda x: d * x,
        value=lambda x: 0.5 * float(x @ (d * x)),
    )
    hier = LevelHierarchy([level], [])
    return ProblemHierarchy("quadratic2d", hier, x, exact_L=float(d.max()), f_low=0.0)


def _laplacian_apply(x, h):
    y = 2.0 * x
    y[:-1] -= x[1:]
    y[1:] -= x[:-1]
    return y / (h * h)


def _tridiag_laplacian_solve(b, h):
    """Thomas algorithm for the [-1, 2, -1]/h^2 Dirichlet system.

    The sweeps run on Python floats, about four times faster than on numpy
    scalars and with the same IEEE-754 operations, so the same bits.
    """
    rhs = (h * h * b).tolist()
    cp = [-0.5]
    dp = [rhs[0] / 2.0]
    for r in rhs[1:]:
        den = 2.0 + cp[-1]
        cp.append(-1.0 / den)
        dp.append((r + dp[-1]) / den)
    x = [dp[-1]]
    for c, d in zip(cp[-2::-1], dp[-2::-1]):
        x.append(d - c * x[-1])
    return np.array(x[::-1])


def _nested_grids(n_fine, levels, forcing, times_h=False):
    """Nested interior grids of the 1D problems, coarse to fine.

    Checks n_fine = 2^m - 1 with m >= levels + 1 and returns the grid sizes,
    the interpolation operators between neighbouring grids, the finest mesh
    width h and the forcing(t) at the fine nodes t (times h if times_h),
    restricted down the levels.
    """
    _check_int("n_fine", n_fine, 1)
    _check_int("levels", levels, 1)
    if (n_fine + 1) & n_fine:
        raise ValueError("n_fine must be 2^m - 1, got %d" % n_fine)
    if int(math.log2(n_fine + 1)) < levels + 1:
        raise ValueError("need n_fine = 2^m - 1 with m >= levels + 1")
    dims = [n_fine]
    for _ in range(levels - 1):
        dims.insert(0, (dims[0] - 1) // 2)
    ops = [interior_interpolation_1d(n) for n in dims[:-1]]
    h_top = 1.0 / (n_fine + 1)
    rhs = [np.asarray(forcing(np.arange(1, n_fine + 1) * h_top), dtype=float)]
    if times_h:
        rhs[0] = h_top * rhs[0]
    for op in reversed(ops):
        rhs.insert(0, op.restrict(rhs[0]))
    return dims, ops, h_top, rhs


def laplacian_quadratic_1d(n_fine=255, levels=3, dataset_size=40, noise_scale=0.1,
                           forcing=None, sample_seed=2025):
    """Dirichlet 1D Laplacian quadratics on nested interior grids.

    f_l(x) = x^T A_l x / 2 - b_l^T x with the [-1, 2, -1]/h^2 stencil; the
    forcing is sampled on the finest grid and restricted downwards.  The
    problem is sum-structured through zero-mean per-sample gradient offsets,
    so the minibatch wrapper applies: dataset_size standard normal draws
    from sample_seed, centred by column, scaled by noise_scale * max|b| and
    restricted down the levels one sample at a time.
    """
    _check_int("dataset_size", dataset_size, 1)
    _check_real("noise_scale", noise_scale)
    _check_int("sample_seed", sample_seed, 0)
    if forcing is None:
        forcing = lambda t: np.sin(2.0 * np.pi * t) + 0.4 * np.sin(9.0 * np.pi * t)
    dims, ops, h_top, b = _nested_grids(n_fine, levels, forcing)

    @functools.cache
    def offsets():
        # drawn on the first sampled-gradient call, so exact runs never pay
        # for them, and shared by every wrapper of this build
        zeta = np.random.default_rng(sample_seed).standard_normal((dataset_size, n_fine))
        zeta -= zeta.mean(axis=0)
        z = [noise_scale * float(np.max(np.abs(b[-1]))) * zeta]
        for op in reversed(ops):
            # one restrict per sample: a matrix product's rounding would depend
            # on the number of BLAS threads
            z.insert(0, np.array([op.restrict(row) for row in z[0]]))
        return z

    levels_list = []
    sampled = []
    for k in range(levels):
        n = dims[k]
        h = 1.0 / (n + 1)
        bk = b[k]

        def grad(x, h=h, bk=bk):
            return _laplacian_apply(x, h) - bk

        def value(x, h=h, bk=bk):
            return 0.5 * float(x @ _laplacian_apply(x, h)) - float(bk @ x)

        def sgrad(x, idx, h=h, bk=bk, k=k):
            zk = offsets()[k]
            # the arithmetic of zk[idx].mean(axis=0), without its wrappers
            noise = np.add.reduce(zk.take(idx, axis=0), axis=0) / idx.size
            return _laplacian_apply(x, h) - bk + noise

        levels_list.append(Level(n, grad, value))
        sampled.append(sgrad)

    hier = LevelHierarchy(levels_list, ops)
    n = dims[-1]
    L = 4.0 * math.sin(n * math.pi / (2.0 * (n + 1))) ** 2 / h_top ** 2
    x_star = _tridiag_laplacian_solve(b[-1], h_top)
    f_low = -0.5 * float(b[-1] @ x_star)
    return ProblemHierarchy("laplacian1d", hier, np.zeros(n_fine), exact_L=L,
                            f_low=f_low, dataset_size=dataset_size,
                            sampled_grads=sampled)


def nonconvex_chain_1d(n_fine=63, levels=3, forcing=None):
    """Smooth nonconvex chain: discrete arc length plus a cosine potential.

    f_l(u) = sum_k h sqrt(1 + ((u_{k+1}-u_k)/h)^2) + sum_k h cos(u_k) - f^T u
    with zero Dirichlet ends.  The forcing is small enough that the arc
    length dominates, certifying the lower bound -h*n on the whole space.
    """
    if forcing is None:
        forcing = lambda t: np.sin(2.0 * np.pi * t)
    dims, ops, h_top, f = _nested_grids(n_fine, levels, forcing, times_h=True)

    levels_list = []
    for k in range(levels):
        n = dims[k]
        h = 1.0 / (n + 1)
        fk = f[k]

        def value(u, h=h, fk=fk):
            du = np.diff(np.concatenate(([0.0], u, [0.0])))
            length = float(np.sum(h * np.sqrt(1.0 + (du / h) ** 2)))
            return length + h * float(np.sum(np.cos(u))) - float(fk @ u)

        def grad(u, h=h, fk=fk):
            du = np.diff(np.concatenate(([0.0], u, [0.0])))
            slope = du / h
            phi = slope / np.sqrt(1.0 + slope * slope)
            return phi[:-1] - phi[1:] - h * np.sin(u) - fk

        levels_list.append(Level(n, grad, value))

    hier = LevelHierarchy(levels_list, ops)
    n = dims[-1]
    return ProblemHierarchy("chain1d", hier, np.zeros(n_fine), exact_L=None,
                            f_low=-h_top * n)


@dataclass
class ResNetSpec:
    """Desk-scale dense-block residual network regression setup."""

    k_coarse: int = 3
    levels: int = 3
    horizon: float = 3.0
    width: int = 6
    n_in: int = 4
    n_out: int = 2
    beta1: float = 1e-4
    beta2: float = 1e-4

    def layer_counts(self):
        ks = [self.k_coarse]
        for _ in range(self.levels - 1):
            ks.append(2 * ks[-1] - 1)
        return ks

    @property
    def block(self):
        return self.width * self.width + self.width

    @property
    def n_shared(self):
        return self.width * self.n_in + self.n_out * self.width + self.n_out

    def dim(self, K):
        return K * self.block + self.n_shared


def _unpack_resnet(x, spec, K):
    """Views of a parameter or gradient vector: the layer stack theta, its
    weights W and biases b, then the shared read-in Q, read-out WT and bT.

    Each reshape splits a contiguous axis, so none of them copies; the
    gradient is written through these views.
    """
    w, n_in, n_out = spec.width, spec.n_in, spec.n_out
    blk = spec.block
    theta = x[: K * blk].reshape(K, blk)
    W = theta[:, : w * w].reshape(K, w, w)
    b = theta[:, w * w:]
    rest = x[K * blk:]
    Q = rest[: w * n_in].reshape(w, n_in)
    WT = rest[w * n_in: w * n_in + n_out * w].reshape(n_out, w)
    bT = rest[w * n_in + n_out * w:]
    return theta, W, b, Q, WT, bT


def _batch_sum(dz):
    """Sum of a (layers, batch, width) stack over its batch axis.

    Bit-equal to np.sum(dz, axis=1), which also adds the batch in row order,
    and about half its time: one reduction over the rows of a
    (batch, layers * width) copy.
    """
    n_layers, nb, w = dz.shape
    return np.add.reduce(dz.transpose(1, 0, 2).reshape(nb, -1), axis=0).reshape(n_layers, w)


def _resnet_eval(x, spec, K, Y, C, idx, want_grad):
    """Forward pass, then the value, or the gradient by hand-coded reverse
    accumulation through the chain.

    States and activations live in preallocated layer stacks.  The backward
    loop carries only the recurrence in dq; the weight and bias gradients of
    all layers are then one batched product and one sum, written straight
    into views of the returned gradient vector.
    """
    w = spec.width
    dt = spec.horizon / (K - 1)
    theta, W, b, Q, WT, bT = _unpack_resnet(x, spec, K)
    Ys = Y if idx is None else Y[idx]
    Cs = C if idx is None else C[idx]
    nb = Ys.shape[0]

    states = np.empty((K, nb, w))
    acts = np.empty((K - 1, nb, w))
    q = np.matmul(Ys, Q.T, out=states[0])
    for k in range(K - 1):
        a = np.tanh(q @ W[k].T + b[k], out=acts[k])
        q = np.add(q, dt * a, out=states[k + 1])
    resid = q @ WT.T + bT - Cs

    dtheta = theta[1:] - theta[:-1]
    if not want_grad:
        return (
            float(np.sum(resid * resid)) / nb
            + 0.5 * spec.beta1 * (float(np.sum(WT * WT)) + float(np.sum(bT * bT)))
            + dt * 0.5 * spec.beta1 * float(np.sum(theta[:-1] * theta[:-1]))
            + 0.5 * spec.beta2 / dt * float(np.sum(dtheta * dtheta))
        )

    grad = np.empty(x.size)
    gtheta, gW, gb, gQ, gWT, gbT = _unpack_resnet(grad, spec, K)
    dout = 2.0 * resid / nb
    dq = dout @ WT
    dact = 1.0 - acts * acts
    dz = np.empty((K - 1, nb, w))
    for k in range(K - 2, -1, -1):
        np.multiply(dt * dq, dact[k], out=dz[k])
        dq = dq + dz[k] @ W[k]
    np.matmul(dz.transpose(0, 2, 1), states[:-1], out=gW[:-1])
    gb[:-1] = _batch_sum(dz)
    gtheta[-1] = 0.0
    gtheta[:-1] += dt * spec.beta1 * theta[:-1]
    smooth = spec.beta2 / dt * dtheta
    gtheta[:-1] -= smooth
    gtheta[1:] += smooth

    np.matmul(dq.T, Ys, out=gQ)
    np.add(dout.T @ states[-1], spec.beta1 * WT, out=gWT)
    np.add(np.add.reduce(dout, axis=0), spec.beta1 * bT, out=gbT)
    return grad


def resnet_regression(spec=None, n_samples=64, seed=0):
    """Synthetic regression with a depth-coarsened hierarchy of ResNets.

    Inputs are uniform on [-1, 1]^n_in; targets are componentwise sines of a
    fixed random linear map.  All levels share the same data; coarser levels
    have fewer layers, coupled along the layer-time axis by linear
    interpolation with shared read-in/read-out blocks.
    """
    spec = spec or ResNetSpec()
    for name, minimum in (("k_coarse", 2), ("levels", 1), ("width", 1), ("n_in", 1),
                          ("n_out", 1)):
        _check_int(name, getattr(spec, name), minimum)
    _check_int("n_samples", n_samples, 1)
    _check_int("seed", seed, 0)
    _check_real("horizon", spec.horizon, positive=True)
    _check_real("beta1", spec.beta1)
    _check_real("beta2", spec.beta2)
    if spec.width > 16:
        raise ValueError("width capped at 16 at desk scale")
    if n_samples > 512:
        raise ValueError("n_samples capped at 512 at desk scale")
    ks = spec.layer_counts()
    if ks[-1] > 17:
        raise ValueError("finest layer count capped at 17 at desk scale")
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-1.0, 1.0, size=(n_samples, spec.n_in))
    M = rng.standard_normal((spec.n_out, spec.n_in))
    C = np.sin(Y @ M.T)

    ops = [build_depth_prolongation(ks[k], spec.block, spec.n_shared)
           for k in range(spec.levels - 1)]
    levels_list = []
    sampled = []
    for K in ks:
        def grad(x, K=K):
            return _resnet_eval(x, spec, K, Y, C, None, True)

        def value(x, K=K):
            return _resnet_eval(x, spec, K, Y, C, None, False)

        def sgrad(x, idx, K=K):
            return _resnet_eval(x, spec, K, Y, C, idx, True)

        levels_list.append(Level(spec.dim(K), grad, value))
        sampled.append(sgrad)

    hier = LevelHierarchy(levels_list, ops)
    x0 = 0.1 * rng.standard_normal(spec.dim(ks[-1]))
    return ProblemHierarchy("resnet", hier, x0, dataset_size=n_samples,
                            sampled_grads=sampled, dataset=(Y, C))


# calls whose index sets the minibatch sampler draws at once
_SAMPLE_BLOCK = 64


def _index_sets(stream, nd, nb):
    """Yield, call after call, the index sets that
    stream.choice(nd, size=nb, replace=False) would return, drawn
    _SAMPLE_BLOCK calls at a time.

    For these sizes choice runs Floyd's sampling algorithm, then a
    Fisher-Yates shuffle.  Each step draws one bounded integer, in a fixed
    order: Floyd's step t from [0, nd - nb + t] for t = 0 .. nb - 1, then the
    shuffle's step i from [0, i] for i = nb - 1 down to 1.  One
    stream.integers call over a block's bounds makes the same draws from the
    stream, and the duplicate rule and the swaps are then applied to the
    whole block one step at a time.  Where choice instead shuffles the tail
    of a full permutation (nd > 10000 and nb > nd // 50), each set is drawn
    by choice itself.
    """
    if nd > 10000 and nb > nd // 50:
        while True:
            yield stream.choice(nd, size=nb, replace=False)
    base = nd - nb
    bounds = np.tile(np.concatenate((base + np.arange(nb), np.arange(nb - 1, 0, -1))),
                     (_SAMPLE_BLOCK, 1))
    row_start = nb * np.arange(_SAMPLE_BLOCK)
    while True:
        draws = stream.integers(0, bounds, endpoint=True, dtype=np.int64)
        idx = draws[:, :nb].copy()
        # Floyd's step t keeps its draw unless an earlier step took that
        # index, and then takes base + t, which no earlier step can have
        for t in range(1, nb):
            col = idx[:, t]
            np.copyto(col, base + t,
                      where=np.logical_or.reduce(idx[:, :t] == col[:, None], axis=1))
        # the shuffle's step i swaps entry i with the entry its draw names
        flat = idx.ravel()
        for i in range(nb - 1, 0, -1):
            there = row_start + draws[:, 2 * nb - 1 - i]
            here = row_start + i
            moved = flat[there]
            flat[there] = flat[here]
            flat[here] = moved
        yield from idx


def with_minibatch(problem, batch_fraction, seed):
    """Subsampled-gradient wrapper: one fresh draw per oracle call.

    Each call samples ceil(fraction * |D|) indices without replacement from
    a per-level seeded stream and charges the ledger that fraction of a full
    gradient.  The index sets are those of one
    stream.choice(|D|, size, replace=False) per call, drawn in blocks (see
    _index_sets).  fraction = 1 short-circuits to the exact oracle.
    """
    if problem.sampled_grads is None or problem.dataset_size is None:
        raise ValueError("problem %r is not sum-structured" % problem.name)
    if not 0.0 < batch_fraction <= 1.0:
        raise ValueError("batch fraction must lie in (0, 1]")
    _check_int("seed", seed, 0)
    nd = problem.dataset_size
    nb = int(math.ceil(batch_fraction * nd))
    root = problem.root
    levels = []
    for l, (lvl, sgrad) in enumerate(zip(root.hierarchy.levels, problem.sampled_grads), start=1):
        if nb == nd:
            noisy = lvl.grad
        else:
            index_sets = _index_sets(np.random.default_rng([int(seed), l]), nd, nb)

            def noisy(x, sgrad=sgrad, index_sets=index_sets):
                return sgrad(x, next(index_sets))

        levels.append(Level(lvl.n, noisy, lvl.value, eval_fraction=nb / nd))
    return dataclasses.replace(problem, hierarchy=LevelHierarchy(levels, root.hierarchy.operators),
                               noise="minibatch(%g,%d)" % (batch_fraction, seed), base=root)


def with_gaussian_noise(problem, sigma, seed):
    """Additive Gaussian gradient noise, one fresh draw per call, per-level streams.

    The noise is added to the given problem's own oracles, so it composes
    with a minibatch wrapper (sampling and its cost fraction are kept).
    """
    _check_real("sigma", sigma)
    _check_int("seed", seed, 0)
    label = "gaussian(%g,%d)" % (sigma, seed)
    levels = []
    for l, lvl in enumerate(problem.hierarchy.levels, start=1):
        stream = np.random.default_rng([int(seed), 7919, l])

        def noisy(x, lvl=lvl, stream=stream):
            return lvl.grad(x) + sigma * stream.standard_normal(lvl.n)

        levels.append(Level(lvl.n, noisy, lvl.value, eval_fraction=lvl.eval_fraction))
    return dataclasses.replace(
        problem, hierarchy=LevelHierarchy(levels, problem.hierarchy.operators),
        noise=label if problem.noise == "none" else problem.noise + "+" + label,
        base=problem.root)


def finite_difference_check(problem, level=None, x=None, h=1e-6, seed=0):
    """Max relative error of the oracle gradient against central differences.

    Coordinates are probed individually up to dimension 100, random unit
    directions beyond that.  Uses exact (noise-free) oracles.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    root = problem.root
    hier = root.hierarchy
    level = hier.r if level is None else level
    lvl = hier.level(level)
    if lvl.value is None:
        raise ValueError("level %d has no value oracle" % level)
    rng = np.random.default_rng(seed)
    if x is None:
        x = (np.asarray(root.x0, dtype=float).copy() if level == hier.r
             else 0.5 * rng.standard_normal(lvl.n))
    g = lvl.grad(x)
    scale = max(1.0, float(np.max(np.abs(g))))
    worst = 0.0
    if lvl.n <= 100:
        for j in range(lvl.n):
            e = np.zeros(lvl.n)
            e[j] = h
            fd = (lvl.value(x + e) - lvl.value(x - e)) / (2.0 * h)
            worst = max(worst, abs(fd - g[j]) / scale)
    else:
        for _ in range(30):
            d = rng.standard_normal(lvl.n)
            d /= np.linalg.norm(d)
            fd = (lvl.value(x + h * d) - lvl.value(x - h * d)) / (2.0 * h)
            worst = max(worst, abs(fd - float(g @ d)) / scale)
    return worst


def _resnet_from_params(n_samples=64, seed=0, **spec):
    return resnet_regression(ResNetSpec(**spec), n_samples=n_samples, seed=seed)


_BUILDERS = {
    "quadratic2d": (quadratic_diag, {"diag", "x0"},
                    "2-d diagonal quadratic, single level"),
    "laplacian1d": (laplacian_quadratic_1d,
                    {"n_fine", "levels", "dataset_size", "noise_scale", "sample_seed"},
                    "1D Dirichlet Laplacian quadratic hierarchy"),
    "chain1d": (nonconvex_chain_1d, {"n_fine", "levels"},
                "nonconvex arc-length chain hierarchy"),
    "resnet": (_resnet_from_params,
               {f.name for f in dataclasses.fields(ResNetSpec)} | {"n_samples", "seed"},
               "depth-coarsened dense-block ResNet regression"),
}

PROBLEM_NAMES = tuple(sorted(_BUILDERS))


def build_problem(name, **params):
    """Instantiate a registered problem; unknown names or parameters raise."""
    if name not in _BUILDERS:
        raise ValueError("unknown problem %r (known: %s)" % (name, ", ".join(PROBLEM_NAMES)))
    builder, allowed, _ = _BUILDERS[name]
    bad = set(params) - allowed
    if bad:
        raise ValueError("unknown parameter(s) %s for problem %r" % (sorted(bad), name))
    return builder(**params)


def list_problems():
    return [(name, _BUILDERS[name][2]) for name in PROBLEM_NAMES]

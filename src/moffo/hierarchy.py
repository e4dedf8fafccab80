"""Level stacks, transfer operators and coherent lower-level models.

A hierarchy is an ordered list of gradient oracles of increasing cost,
coupled by full-rank prolongation/restriction pairs that satisfy
R = omega * P^T for a fixed scalar omega > 0.  Lower levels are optimized
through a first-order coherent model: the plain lower objective plus a
linear correction that makes its gradient at the entry point equal the
restricted upper gradient.
"""

from __future__ import annotations

import math

import numpy as np

from .step import vector_norm

__all__ = [
    "TransferOperator",
    "Level",
    "LevelHierarchy",
    "CoherentModel",
    "linear_interpolation_1d",
    "interior_interpolation_1d",
    "build_coherent_model",
]

_POWER_MAX_ITER = 300
_POWER_TOL = 1e-10
_DENSE_SVD_MAX = 64


def _power_norm(P):
    """Largest singular value of P by power iteration, or None if it stalls.

    Power iteration on the Gram matrix, seeded with the all-ones vector for
    determinism.  With d_k the change of the eigenvalue estimate and
    rho_k = d_k / d_{k-1} its contraction, the change still to come is about
    d_k * rho_k / (1 - rho_k); the estimate is returned once that (or d_k,
    whichever is larger) is within _POWER_TOL of it.  None is returned, for
    the caller's SVD, once the same geometric model says on three iterations
    in a row that the test cannot pass within _POWER_MAX_ITER iterations (a
    contraction of one or more never passes it), which is what a clustered
    top spectrum gives; three, because one early contraction near one can be
    followed by a fast one.
    """
    G = P.T @ P if P.shape[0] >= P.shape[1] else P @ P.T
    v = np.ones(G.shape[0])
    v /= vector_norm(v)
    w = np.empty_like(v)
    lam_old = 0.0
    d_old = math.inf
    stalled = 0
    for k in range(1, _POWER_MAX_ITER + 1):
        np.matmul(G, v, out=w)
        lam = vector_norm(w)
        if lam == 0.0:
            return 0.0
        np.divide(w, lam, out=v)
        d = abs(lam - lam_old)
        rho = d / d_old
        if rho < 1.0 and d * max(1.0, rho / (1.0 - rho)) <= _POWER_TOL * lam:
            return math.sqrt(lam)
        if (rho >= 1.0 or d * rho ** (_POWER_MAX_ITER - k) * max(1.0, rho / (1.0 - rho))
                > _POWER_TOL * lam):
            stalled += 1
            if stalled == 3:
                return None
        else:
            stalled = 0
        lam_old, d_old = lam, d
    return None


class TransferOperator:
    """A prolongation P with its derived restriction R = omega * P^T.

    P maps the coarse space into the fine space and must have full column
    rank.  Instances are immutable after construction; the spectral norm and
    the singular values are computed lazily and cached.  The norm comes
    from the dense SVD for small operators and for those on which power
    iteration stalls, otherwise from power iteration; one SVD per operator
    serves both that fallback and sigma_min.
    """

    def __init__(self, P, omega):
        P = np.asarray(P, dtype=float)
        if P.ndim != 2:
            raise ValueError("prolongation must be a 2-d matrix")
        if not np.isfinite(P).all():
            raise ValueError("prolongation contains non-finite entries")
        omega = float(omega)
        if not 0.0 < omega < math.inf:
            raise ValueError("omega must be positive and finite, got %g" % omega)
        self.P = P
        self.omega = omega
        self.P.setflags(write=False)
        self._norm = None
        self._sv = None

    @property
    def n_fine(self):
        return self.P.shape[0]

    @property
    def n_coarse(self):
        return self.P.shape[1]

    def restriction(self):
        """Dense restriction matrix R = omega * P^T."""
        return self.omega * self.P.T

    def prolong(self, v):
        """Apply P to a coarse vector."""
        return self.P @ v

    def restrict(self, v):
        """Apply R = omega * P^T to a fine vector."""
        return self.omega * (self.P.T @ v)

    def _singular_values(self):
        """All singular values of P in descending order, cached."""
        if self._sv is None:
            self._sv = np.linalg.svd(self.P, compute_uv=False)
        return self._sv

    @property
    def norm(self):
        """Spectral norm of P, cached."""
        if self._norm is None:
            norm = _power_norm(self.P) if min(self.P.shape) > _DENSE_SVD_MAX else None
            self._norm = norm if norm is not None else float(self._singular_values()[0])
        return self._norm

    @property
    def sigma_min(self):
        """Smallest singular value of P; positive iff full column rank."""
        return float(self._singular_values()[-1])

    def __repr__(self):
        return "TransferOperator(%dx%d, omega=%g)" % (self.n_fine, self.n_coarse, self.omega)


def linear_interpolation_1d(n_coarse):
    """Piecewise-linear 1D interpolation on a vertex grid, refinement factor two.

    Returns a (2*n_coarse - 1) x n_coarse prolongation: coarse points are
    copied, midpoints are averaged.  Constants are preserved.  omega = 1/2,
    which makes the derived restriction the usual full-weighting stencil.
    """
    if n_coarse < 2:
        raise ValueError("n_coarse must be >= 2, got %d" % n_coarse)
    n_fine = 2 * n_coarse - 1
    P = np.zeros((n_fine, n_coarse))
    for j in range(n_coarse):
        P[2 * j, j] = 1.0
    for j in range(n_coarse - 1):
        P[2 * j + 1, j] = 0.5
        P[2 * j + 1, j + 1] = 0.5
    return TransferOperator(P, 0.5)


def interior_interpolation_1d(n_coarse):
    """Linear interpolation between nested interior (Dirichlet) grids.

    Coarse grid has n_coarse interior nodes, fine grid 2*n_coarse + 1; both
    exclude the boundary where values are pinned to zero.  Fine nodes aligned
    with coarse nodes are copied, the others are averages of their coarse
    neighbours, with the missing boundary neighbour contributing zero.
    """
    if n_coarse < 1:
        raise ValueError("n_coarse must be >= 1, got %d" % n_coarse)
    n_fine = 2 * n_coarse + 1
    P = np.zeros((n_fine, n_coarse))
    for j in range(n_coarse):
        P[2 * j + 1, j] = 1.0
        P[2 * j, j] = 0.5
        P[2 * j + 2, j] = 0.5
    return TransferOperator(P, 0.5)


class Level:
    """One member of the hierarchy: a dimension plus oracles.

    grad(x) -> gradient vector; may be stochastic (fresh draw per call).
    value(x) -> float, optional, used for diagnostics only: solver control
    flow never reads it.  eval_fraction is the cost, in full-dataset gradient
    units at this level, charged per grad call; it must be finite and >= 0.
    """

    def __init__(self, n, grad, value=None, eval_fraction=1.0):
        eval_fraction = float(eval_fraction)
        if not 0.0 <= eval_fraction < math.inf:
            raise ValueError("eval_fraction must be finite and nonnegative, got %r"
                             % eval_fraction)
        self.n = int(n)
        self.grad = grad
        self.value = value
        self.eval_fraction = eval_fraction


class LevelHierarchy:
    """Ordered stack of levels 1..r (coarse to fine) with transfer operators.

    operators[k] couples levels[k] (coarse) with levels[k+1] (fine); level
    numbering in the public accessors is 1-based to match the solver's
    terminology, and level r is the true objective.
    """

    def __init__(self, levels, operators):
        if not levels:
            raise ValueError("hierarchy needs at least one level")
        if len(operators) != len(levels) - 1:
            raise ValueError(
                "expected %d operators for %d levels, got %d"
                % (len(levels) - 1, len(levels), len(operators))
            )
        for k, op in enumerate(operators):
            if op.n_coarse != levels[k].n or op.n_fine != levels[k + 1].n:
                raise ValueError(
                    "operator %d is %dx%d but links levels of size %d and %d"
                    % (k, op.n_fine, op.n_coarse, levels[k + 1].n, levels[k].n)
                )
        self.levels = list(levels)
        self.operators = list(operators)

    @property
    def r(self):
        return len(self.levels)

    def level(self, l):
        """Level l (1-based)."""
        return self.levels[l - 1]

    def dim(self, l):
        return self.levels[l - 1].n

    def op(self, l):
        """Transfer operator between levels l-1 and l, valid for l >= 2."""
        if l < 2:
            raise ValueError("no operator below level 2")
        return self.operators[l - 2]


class CoherentModel:
    """Lower-level objective modified by a linear term.

    The model h(x) = f_low(x) + v^T (x - x0) has gradient grad_f_low(x) + v,
    and by construction of v its gradient at the anchor x0 equals the
    restricted upper gradient.  The anchor gradient of the base objective is
    cached so the first lower-level iteration reuses the draw that built v;
    with stochastic oracles this keeps the coherence identity exact.
    """

    def __init__(self, base_grad, v, anchor, anchor_model_grad, base_value=None):
        self.base_grad = base_grad
        self.v = np.asarray(v, dtype=float)
        self.anchor = np.asarray(anchor, dtype=float)
        self.anchor_model_grad = np.asarray(anchor_model_grad, dtype=float)
        self.base_value = base_value

    def grad(self, x):
        """Model gradient; costs one base-oracle evaluation."""
        return self.base_grad(x) + self.v

    def value(self, x):
        """Model value, for diagnostics only."""
        if self.base_value is None:
            return None
        return self.base_value(x) + float(self.v @ (x - self.anchor))


def build_coherent_model(lower_oracle, x_low0, rg, lower_value=None):
    """Assemble the coherent lower-level model at an anchor point.

    lower_oracle is the plain gradient of the lower objective; x_low0 the
    entry point (the restricted upper iterate); rg the restricted upper
    gradient R g.  Evaluates the lower oracle once at the anchor.
    """
    x_low0 = np.asarray(x_low0, dtype=float)
    rg = np.asarray(rg, dtype=float)
    if rg.shape != x_low0.shape:
        raise ValueError(
            "restricted gradient has shape %s, anchor has shape %s" % (rg.shape, x_low0.shape)
        )
    g_low0 = lower_oracle(x_low0)
    if g_low0.shape != x_low0.shape:
        raise ValueError("lower oracle returned shape %s" % (g_low0.shape,))
    v = rg - g_low0
    return CoherentModel(lower_oracle, v, x_low0, rg, base_value=lower_value)


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
# Weights a row form admits: 2**k for |k| <= 4.  Every product of two of them
# is a multiple of 2**-8 of at most 2**8, so any sum of at most 2**37 such
# products, and each of its partial sums, is exact.
_EXACT_POWER = 4
# Up to this many coarse columns the dense BLAS product is faster than the
# gather, which takes 0.78x its time at 255x127 but 1.38x at 127x63 (one
# core of a 2-core Xeon).
_GATHER_MIN_COARSE = 64


def _two_entry_rows(P):
    """Row form (i0, i1, c0, c1) of P, or None when P has no such form.

    Row k of P is c0[k] at column i0[k] plus c1[k] at column i1[k], each
    nonzero c a power of two 2**j with |j| <= _EXACT_POWER.  A two-entry row
    has i0 < i1, a one-entry row i1 = i0 and c1 = 0; a P with an empty row
    has no row form.
    """
    if P.size == 0:
        return None
    # a boolean mask is scanned for nonzeros several times faster than P
    at = np.flatnonzero(P != 0.0)
    rows, cols = np.divmod(at, P.shape[1])
    vals = P.ravel()[at]
    nnz = np.bincount(rows, minlength=P.shape[0])
    mant, exp = np.frexp(vals)  # 2**k gives mant 0.5 and exp k + 1
    if (not 1 <= nnz.min() <= nnz.max() <= 2 or not (mant == 0.5).all()
            or not -_EXACT_POWER < exp.min() <= exp.max() <= _EXACT_POWER + 1):
        return None
    first = np.cumsum(nnz) - nnz  # index of each row's first entry in cols and vals
    two = nnz == 2
    second = first + two  # a one-entry row's only entry again
    return cols[first], cols[second], vals[first], np.where(two, vals[second], 0.0)


def _gram(P, rows=None):
    """P^T P for a tall P, P P^T for a wide one.

    With P's row form, P^T P is accumulated from each row's c0**2, c1**2 and
    c0*c1 at (i0, i0), (i1, i1), (i0, i1) and (i1, i0).  Each product and
    partial sum is exact (see _EXACT_POWER), so this equals BLAS's P.T @ P
    bit for bit, whatever order either sums in.
    """
    if P.shape[0] < P.shape[1]:
        return P @ P.T
    if rows is None:
        return P.T @ P
    i0, i1, c0, c1 = rows
    n = P.shape[1]
    at = np.concatenate((i0 * n + i0, i1 * n + i1, i0 * n + i1, i1 * n + i0))
    c01 = c0 * c1
    return np.bincount(at, np.concatenate((c0 * c0, c1 * c1, c01, c01)),
                       minlength=n * n).reshape(n, n)


def _power_norm(P, rows=None):
    """Largest singular value of P by power iteration, or None if it stalls.

    Power iteration on the Gram matrix (_gram, from P's row form when one is
    given), seeded with the all-ones vector for determinism.  With d_k the
    change of the eigenvalue estimate and rho_k = d_k / d_{k-1} its
    contraction, the change still to come is about d_k * rho_k / (1 - rho_k);
    the estimate is returned once that (or d_k, whichever is larger) is
    within _POWER_TOL of it.  None is returned, for the caller's SVD, once
    the same geometric model says on three iterations in a row that the test
    cannot pass within _POWER_MAX_ITER iterations (a contraction of one or
    more never passes it), which is what a clustered top spectrum gives;
    three, because one early contraction near one can be followed by a fast
    one.
    """
    G = _gram(P, rows)
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

    When every row of P has one or two nonzeros, each a power of two from
    1/16 to 16 (as every interpolation here has), the operator keeps P's row
    form: per row the columns i0, i1 and weights c0, c1.  Power iteration
    then forms P^T P from it, and prolong gathers
    (c0 * v[i0] + c1 * v[i1]) + 0.0 once P has more than 64 columns (below
    that the dense product is faster).  Both equal the dense results bit for
    bit: every product by a power of two is exact, a two-term sum rounds
    once as BLAS's does, and + 0.0 turns a -0 that BLAS never returns into
    +0.  The one exception is prolonging a vector with subnormal entries,
    where BLAS's fused multiply-add leaves 0.5 * v[k] unrounded; no solve
    reaches that range.  restrict stays the dense omega * (P.T @ v), because
    its three-term column sums round in an order set by the BLAS kernel.
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
        self._rows = _two_entry_rows(P)
        self._gather = self._rows if P.shape[1] > _GATHER_MIN_COARSE else None
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
        """Apply P to a finite coarse vector."""
        if self._gather is None:
            return self.P @ v
        i0, i1, c0, c1 = self._gather
        return (c0 * v[i0] + c1 * v[i1]) + 0.0

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
            norm = (_power_norm(self.P, self._rows) if min(self.P.shape) > _DENSE_SVD_MAX
                    else None)
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
    P = np.zeros((2 * n_coarse - 1, n_coarse))
    j = np.arange(n_coarse)
    P[2 * j, j] = 1.0
    P[2 * j[:-1] + 1, j[:-1]] = 0.5
    P[2 * j[:-1] + 1, j[1:]] = 0.5
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
    P = np.zeros((2 * n_coarse + 1, n_coarse))
    j = np.arange(n_coarse)
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


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
import numbers

import numpy as np

__all__ = [
    "TransferOperator",
    "Level",
    "LevelHierarchy",
    "CoherentModel",
    "interior_interpolation_1d",
    "build_depth_prolongation",
    "build_coherent_model",
]

# Up to this many coarse columns the dense BLAS products are faster than the
# gather and the scatter: the gather takes 0.78x the time of P @ v at 255x127
# but 1.38x at 127x63, the scatter 0.65-0.9x that of P.T @ v at 255x127
# (one core of a 2-core Xeon).
_GATHER_MIN_COARSE = 64


def _dense(shape, rows):
    """The read-only dense matrix of a row form."""
    cols, weights = rows
    P = np.zeros(shape)
    k = np.arange(shape[0])
    P[k, cols[:, 1]] = weights[:, 1]
    P[k, cols[:, 0]] = weights[:, 0]  # after column 1, which a one-entry row sets to 0
    P.setflags(write=False)
    return P


class TransferOperator:
    """A prolongation P with its derived restriction R = omega * P^T.

    P maps the coarse space into the fine space and must have full column
    rank.  Instances are immutable after construction.  An operator
    constructed from a dense P takes its spectral norm and smallest singular
    value from one SVD, when either is first read, and caches both; the
    constructor keeps a read-only copy of the P it is given.

    The builders below (interior_interpolation_1d, build_depth_prolongation)
    give the operator both values in closed form, and P's row form: two
    (n_fine, 2) arrays, per row the columns i0, i1 and weights c0, c1, each
    1/2, 1 or 2.  Their dense P is made from it only when something reads P,
    as the dense products below do.  An operator constructed from a dense P
    keeps the dense products throughout.  Once P has more than 64 columns
    (below that the dense products are faster), prolong gathers
    (c0 * v[i0] + c1 * v[i1]) + 0.0, and restrict scatters the products
    c0 * v[k], c1 * v[k] into columns i0, i1 with np.bincount, which adds
    each column's entries to +0.0 in fine-row order, then scales the sums by
    omega.

    Both equal the dense P @ v and omega * (P.T @ v) bit for bit with this
    build's OpenBLAS: every product by a power of two is exact, a two-term
    sum rounds once as BLAS's does, BLAS adds a column's three entries in
    fine-row order for the built-in shapes that restrict scatters, and the
    + 0.0 (or bincount's +0.0 start) turns a -0 that BLAS never returns into
    +0.  The exceptions are vectors with subnormal entries, where BLAS's
    fused multiply-add leaves 0.5 * v[k] unrounded (no solve reaches that
    range), and two shapes whose restriction BLAS sums in another order, so
    that its last bit may differ: build_depth_prolongation(k) with k > 64
    called directly, and a width-1 ResNet whose shared block
    takes its coarse dimension past 64.  No problem built here uses either.
    """

    def __init__(self, P, omega):
        P = np.array(P, dtype=float)  # a copy: the caller's array stays writable
        if P.ndim != 2:
            raise ValueError("prolongation must be a 2-d matrix")
        if P.size == 0:
            raise ValueError("prolongation has shape %s, needs a row and a column"
                             % (P.shape,))
        if not np.isfinite(P).all():
            raise ValueError("prolongation contains non-finite entries")
        P.setflags(write=False)
        self._setup(P.shape, None, omega)
        self._P = P

    @classmethod
    def _from_rows(cls, shape, rows, omega, norm, sigma_min):
        """Operator of a builder's row form (cols, weights) of a shape-sized P,
        with P's spectral norm and smallest singular value."""
        op = cls.__new__(cls)
        op._setup(shape, rows, omega)
        op._norm, op._sigma_min = norm, sigma_min
        return op

    def _setup(self, shape, rows, omega):
        omega = float(omega)
        if not 0.0 < omega < math.inf:
            raise ValueError("omega must be positive and finite, got %g" % omega)
        self.omega = omega
        self._shape = shape
        self._rows = rows
        self._P = None
        # the row form serves prolong and restrict above the cut
        self._gather = rows if shape[1] > _GATHER_MIN_COARSE else None
        self._norm = None
        self._sigma_min = None

    @property
    def P(self):
        """The dense prolongation matrix, read-only; made once, when first read."""
        if self._P is None:
            self._P = _dense(self._shape, self._rows)
        return self._P

    @property
    def n_fine(self):
        return self._shape[0]

    @property
    def n_coarse(self):
        return self._shape[1]

    def prolong(self, v):
        """Apply P to a finite coarse vector."""
        if self._gather is None:
            return self.P @ v
        cols, weights = self._gather
        t = weights * v[cols]
        return (t[:, 0] + t[:, 1]) + 0.0

    def restrict(self, v):
        """Apply R = omega * P^T to a finite fine vector."""
        if self._gather is None:
            return self.omega * (self.P.T @ v)
        cols, weights = self._gather
        # cols and weights are C-ordered, so ravel lists the entries by fine row
        return self.omega * np.bincount(cols.ravel(), (weights * v[:, None]).ravel(),
                                        minlength=self.n_coarse)

    def _svd(self):
        """Cache the largest and smallest singular values of a dense P."""
        sv = np.linalg.svd(self._P, compute_uv=False)
        self._norm = float(sv[0])
        # with more columns than rows, P^T P has n_coarse - n_fine zero eigenvalues
        self._sigma_min = float(sv[-1]) if self.n_fine >= self.n_coarse else 0.0

    @property
    def norm(self):
        """Spectral norm of P, cached."""
        if self._norm is None:
            self._svd()
        return self._norm

    @property
    def sigma_min(self):
        """Smallest singular value of P; positive iff full column rank."""
        if self._sigma_min is None:
            self._svd()
        return self._sigma_min

    def __repr__(self):
        return "TransferOperator(%dx%d, omega=%g)" % (self.n_fine, self.n_coarse, self.omega)


def interior_interpolation_1d(n_coarse):
    """Linear interpolation between nested interior (Dirichlet) grids.

    Coarse grid has n_coarse interior nodes, fine grid 2*n_coarse + 1; both
    exclude the boundary where values are pinned to zero.  Fine nodes aligned
    with coarse nodes are copied, the others are averages of their coarse
    neighbours, with the missing boundary neighbour contributing zero.
    """
    if isinstance(n_coarse, bool) or not isinstance(n_coarse, numbers.Integral) or n_coarse < 1:
        raise ValueError("n_coarse must be an integer >= 1, got %r" % (n_coarse,))
    # fine row 2j + 1 copies coarse node j, fine row 2j averages nodes j - 1 and j
    k = np.arange(2 * n_coarse + 1)
    cols = (k[:, None] + (-1, 0)) // 2
    weights = np.array([[0.5, 0.5], [1.0, 0.0]])[k & 1]
    # the end rows have one neighbour each
    cols[0, 0] = 0
    cols[-1, 1] = n_coarse - 1
    weights[[0, -1], 1] = 0.0
    # P^T P = tridiag(1/4, 3/2, 1/4), of eigenvalues 3/2 + cos(pi j / (n + 1)) / 2
    c = 0.5 * math.cos(math.pi / (n_coarse + 1))
    return TransferOperator._from_rows((k.size, n_coarse), (cols, weights), 0.5,
                                       math.sqrt(1.5 + c), math.sqrt(1.5 - c))


def build_depth_prolongation(k_coarse, block_size=1, n_shared=0):
    """Linear interpolation across layers, refinement factor two, omega = 1/2.

    Fine layer 2j copies coarse layer j and fine layer 2j + 1 averages layers
    j and j + 1, on each of a layer's block_size coordinates, as
    np.kron(P_1d, np.eye(block_size)) does; the derived restriction is full
    weighting.  The n_shared trailing (time-independent) coordinates are
    prolonged by 2, so the restriction leaves them untouched.
    """
    args = (k_coarse, block_size, n_shared)
    if not (all(isinstance(a, numbers.Integral) and not isinstance(a, bool) for a in args)
            and k_coarse >= 2 and block_size >= 1 and n_shared >= 0):
        raise ValueError("need integers k_coarse >= 2, block_size >= 1 and n_shared >= 0, "
                         "got %r, %r, %r" % args)
    k = np.arange(2 * k_coarse - 1)
    n_fine, n_coarse = k.size * block_size, k_coarse * block_size
    cols = np.empty((n_fine + n_shared, 2), dtype=k.dtype)
    weights = np.empty((n_fine + n_shared, 2))
    # fine row a * block_size + t is layer row a on coordinate t
    cols[:n_fine] = (((k[:, None] + (0, 1)) // 2 * block_size)[:, None]
                     + np.arange(block_size)[:, None]).reshape(n_fine, 2)
    weights[:n_fine] = np.repeat(np.array([[1.0, 0.0], [0.5, 0.5]])[k & 1], block_size, axis=0)
    cols[n_fine:] = (n_coarse + np.arange(n_shared))[:, None]
    weights[n_fine:] = 2.0, 0.0
    # per coordinate P^T P = I + S^T S / 4, with S the (k_coarse - 1) x k_coarse
    # two-point sum, of eigenvalues 1 + (1 + cos(pi j / k_coarse)) / 2, j = 1..k_coarse;
    # the shared block's are 4
    norm = 2.0 if n_shared else math.sqrt(1.5 + 0.5 * math.cos(math.pi / k_coarse))
    return TransferOperator._from_rows((n_fine + n_shared, n_coarse + n_shared),
                                       (cols, weights), 0.5, norm, 1.0)


class Level:
    """One member of the hierarchy: a dimension n >= 1 plus oracles.

    grad(x) -> gradient vector; may be stochastic (fresh draw per call).
    value(x) -> float, optional, used for diagnostics only: solver control
    flow never reads it.  eval_fraction is the cost, in full-dataset gradient
    units at this level, charged per grad call; it must be finite and >= 0.
    """

    def __init__(self, n, grad, value=None, eval_fraction=1.0):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError("n must be an integer >= 1, got %r" % (n,))
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


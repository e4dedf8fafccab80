"""Componentwise trust-region construction and Taylor-step computation.

The raw radius is |g_j| / w_j per coordinate; below the top level it is
shrunk so a full step can never overshoot the level's total movement budget
by more than a factor two.  Steps are computed from the box-constrained
steepest-descent point (linear step) and a Cauchy-type scaling against a
bounded Hessian model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvariantError",
    "TrustRegion",
    "HessianModel",
    "compute_radius",
    "linear_step",
    "cauchy_step",
    "taylor_step",
    "vector_norm",
]

_SLACK = 1e-12


class InvariantError(AssertionError):
    """A theory invariant of the method failed.

    This signals an internal defect, not bad input, and is raised with or
    without python -O.
    """


def vector_norm(v):
    """Euclidean norm of a contiguous 1-D float array.

    Bit-equal to float(np.linalg.norm(v)), which for such an array is the
    square root of v.dot(v), without the wrapper's dispatch cost.
    """
    return math.sqrt(v.dot(v))


@dataclass(slots=True)
class TrustRegion:
    """Componentwise radius delta, its uncapped version delta_hat, and the
    Euclidean norms of both radii."""

    delta_hat: np.ndarray
    delta: np.ndarray
    delta_hat_norm: float
    delta_norm: float


class HessianModel:
    """Zero or diagonal Hessian approximation with a spectral bound kappa_B >= 1."""

    def __init__(self, kind, data=None, kappa_B=1.0):
        if kind not in ("zero", "diagonal"):
            raise ValueError("unknown Hessian kind %r" % kind)
        if not 1.0 <= kappa_B < math.inf:
            raise ValueError("kappa_B must be finite and >= 1")
        self.kind = kind
        self.kappa_B = float(kappa_B)
        if kind == "zero":
            self.data = None
        else:
            d = np.asarray(data, dtype=float)
            # written so that a NaN or infinite entry fails it
            if not np.max(np.abs(d), initial=0.0) <= self.kappa_B * (1.0 + _SLACK):
                raise ValueError("diagonal exceeds kappa_B bound or is not finite")
            self.data = d

    @classmethod
    def zero(cls, kappa_B=1.0):
        return cls("zero", kappa_B=kappa_B)

    @classmethod
    def diagonal(cls, d, kappa_B=None):
        d = np.asarray(d, dtype=float)
        if kappa_B is None:
            kappa_B = max(1.0, float(np.max(np.abs(d), initial=0.0)))
        return cls("diagonal", d, kappa_B=kappa_B)

    def matvec(self, s):
        if self.kind == "zero":
            return np.zeros_like(s)
        return self.data * s

    def quad(self, s):
        """s^T B s."""
        return float(s @ self.matvec(s))

    def model(self, g, s):
        """g^T s + (1/2) s^T B s."""
        return float(g @ s) + 0.5 * self.quad(s)


def compute_radius(w, abs_g, w_min, is_top, delta, P_up_norm, scale=1.0):
    """Build the trust region from weights w, the gradient magnitudes
    abs_g = |g| and the smallest weight w_min = min(w).

    At the top level the radius is the raw scale * |g| / w.  Below it, the
    raw radius is shrunk by min(2*delta / (P_up_norm * ||raw||), 1) so that
    prolonged steps stay commensurate with the remaining budget delta.
    """
    if not w_min > 0.0:
        raise ValueError("weights must be strictly positive")
    delta_hat = scale * abs_g / w
    nd = vector_norm(delta_hat)
    if is_top:
        return TrustRegion(delta_hat, delta_hat, nd, nd)
    if not delta > 0.0:
        raise ValueError("lower-level budget delta must be positive")
    factor = min(2.0 * delta / (P_up_norm * nd), 1.0) if nd > 0.0 else 1.0
    if factor == 1.0:
        # 1.0 * delta_hat is exact, so the uncapped radius and its norm serve.
        return TrustRegion(delta_hat, delta_hat, nd, nd)
    capped = factor * delta_hat
    return TrustRegion(delta_hat, capped, nd, vector_norm(capped))


def linear_step(g, delta):
    """Minimizer of g^T s over the box |s_j| <= delta_j; sign(0) = 0."""
    return -np.sign(g) * delta


def cauchy_step(g, delta, B):
    """Linear step rescaled by the Cauchy factor against the quadratic model."""
    sL = linear_step(np.asarray(g, dtype=float), np.asarray(delta, dtype=float))
    curv = B.quad(sL)
    if curv > 0.0:
        gamma = min(1.0, abs(float(g @ sL)) / curv)
    else:
        gamma = 1.0
    return gamma * sL


def taylor_step(g, delta, B, tau):
    """Step inside the box achieving at least a tau fraction of the Cauchy decrease.

    The step is the Cauchy point itself, which meets the decrease condition
    with equality for any tau <= 1.  With the zero model the Cauchy factor
    is exactly 1 and the quadratic term exactly 0, so the step is the linear
    step and its model value is g^T s.  Violations of the box or decrease
    conditions indicate an internal bug and raise InvariantError.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    g = np.asarray(g, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if B.kind == "zero":
        s = linear_step(g, delta)
        m = float(g @ s)
    else:
        s = cauchy_step(g, delta, B)
        m = B.model(g, s)
    if not np.logical_and.reduce(np.abs(s) <= delta * (1.0 + _SLACK) + _SLACK):
        raise InvariantError("step left the trust region")
    if not m <= tau * m + _SLACK * (1.0 + abs(m)):
        raise InvariantError("decrease condition violated")
    return s


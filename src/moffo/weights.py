"""Per-coordinate weight schedules controlling the trust-region radius.

Two families are provided.  The AdaGrad-like family raises a shifted sum of
squared gradient components to a power mu in (0,1); AdaGrad itself is the
mu = 1/2 member.  The divergent (MAXGI) family multiplies the running
maximum of |g_j| by (i+1)^nu.  Both are componentwise nondecreasing and
bounded below by floors in (0,1].

Lower-level starting weights must additionally be large against the
restricted gradient (so the first lower step fits in its budget) and large
against the upper weights; the init_lower_* helpers construct the smallest
such vectors, and seed_lower_state extends them into a full schedule.
"""

from __future__ import annotations

import math

import numpy as np

from .step import vector_norm

__all__ = [
    "ADAGRAD_LIKE",
    "MAXGI",
    "WeightState",
    "init_lower_divergent",
    "init_lower_adagrad",
    "seed_lower_state",
]

ADAGRAD_LIKE = "adagrad_like"
MAXGI = "maxgi"


def as_floor_vector(varsigma, dim):
    """Broadcast a scalar or vector of floors to shape (dim,) and validate."""
    v = np.asarray(varsigma, dtype=float)
    if v.ndim == 0:
        v = np.full(dim, float(v))
    if v.shape != (dim,):
        raise ValueError("floor vector has shape %s, expected (%d,)" % (v.shape, dim))
    if not (v.min() > 0.0 and v.max() <= 1.0):
        raise ValueError("floors must lie in (0, 1]")
    return v


class WeightState:
    """Mutable per-level weight schedule state.

    kind: ADAGRAD_LIKE emits max(floor, (varsigma + c + sum g^2)^mu);
    MAXGI emits max(floor, max(varsigma, running max |g|) * (i+1)^nu).
    A state is owned by exactly one level visit at a time.  w0, when given,
    holds prescribed entry weights: the first update emits them verbatim and
    every later weight is floored by them componentwise.
    """

    def __init__(self, kind, mu, nu, varsigma, dim, w0=None):
        if kind not in (ADAGRAD_LIKE, MAXGI):
            raise ValueError("unknown weight kind %r" % kind)
        if not 0.0 < mu < 1.0:
            raise ValueError("mu must lie in (0, 1), got %g" % mu)
        if kind == MAXGI:
            if nu is None:
                nu = mu
            if not 0.0 < nu <= mu:
                raise ValueError("nu must lie in (0, mu], got %g" % nu)
        self.kind = kind
        self.mu = float(mu)
        self.nu = None if kind == ADAGRAD_LIKE else float(nu)
        self.dim = int(dim)
        self.varsigma = as_floor_vector(varsigma, dim)
        self.i = 0
        # accumulator: sum of squares (adagrad_like) or running max (maxgi)
        self.acc = np.zeros(dim)
        # varsigma + c + acc evaluates left to right, so the constant part
        # is summed once; with no offset c it is varsigma, whose entries are
        # positive, so adding zeros would change no bit
        self._shift = self.varsigma
        self.w0 = None if w0 is None else np.array(w0, dtype=float)

    def _set_offset(self, base_offset):
        """Take base_offset, which must be nonnegative, as the offsets c."""
        c = np.asarray(base_offset, dtype=float)
        if not c.min() >= 0.0:
            raise ValueError("base offsets must be nonnegative")
        self._shift = self.varsigma + c

    def update(self, g, gg):
        """Fold the current gradient g, with its squares gg = g * g, in and
        emit the weights for this iteration."""
        g = np.asarray(g, dtype=float)
        if g.shape != (self.dim,):
            raise ValueError("gradient has shape %s, expected (%d,)" % (g.shape, self.dim))
        if self.kind == ADAGRAD_LIKE:
            self.acc = self.acc + gg
            w = (self._shift + self.acc) ** self.mu
        else:
            self.acc = np.maximum(self.acc, np.abs(g))
            w = np.maximum(self.varsigma, self.acc) * (self.i + 1.0) ** self.nu
        if self.w0 is not None:
            # Seeded lower-level state: the entry weights are emitted verbatim
            # (the accumulators above already absorbed g0), then floor the rest.
            w = np.maximum(self.w0, w) if self.i else self.w0
        self.i += 1
        return w


def _budget_feasible(floors, P_norm, Rg, alpha, Delta_norm):
    """Componentwise max of the floors and the budget term that makes the
    first lower radius fit in the Euclidean norm, hence the sqrt(n) factor."""
    if Delta_norm <= 0.0:
        raise ValueError("Delta_norm must be positive")
    Rg = np.asarray(Rg, dtype=float)
    return np.maximum(floors, math.sqrt(Rg.shape[0]) * P_norm * np.abs(Rg) / (alpha * Delta_norm))


def init_lower_divergent(floors, P_norm, Rg, alpha, Delta_norm, min_upper_weight):
    """Starting weights for a lower level under the divergent family.

    Componentwise max of the floors, the budget term making the first lower
    radius fit (in the Euclidean norm, hence the sqrt(n) factor), and the
    smallest upper weight, which keeps the lower minimum weight no smaller
    than the upper one.  floors is a floor vector of Rg's size, as
    returned by as_floor_vector.
    """
    return np.maximum(_budget_feasible(floors, P_norm, Rg, alpha, Delta_norm),
                      float(min_upper_weight))


def init_lower_adagrad(floors, P_norm, Rg, alpha, Delta_norm, upper_weight_norm):
    """Starting weights for a lower level under the AdaGrad-like family.

    First builds the componentwise budget-feasible vector, then scales it up
    so its Euclidean norm is at least the norm of the upper weights; when no
    scaling is needed the budget-feasible vector itself is returned.
    floors is as for init_lower_divergent.
    """
    w_hat = _budget_feasible(floors, P_norm, Rg, alpha, Delta_norm)
    scale = max(1.0, float(upper_weight_norm) / vector_norm(w_hat))
    # 1.0 * w_hat is exact, so the unscaled vector serves as is.
    return w_hat if scale == 1.0 else scale * w_hat


def seed_lower_state(kind, mu, nu, varsigma, w0, g0):
    """Wrap prescribed entry weights into a schedule for the rest of the visit.

    The first update emits w0 exactly; later weights follow the family's
    rule, floored componentwise by w0 so they never decrease below the entry
    values.  For the AdaGrad-like family, base offsets are chosen as the
    largest nonnegative values for which the accumulator formula at entry
    does not exceed w0.
    """
    w0 = np.asarray(w0, dtype=float)
    g0 = np.asarray(g0, dtype=float)
    if w0.shape != g0.shape:
        raise ValueError("w0 and g0 must have the same shape")
    # the state validates the floors once, and the offset reads its vector
    state = WeightState(kind, mu, nu, varsigma, w0.shape[0], w0=w0)
    if kind == ADAGRAD_LIKE:
        state._set_offset(np.maximum(0.0, w0 ** (1.0 / mu) - state.varsigma - g0 * g0))
    return state

"""Recursive multilevel objective-function-free trust-region driver.

Control flow is a function of gradients, weights and geometry only; value
oracles are consulted solely to fill the diagnostic column of the trace.
Each level visit runs: a budget guard on the prolonged total movement, a
gradient evaluation with termination tests, a weight update defining the
componentwise trust region, an optional recursion into the coarser level
(gated by the significant-progress test), and otherwise a Taylor step.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .hierarchy import LevelHierarchy, build_coherent_model
from .step import HessianModel, InvariantError, compute_radius, taylor_step, vector_norm
from .weights import (
    ADAGRAD_LIKE,
    MAXGI,
    WeightState,
    as_floor_vector,
    init_lower_adagrad,
    init_lower_divergent,
    seed_lower_state,
)

__all__ = [
    "NonFiniteGradientError",
    "SolverConfig",
    "CostLedger",
    "IterationRecord",
    "RecordView",
    "Trace",
    "TRACE_COLUMNS",
    "write_trace_csv",
    "SolveResult",
    "should_recurse",
    "solve",
]

_ASSERT_RTOL = 1e-9


def _is_integral(v):
    """An integral real number (2 or 2.0), but not a bool, NaN or infinity."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and float(v).is_integer())


class NonFiniteGradientError(ValueError):
    """A gradient oracle returned NaN or infinite components (or components
    whose squared norm overflows)."""

    def __init__(self, level, iteration, gnorm):
        super().__init__("non-finite gradient at level %d, iteration %d (norm %r)"
                         % (level, iteration, gnorm))
        self.level = level
        self.iteration = iteration


@dataclass
class SolverConfig:
    """Tunable constants of the solver; ranges are validated up front."""

    weight_kind: str = ADAGRAD_LIKE
    mu: float = 0.5
    nu: float | None = None          # maxgi exponent, defaults to mu
    varsigma: float | np.ndarray = 0.01
    kappa_R: float = 0.01
    alpha: float = 5.0
    tau: float = 1.0
    kappa_B: float = 1.0
    eps_top: float = 1e-3
    i_max: list[int] | None = None   # per-level budgets, coarse to fine
    i_max_top: int = 1000
    pre_smooth: int = 1
    post_smooth: int = 0
    lower_eps_factor: float = 0.1
    step_scale: float = 1.0
    strict_descent_monitoring: bool = False
    diag_values: bool = False
    record_iterates: bool = False

    def validate(self, r):
        # Range tests are written so that NaN, and infinity where a finite
        # value is needed, fail them.
        if self.weight_kind not in (ADAGRAD_LIKE, MAXGI):
            raise ValueError("unknown weight kind %r" % self.weight_kind)
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        nu = self.nu_resolved()
        if self.weight_kind == MAXGI and not 0.0 < nu <= self.mu:
            raise ValueError("nu must lie in (0, mu]")
        if not 0.0 < self.kappa_R < 1.0:
            raise ValueError("kappa_R must lie in (0, 1)")
        if not 1.0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and >= 1")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if not 1.0 <= self.kappa_B < math.inf:
            raise ValueError("kappa_B must be finite and >= 1")
        if not self.eps_top > 0.0:
            raise ValueError("eps_top must be positive")
        if not (_is_integral(self.pre_smooth) and _is_integral(self.post_smooth)
                and self.pre_smooth >= 1 and self.post_smooth >= 0):
            raise ValueError("need integers pre_smooth >= 1 and post_smooth >= 0")
        if not 0.0 < self.lower_eps_factor <= 1.0:
            raise ValueError("lower_eps_factor must lie in (0, 1]")
        if not 0.0 < self.step_scale < math.inf:
            raise ValueError("step_scale must be positive and finite")
        if not _is_integral(self.i_max_top) or self.i_max_top < 1:
            raise ValueError("i_max_top must be a positive integer")
        budgets = self.i_max if self.i_max is not None else self.resolved_i_max(r)
        if len(budgets) != r or not all(_is_integral(b) and b >= 1 for b in budgets):
            raise ValueError("i_max must be %d positive integers" % r)
        v = np.asarray(self.varsigma, dtype=float)  # shape checked per level later
        if v.size == 0 or not (v.min() > 0.0 and v.max() <= 1.0):
            raise ValueError("varsigma must lie in (0, 1]")
        if v.ndim != 0 and r > 1:
            raise ValueError("per-coordinate floors require a single-level hierarchy")

    def nu_resolved(self):
        return self.mu if self.nu is None else self.nu

    def resolved_i_max(self, r):
        """Per-level budgets: explicit, or a V-cycle default.

        The default gives the lowest level 10 iterations, intermediate levels
        exactly one smoothing pass plus one recursion, and the top level the
        configured budget.
        """
        if self.i_max is not None:
            return [int(b) for b in self.i_max]
        if r == 1:
            return [int(self.i_max_top)]
        middle = self.pre_smooth + 1 + self.post_smooth
        return [10] + [middle] * (r - 2) + [int(self.i_max_top)]


class CostLedger:
    """Gradient-evaluation counts per level, in full-dataset units.

    The total cost scales level-l counts by 2**(l - r), the relative cost of
    one full gradient at level l against one at the top level.
    """

    def __init__(self, r):
        self.r = int(r)
        self.counts = np.zeros(self.r)
        self._weights = 2.0 ** (np.arange(1, self.r + 1) - self.r)

    def add(self, level, fraction):
        if not 0 <= fraction < math.inf:
            raise ValueError("cost increments must be finite and nonnegative, got %r"
                             % fraction)
        self.counts[level - 1] += fraction

    def count(self, level):
        return float(self.counts[level - 1])

    def total(self):
        # ndarray.dot skips the matmul dispatch of @; the two differ only in
        # the sign of a zero result, which nonnegative operands cannot give.
        return float(self._weights.dot(self.counts))


@dataclass(slots=True)
class IterationRecord:
    """One gradient evaluation at some level, with the step it produced.

    Terminal evaluations (tolerance reached, budget exhausted, or the
    lower-level descent monitor tripping) carry zero step and radius norms.
    The diagnostic objective value is never consumed by control flow.
    A Trace stores its records packed and returns them in this form.
    """

    level: int
    index: int
    kind: str
    grad_norm: float
    step_norm: float
    delta_hat_norm: float
    delta_norm: float
    w_min: float | None
    w_max: float | None
    cost_cum: float
    f_diag: float | None = None


# One trace row: level, index, a kind code, the seven norm, weight and cost
# fields and f_diag, as native doubles.  The code's low bit marks a recursive
# step; each other bit marks a None in the field it names, whose slot then
# holds 0.0.  Levels and indices are exact below 2**53.
_ROW = struct.Struct("=11d")
_ROW_WIDTH = _ROW.size // 8  # doubles per row
_KINDS = ("taylor", "recursive")
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}
_KIND_NAMES = np.array(_KINDS, dtype=object)
_NO_W_MIN, _NO_W_MAX, _NO_F_DIAG = 2, 4, 8
_NULLABLE = ((7, _NO_W_MIN), (8, _NO_W_MAX), (10, _NO_F_DIAG))  # (column, flag bit)
_DECODE_ROWS = 256  # rows decoded per block, bounding the Python objects alive
_CSV_ROWS = 64  # rows per CSV % operation; 256 raised lap255 peak RSS by 1.3 MB

TRACE_COLUMNS = ("level", "iter", "kind", "grad_norm", "step_norm", "delta_hat_norm",
                 "delta_norm", "w_min", "w_max", "cost_cum", "f_diag")
# The %-format of one CSV line per kind code, fed the row without its code
# column: "%.0s" prints the 0.0 slot of a None as an empty field.
_LINE_FORMATS = [
    ",".join(["%d", "%d", _KINDS[code & 1]]
             + ["%.0s" if code & dict(_NULLABLE).get(j, 0) else "%.17g"
                for j in range(3, _ROW_WIDTH)]) + "\n"
    for code in range(2 * _NO_F_DIAG)]


def _decode(block):
    """The IterationRecord fields of a (rows, 11) block of packed rows, as
    tuples; the block is decoded column by column."""
    code = block[:, 2].astype(np.int64)
    cols = [block[:, 0].astype(np.int64).tolist(), block[:, 1].astype(np.int64).tolist(),
            _KIND_NAMES[code & 1].tolist()]
    cols += [block[:, j].tolist() for j in range(3, _ROW_WIDTH)]
    for j, bit in _NULLABLE:
        col = cols[j]
        for k in np.flatnonzero(code & bit).tolist():
            col[k] = None
    return zip(*cols)


class RecordView(Sequence):
    """Read-only sequence of the IterationRecords of a trace, unpacked on access.

    The view of every record is live: it sees records added after it was
    made, as the list it replaces did.  A view of chosen rows (as
    top_records() returns) is fixed when made.
    """

    __slots__ = ("_trace", "_pos")

    def __init__(self, trace, pos=None):
        self._trace = trace
        self._pos = pos

    def __len__(self):
        return len(self._trace) if self._pos is None else len(self._pos)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(itertools.starmap(IterationRecord,
                                          self._at(np.arange(len(self))[i])))
        n = len(self)
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace record index out of range")
        return IterationRecord(*next(self._at(np.array([i]))))

    def __iter__(self):
        return itertools.starmap(IterationRecord, self._trace._rows_at(self._pos))

    def _at(self, k):
        return self._trace._rows_at(k if self._pos is None else self._pos[k])


class Trace:
    """Chronological records over all levels plus optional top iterates.

    Records are stored as packed fixed-width rows of one bytearray, 88 bytes
    each against about 330 for a record object and its floats, and are read
    back through RecordView.
    """

    def __init__(self, r):
        self.r = int(r)
        self.top_iterates = []
        self._rows = bytearray()

    def add(self, level, index, kind, grad_norm, step_norm, delta_hat_norm, delta_norm,
            w_min, w_max, cost_cum, f_diag=None):
        """Append one record, given by the fields of an IterationRecord."""
        code = _KIND_CODES.get(kind)
        if code is None:
            raise ValueError("unknown record kind %r" % (kind,))
        if w_min is None:
            code += _NO_W_MIN
            w_min = 0.0
        if w_max is None:
            code += _NO_W_MAX
            w_max = 0.0
        if f_diag is None:
            code += _NO_F_DIAG
            f_diag = 0.0
        self._rows += _ROW.pack(level, index, code, grad_norm, step_norm, delta_hat_norm,
                                delta_norm, w_min, w_max, cost_cum, f_diag)

    @property
    def records(self):
        return RecordView(self)

    def top_records(self):
        return RecordView(self, np.flatnonzero(self._table()[:, 0] == self.r))

    def top_grad_norms(self):
        table = self._table()
        return table[table[:, 0] == self.r, 3]

    def __len__(self):
        return len(self._rows) // _ROW.size

    def _table(self):
        # Packed rows as a (rows, 11) array.  It holds the bytearray's buffer,
        # which cannot grow until the array is gone, so callers keep only
        # copies made from it.
        return np.frombuffer(self._rows, dtype=np.float64).reshape(-1, _ROW_WIDTH)

    def _blocks(self, pos=None, rows=_DECODE_ROWS):
        """Copied blocks of up to rows packed rows at positions pos, or of
        every row, including rows added while the iteration runs."""
        start = 0
        while start < (len(self) if pos is None else len(pos)):
            stop = start + rows
            block = self._table()[slice(start, stop) if pos is None else pos[start:stop]].copy()
            start += len(block)
            yield block

    def _rows_at(self, pos=None):
        """Decoded rows at positions pos, or every row."""
        return itertools.chain.from_iterable(map(_decode, self._blocks(pos)))


def write_trace_csv(trace, path):
    """Write the flat per-iteration trace in the fixed column order, one %
    operation per block of packed rows."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for block in trace._blocks(rows=_CSV_ROWS):
            fmt = "".join([_LINE_FORMATS[c] for c in block[:, 2].astype(np.int64).tolist()])
            fh.write(fmt % tuple(np.delete(block, 2, axis=1).ravel().tolist()))


@dataclass
class SolveResult:
    x: np.ndarray
    status: str
    final_grad_norm: float
    iterations: int
    trace: Trace
    ledger: CostLedger


def should_recurse(Rg, w_low, g, w, kappa_R, decrease=None):
    """Significant-progress test: the restricted linear decrease is at least
    a kappa_R fraction of the current level's.

    decrease, when given, is the current level's sum of g**2 / w, already
    computed by the caller; it is recomputed from g and w otherwise.
    """
    Rg = np.asarray(Rg, dtype=float)
    lhs = float(np.add.reduce(Rg * Rg / np.asarray(w_low, dtype=float)))
    if decrease is None:
        g = np.asarray(g, dtype=float)
        decrease = float(np.add.reduce(g * g / np.asarray(w, dtype=float)))
    return lhs >= kappa_R * decrease


class _Runtime:
    """Shared state threaded through the recursion."""

    def __init__(self, hier, cfg, ledger, trace):
        self.hier = hier
        self.cfg = cfg
        self.ledger = ledger
        self.trace = trace
        self.r = hier.r
        self.i_max = cfg.resolved_i_max(hier.r)
        # validated floor vectors, floors[l - 1] for level l
        self.floors = [as_floor_vector(cfg.varsigma, hier.dim(l)) for l in range(1, hier.r + 1)]
        self.varsigma_min = min(float(f.min()) for f in self.floors)
        self.B = HessianModel.zero(cfg.kappa_B)
        self.best_gnorm = math.inf
        self.best_x = None


def _eval_gradient(rt, level, objective, x, eval_fraction):
    """Evaluate the objective's gradient, charging the ledger eval_fraction.

    The result is contiguous, which vector_norm relies on.
    """
    g = np.ascontiguousarray(objective.grad(x), dtype=float)
    if g.shape != x.shape:
        raise ValueError("level %d gradient has shape %s, expected %s"
                         % (level, g.shape, x.shape))
    rt.ledger.add(level, eval_fraction)
    return g


def _run_level(rt, level, objective, x0, eps, delta_cap, wstate, g0=None,
               monitor_threshold=None):
    """One solver call at the given level; returns (x_plus, completed_steps,
    moved).

    objective is the top Level or a lower level's CoherentModel.  g0, when
    given, is the gradient at x0, already evaluated and charged (a coherent
    model's anchor gradient); iteration 0 uses it instead of a fresh draw.
    moved is P(x_plus - x0) for the operator P to the level above, as the
    budget guard formed it, and None at the top level.
    """
    cfg = rt.cfg
    r = rt.r
    is_top = level == r
    op_up = rt.hier.op(level + 1) if level < r else None
    op_down = rt.hier.op(level) if level > 1 else None
    up_norm = op_up.norm if op_up is not None else 0.0
    eval_fraction = rt.hier.level(level).eval_fraction
    i_budget = rt.i_max[level - 1]
    # cycle schedule: pre_smooth Taylor iterations, one recursion slot, then
    # post_smooth Taylor iterations, repeating; its period is read once per visit
    pre_smooth = cfg.pre_smooth
    period = pre_smooth + 1 + cfg.post_smooth
    value = objective.value if cfg.diag_values else None
    record_iterates = cfg.record_iterates
    step_scale, tau = cfg.step_scale, cfg.tau
    x0 = np.asarray(x0, dtype=float)
    x = x0.copy()
    x_prev = None
    moved = None
    i = 0
    while True:
        # Step 1: budget guard, then gradient evaluation and termination tests.
        if level < r:
            moved_prev, moved = moved, op_up.prolong(x - x0)
            if vector_norm(moved) > delta_cap:
                if x_prev is None:
                    raise InvariantError("movement budget violated at entry")
                return x_prev, i - 1, moved_prev
        if i == 0 and g0 is not None:
            g = g0
        else:
            g = _eval_gradient(rt, level, objective, x, eval_fraction)
        gnorm = vector_norm(g)
        if not math.isfinite(gnorm):
            raise NonFiniteGradientError(level, i, gnorm)
        f_diag = None if value is None else value(x)
        if is_top:
            if record_iterates:
                rt.trace.top_iterates.append(x.copy())
            if gnorm < rt.best_gnorm:
                rt.best_gnorm = gnorm
                # iterates are rebound by x = x + s, never written in place
                rt.best_x = x
        if gnorm <= eps or i == i_budget:
            rt.trace.add(level, i, "taylor", gnorm, 0.0, 0.0, 0.0, None, None,
                         rt.ledger.total(), f_diag)
            return x, i, moved

        # Step 2: weights from the just-evaluated gradient, then the radius.
        # g*g, |g| and min(w) are each formed once and handed to the helpers.
        gg = g * g
        w = wstate.update(g, gg)
        decrease = float(np.add.reduce(gg / w))
        w_min = float(np.minimum.reduce(w))
        if monitor_threshold is not None and decrease < monitor_threshold:
            rt.trace.add(level, i, "taylor", gnorm, 0.0, 0.0, 0.0, w_min,
                         float(np.maximum.reduce(w)), rt.ledger.total(), f_diag)
            return x, i, moved
        abs_g = np.abs(g)
        tr = compute_radius(w, abs_g, w_min, is_top, delta_cap, up_norm, scale=step_scale)

        # Step 3: recursion attempt when the cycle schedules one.
        kind = "taylor"
        s = None
        if level > 1 and i % period == pre_smooth:
            s = _try_recursive(rt, level, op_down, x, g, w, w_min, tr, decrease)
            if s is not None:
                kind = "recursive"

        # Step 4: Taylor step.
        if s is None:
            s = taylor_step(g, tr.delta, rt.B, tau)
            if decrease > 0.0:
                # Cap-aware form of the linear-decrease guarantee: the plain
                # bound is provable only for an uncapped unit-scale radius,
                # which is the regime the convergence proofs rely on.
                # nonnegative operands: .dot is @ bit for bit (see CostLedger)
                eff = min(1.0, float(abs_g.dot(tr.delta)) / decrease)
                bound = (-(tau * rt.varsigma_min / (2.0 * cfg.kappa_B)) * eff * decrease
                         + 0.5 * cfg.kappa_B * tr.delta_norm ** 2)
                # g.dot(s) is g @ s up to the sign of a zero, which the
                # comparison does not see
                lhs = float(g.dot(s))
                if not lhs <= bound + _ASSERT_RTOL * (1.0 + abs(bound)):
                    raise InvariantError("linear decrease bound violated at a Taylor iteration")

        step_norm = vector_norm(s)
        if not step_norm <= cfg.alpha * tr.delta_hat_norm * (1.0 + _ASSERT_RTOL) + 1e-300:
            raise InvariantError("step norm exceeds alpha * ||D(w)|g||")
        if level < r:
            cap_mult = 2.0 if kind == "taylor" else 2.0 * cfg.alpha
            if not (vector_norm(op_up.prolong(s))
                    <= cap_mult * delta_cap * (1.0 + _ASSERT_RTOL)):
                raise InvariantError("prolonged step exceeds budget")

        # Step 5: update.
        x_prev = x
        x = x + s
        rt.trace.add(level, i, kind, gnorm, step_norm, tr.delta_hat_norm, tr.delta_norm,
                     w_min, float(np.maximum.reduce(w)), rt.ledger.total(), f_diag)
        i += 1


def _try_recursive(rt, level, op_down, x, g, w, w_min, tr, decrease):
    """Attempt the recursive step; returns the prolonged step or None."""
    cfg = rt.cfg
    Rg = op_down.restrict(g)
    delta_norm = tr.delta_norm
    floors_low = rt.floors[level - 2]
    if cfg.weight_kind == ADAGRAD_LIKE:
        w_low = init_lower_adagrad(floors_low, op_down.norm, Rg, cfg.alpha,
                                   delta_norm, vector_norm(w))
    else:
        w_low = init_lower_divergent(floors_low, op_down.norm, Rg, cfg.alpha,
                                     delta_norm, w_min)
    if not should_recurse(Rg, w_low, g, w, cfg.kappa_R, decrease=decrease):
        return None
    delta_low = cfg.alpha * delta_norm

    lower = rt.hier.level(level - 1)
    x_low0 = op_down.restrict(x)
    model = build_coherent_model(lower.grad, x_low0, Rg, lower_value=lower.value)
    rt.ledger.add(level - 1, lower.eval_fraction)  # anchor evaluation inside the build
    eps_low = cfg.lower_eps_factor * vector_norm(Rg)
    g0 = model.anchor_model_grad
    state = seed_lower_state(cfg.weight_kind, cfg.mu, cfg.nu_resolved(), floors_low,
                             w_low, g0)
    threshold = cfg.kappa_R * decrease if cfg.strict_descent_monitoring else None
    # the lower level's guard has already prolonged its movement x_low - x_low0
    _, completed, step = _run_level(rt, level - 1, model, x_low0, eps_low, delta_low,
                                    state, g0=g0, monitor_threshold=threshold)
    if cfg.lower_eps_factor < 1.0 and not completed >= 1:
        raise InvariantError("no iteration completed at the lower level")
    lhs = vector_norm(np.abs(Rg) / w_low)
    if not lhs <= cfg.alpha * delta_norm / op_down.norm * (1.0 + _ASSERT_RTOL):
        raise InvariantError("lower radius budget condition violated")
    return step


def solve(problem, config=None, x0=None):
    """Run the top-level call on a hierarchy and collect trace and costs.

    problem is a LevelHierarchy or any object exposing .hierarchy (and
    optionally .x0 for the default starting point).  Returns a SolveResult;
    status is "converged" when the final top-level gradient met the
    tolerance and "budget_exhausted" otherwise.
    """
    cfg = config if config is not None else SolverConfig()
    hier = problem if isinstance(problem, LevelHierarchy) else problem.hierarchy
    if x0 is None:
        x0 = getattr(problem, "x0", None)
        if x0 is None:
            raise ValueError("no starting point: pass x0 or use a problem that carries one")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (hier.dim(hier.r),):
        raise ValueError("starting point has shape %s, expected (%d,)"
                         % (x0.shape, hier.dim(hier.r)))
    cfg.validate(hier.r)
    ledger = CostLedger(hier.r)
    trace = Trace(hier.r)
    rt = _Runtime(hier, cfg, ledger, trace)
    state = WeightState(cfg.weight_kind, cfg.mu, cfg.nu_resolved(), rt.floors[-1],
                        hier.dim(hier.r))
    x_final, completed, _ = _run_level(rt, hier.r, hier.level(hier.r), x0, cfg.eps_top,
                                       math.inf, state)
    final_gnorm = trace.top_records()[-1].grad_norm
    if final_gnorm <= cfg.eps_top:
        return SolveResult(x_final, "converged", final_gnorm, completed, trace, ledger)
    # budget exhausted: hand back the best iterate seen, judged by gradient
    # norm (values are never consulted)
    if rt.best_x is not None and rt.best_gnorm < final_gnorm:
        x_final = rt.best_x
    return SolveResult(x_final, "budget_exhausted", final_gnorm, completed, trace, ledger)

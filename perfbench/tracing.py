"""In-memory span tracer wrapped around moffo's public functions.

Spans are recorded only while a Tracer is active.  Each span has a name, a
start and end time, the index of the span that was open when it began
(its parent, -1 for a root) and the operation it belongs to.  Spans live in
flat arrays during the run and are written out once, at the end.

install() replaces the functions the solver and the CLI actually call with
thin wrappers; uninstall() puts the originals back.  src/ is not modified.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import statistics
from array import array
from time import perf_counter

# Per-layer metrics reported by a traced run, as (name, unit, better).  The
# list is mirrored in BENCHMARK.json; a test keeps the two in step.
_TIMED = [
    "problems.grad", "problems.grad.l1", "problems.grad.l2", "problems.grad.l3",
    "problems.build",
    "weights.update", "weights.init_lower", "weights.seed_lower",
    "step.compute_radius", "step.taylor_step",
    "hierarchy.prolong", "hierarchy.restrict", "hierarchy.coherent_model", "hierarchy.norm",
    "solver.should_recurse", "solver.ledger_total", "solver.trace_add",
    "cli.write_trace_csv",
]
PER_LAYER = [m for name in _TIMED for m in (
    (name + ".calls", "count", "lower"),
    (name + ".us", "us", "lower"),
    (name + ".share", "fraction", "lower"),
)] + [
    ("hierarchy.transfer_flops", "flop", "lower"),
    ("hierarchy.transfer_bytes", "B", "lower"),
    ("solver.self.us", "us", "lower"),
    ("solver.self.share", "fraction", "lower"),
    ("solver.recursion.attempts", "count", "lower"),
    ("solver.recursion.vetoed", "count", "lower"),
    ("solver.recursion.accepted", "count", "higher"),
    ("solver.recursion.accept_ratio", "ratio", "higher"),
    ("solver.recursion.veto_margin", "ratio", "higher"),
    ("solver.lower_iters", "count", "lower"),
    ("solver.lower_cost_share", "fraction", "lower"),
    ("cli.build_problem.calls", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

_SOLVE_SPANS = ("solver.solve", "cli.solve")


class Tracer:
    """Span recorder; inactive (and free apart from a flag test) by default."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.units = array("d")
        self._stack = []
        self.active = False
        self.op_index = -1
        self.counts = {}
        self.veto_margins = []
        self._patches = []

    # -- recording -------------------------------------------------------
    def begin(self, name):
        """Open a span; returns its index, or -1 when tracing is off."""
        if not self.active:
            return -1
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_index)
        self.units.append(1.0)
        self._stack.append(i)
        return i

    def finish(self, i, units=1.0, end=None):
        """Close span i; units divides its duration in the per-call figure."""
        if i < 0:
            return
        self.end[i] = perf_counter() if end is None else end
        self.units[i] = units
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def count(self, name, amount):
        if self.active:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def wrap(self, fn, name, units=None, after=None):
        """Return fn recording one span per call; units(args, result) and
        after(args, result) run outside the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.finish(i)
                raise
            end = perf_counter()
            tracer.finish(i, 1.0 if units is None else units(args, out), end)
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- patching moffo --------------------------------------------------
    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_levels(self, problem):
        """Record every oracle call of a built problem, per level."""
        for l, lvl in enumerate(problem.hierarchy.levels, start=1):
            lvl.grad = self.wrap(lvl.grad, "problems.grad.l%d" % l)
        return problem

    def install(self, moffo):
        """Wrap the names moffo's solver and CLI call at run time."""
        solver, cli, problems = moffo.solver, moffo.cli, moffo.problems
        hierarchy, weights = moffo.hierarchy, moffo.weights
        for attr, name in (("compute_radius", "step.compute_radius"),
                           ("taylor_step", "step.taylor_step"),
                           ("init_lower_adagrad", "weights.init_lower"),
                           ("init_lower_divergent", "weights.init_lower"),
                           ("seed_lower_state", "weights.seed_lower"),
                           ("build_coherent_model", "hierarchy.coherent_model")):
            self._patch(solver, attr, self.wrap(getattr(solver, attr), name))
        self._patch(solver, "should_recurse",
                    self.wrap(solver.should_recurse, "solver.should_recurse",
                              after=self._recursion_outcome))
        self._patch(weights.WeightState, "update",
                    self.wrap(weights.WeightState.update, "weights.update"))
        op_cls = hierarchy.TransferOperator
        for attr in ("prolong", "restrict"):
            self._patch(op_cls, attr, self.wrap(getattr(op_cls, attr), "hierarchy." + attr,
                                                after=self._transfer_volume))
        self._patch(op_cls, "norm", self._norm_property(op_cls.norm))
        self._patch(solver.CostLedger, "total",
                    self.wrap(solver.CostLedger.total, "solver.ledger_total"))
        self._patch(solver.Trace, "add", self.wrap(solver.Trace.add, "solver.trace_add"))
        self._patch(cli, "solve", self.wrap(cli.solve, "cli.solve",
                                            units=lambda args, res: res.iterations))
        self._patch(cli, "write_trace_csv",
                    self.wrap(cli.write_trace_csv, "cli.write_trace_csv",
                              units=lambda args, out: max(1, len(args[0].records))))
        self._patch(problems, "build_problem",
                    self.wrap(problems.build_problem, "problems.build",
                              after=lambda args, p: self.wrap_levels(p)))
        with_minibatch = problems.with_minibatch
        self._patch(problems, "with_minibatch",
                    functools.wraps(with_minibatch)(
                        lambda *a, **kw: self.wrap_levels(with_minibatch(*a, **kw))))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _norm_property(self, prop):
        # Only the cache-filling call runs the power iteration; cached reads
        # are attribute lookups and are not spans.
        tracer = self

        def norm(op):
            if op._norm is not None or not tracer.active:
                return prop.fget(op)
            i = tracer.begin("hierarchy.norm")
            try:
                return prop.fget(op)
            finally:
                tracer.finish(i)

        return property(norm, doc=prop.__doc__)

    def _transfer_volume(self, args, out):
        # Dense P: 2 flops and 8 bytes of P read per stored entry and apply.
        size = args[0].P.size
        self.count("hierarchy.transfer_flops", 2.0 * size)
        self.count("hierarchy.transfer_bytes", 8.0 * size)

    def _recursion_outcome(self, args, accepted):
        if accepted:
            self.count("solver.recursion.accepted", 1.0)
            return
        i = self.begin("bench.veto_margin")
        Rg, w_low, g, w, kappa_R = args
        rhs = kappa_R * float((g * g / w).sum())
        if rhs > 0.0:
            self.veto_margins.append(float((Rg * Rg / w_low).sum()) / rhs)
        self.finish(i)

    # -- analysis --------------------------------------------------------
    def self_times(self):
        return self_times(self.start, self.end, self.parent)

    def per_layer(self, op_extras, cli_builds, overhead):
        """Per-layer metrics over the traced operations.

        op_extras lists, per traced operation, the solver counts the
        operation computed itself (lower_iters, lower_cost_share).
        """
        selfs = self.self_times()
        n_ops = max(1, len(op_extras))
        by_name = {}
        for i, nid in enumerate(self.name_id):
            by_name.setdefault(self.names[nid], []).append(i)
        op_total = sum(self.end[i] - self.start[i] for i in by_name.get("op", []))
        out = {}

        def timed(metric, idx):
            out[metric + ".calls"] = len(idx) / n_ops
            out[metric + ".us"] = (statistics.median(
                (self.end[i] - self.start[i]) / self.units[i] for i in idx) * 1e6
                if idx else 0.0)
            out[metric + ".share"] = (sum(selfs[i] for i in idx) / op_total
                                      if op_total > 0 else 0.0)

        for metric in _TIMED:
            if metric == "problems.grad":
                idx = [i for lvl in (1, 2, 3) for i in by_name.get(metric + ".l%d" % lvl, [])]
            else:
                idx = by_name.get(metric, [])
            timed(metric, idx)
        solves = [i for name in _SOLVE_SPANS for i in by_name.get(name, [])]
        solve_self = sum(selfs[i] for i in solves)
        top_iters = sum(self.units[i] for i in solves)
        out["solver.self.us"] = solve_self / top_iters * 1e6 if top_iters else 0.0
        out["solver.self.share"] = solve_self / op_total if op_total > 0 else 0.0
        for name in ("hierarchy.transfer_flops", "hierarchy.transfer_bytes"):
            out[name] = self.counts.get(name, 0.0) / n_ops
        attempts = len(by_name.get("solver.should_recurse", []))
        accepted = self.counts.get("solver.recursion.accepted", 0.0)
        out["solver.recursion.attempts"] = attempts / n_ops
        out["solver.recursion.vetoed"] = (attempts - accepted) / n_ops
        out["solver.recursion.accepted"] = accepted / n_ops
        out["solver.recursion.accept_ratio"] = accepted / attempts if attempts else 0.0
        out["solver.recursion.veto_margin"] = (statistics.median(self.veto_margins)
                                               if self.veto_margins else 0.0)
        for name in ("lower_iters", "lower_cost_share"):
            vals = [extra[name] for extra in op_extras]
            out["solver." + name] = statistics.median(vals) if vals else 0.0
        out["cli.build_problem.calls"] = out["problems.build.calls"] if cli_builds else 0.0
        out["trace.overhead"] = overhead
        return out

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "op", "parent", "start_s", "end_s", "units"])
            for i, nid in enumerate(self.name_id):
                writer.writerow([i, self.names[nid], self.op[i], self.parent[i],
                                 repr(self.start[i]), repr(self.end[i]), repr(self.units[i])])


def self_times(start, end, parent):
    """Duration of each span minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    children = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out

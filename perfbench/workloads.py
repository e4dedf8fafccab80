"""The benchmark's three workloads and the checks on their outputs.

Each workload exposes setup() (one problem build, transfer norms forced,
timed as setup_s) and op(k) (one operation of the closed loop).  Operation
k solves input k % instances, so a workload with one input repeats it and a
repeated input must reproduce its trace byte for byte.  NOTES.md gives the
reason for each workload.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import shutil
from time import perf_counter

import numpy as np

from moffo import bounds, cli, problems
from moffo.hierarchy import LevelHierarchy
from moffo.solver import SolverConfig, solve

def single_level(problem):
    """The top level alone, as criteria 06/07 build the single-level baseline."""
    top = problem.hierarchy.level(problem.hierarchy.r)
    return problems.ProblemHierarchy(problem.name + "-single", LevelHierarchy([top], []),
                                     problem.x0, problem.exact_L, problem.f_low,
                                     problem.dataset_size, problem.noise,
                                     problem.sampled_grads, base=problem.base)


def cost_to_target(res, target):
    """Ledger cost at the first top-level record meeting target, else the total."""
    for rec in res.trace.records:
        if rec.level == res.trace.r and rec.grad_norm <= target:
            return rec.cost_cum
    return res.ledger.total()


def force_norms(problem):
    for op in problem.hierarchy.operators:
        op.norm


def check_result(res, label):
    """Finite output, and a trace whose last cost agrees with the ledger."""
    if not np.all(np.isfinite(res.x)):
        raise ValueError("%s: returned x is not finite" % label)
    if not math.isfinite(res.final_grad_norm):
        raise ValueError("%s: final gradient norm is %r" % (label, res.final_grad_norm))
    last = res.trace.top_records()[-1].cost_cum
    if last != res.ledger.total():
        raise ValueError("%s: last top-level cost_cum %r != ledger total %r"
                         % (label, last, res.ledger.total()))


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def outcome(inst, run_s, solve_s, single_solve_s, ml, sl, target, final_grad_rel, digests):
    """One operation's figures, from its multilevel and single-level results."""
    r = ml.trace.r
    total = ml.ledger.total()
    ml_ctt = cost_to_target(ml, target)
    return {
        "instance": inst,
        "run_s": run_s,
        "solve_s": solve_s,
        "single_solve_s": single_solve_s,
        "top_iters": ml.iterations,
        "cost_units": total,
        "cost_to_target": ml_ctt,
        "ml_cost_ratio": cost_to_target(sl, target) / ml_ctt,
        "final_grad_rel": final_grad_rel,
        "digests": digests,
        "lower_iters": float(sum(1 for rec in ml.trace.records if rec.level < r)),
        "lower_cost_share": (total - ml.ledger.count(r)) / total,
    }


class _Workload:
    instances = 1
    via_cli = False

    def __init__(self, seed, tracer, work_dir):
        self.seed = int(seed)
        self.tracer = tracer
        self.work_dir = work_dir
        self.digests = {}

    def _same_trace(self, inst, digests):
        first = self.digests.setdefault(inst, digests)
        if first != digests:
            raise AssertionError("input %d gave a different trace on repeat: %s != %s"
                                 % (inst, digests, first))

    def close(self):
        pass


class SolvePair(_Workload):
    """Operation: build the problem, solve it with the full hierarchy and as a
    one-level hierarchy under the same config, and write both trace CSVs."""

    target_rel = None

    def __init__(self, seed, tracer, work_dir):
        super().__init__(seed, tracer, work_dir)
        self._inputs = {}

    def build(self):
        raise NotImplementedError

    def start(self, inst, problem):
        raise NotImplementedError

    def config(self, target):
        raise NotImplementedError

    def extra_checks(self, problem, x0, cfg, res):
        pass

    def setup(self):
        problem = self.build()
        force_norms(problem)
        return problem

    def _input(self, inst):
        if inst not in self._inputs:
            problem = self.setup()
            x0 = self.start(inst, problem)
            g0 = float(np.linalg.norm(problem.exact_grad(problem.r, x0)))
            self._inputs[inst] = (x0, g0, self.target_rel * g0)
        return self._inputs[inst]

    def op(self, k):
        inst = k % self.instances
        tr = self.tracer
        with tr.paused():
            x0, g0, target = self._input(inst)
        ml_csv = os.path.join(self.work_dir, "ml.csv")
        sl_csv = os.path.join(self.work_dir, "single.csv")
        root = tr.begin("op")
        t0 = perf_counter()
        problem = self.setup()
        t1 = perf_counter()
        span = tr.begin("solver.solve")
        ml = solve(problem, self.config(target), x0=x0)
        tr.finish(span, ml.iterations)
        t2 = perf_counter()
        span = tr.begin("solver.solve")
        sl = solve(single_level(problem), self.config(target), x0=x0)
        tr.finish(span, sl.iterations)
        t3 = perf_counter()
        cli.write_trace_csv(ml.trace, ml_csv)
        cli.write_trace_csv(sl.trace, sl_csv)
        t4 = perf_counter()
        tr.finish(root)

        with tr.paused():
            check_result(ml, "multilevel")
            check_result(sl, "single level")
            self.extra_checks(problem, x0, self.config(target), ml)
            digests = {"ml": sha256_file(ml_csv), "single": sha256_file(sl_csv)}
            self._same_trace(inst, digests)
            final = float(np.linalg.norm(problem.exact_grad(problem.r, ml.x)))
            return outcome(inst, t4 - t0, t2 - t1, t3 - t2, ml, sl, target, final / g0, digests)


class Lap255Exact(SolvePair):
    """Noiseless 255-point Laplacian, 3 levels, criterion 06's configuration."""

    target_rel = 1e-3

    def build(self):
        return problems.build_problem("laplacian1d", n_fine=255, levels=3)

    def start(self, inst, problem):
        # Seed 0 is criterion 06's x0 = 0.  Other seeds start from a smooth
        # random x0 (sine modes 1-4, amplitude 1e-6): it changes the trace but
        # moves the iteration count by under 1%, where starts of 1% of the
        # solution's amplitude move it by 5% and white noise severalfold.
        if self.seed == 0:
            return problem.x0.copy()
        t = np.arange(1, 256) / 256.0
        z = np.random.default_rng([self.seed, inst]).standard_normal(4)
        return 1e-6 * sum(z[m] * np.sin((m + 1) * np.pi * t) for m in range(4))

    def config(self, target):
        return SolverConfig(eps_top=target, i_max_top=40_000, mu=0.5, step_scale=0.003)

    def extra_checks(self, problem, x0, cfg, res):
        started = problems.ProblemHierarchy(problem.name, problem.hierarchy, x0,
                                            problem.exact_L, problem.f_low)
        tc = bounds.theory_constants(started, cfg)
        rep = bounds.check_adagrad_rate(res.trace, tc.kappa_star)
        if rep.status != "pass":
            raise AssertionError("AdaGrad rate check %s (max ratio %r)"
                                 % (rep.status, rep.max_ratio))


class ResNetDefault(SolvePair):
    """Default ResNet hierarchy (164/248/416), default solver, fixed budget."""

    target_rel = 0.1
    instances = 24
    top_budget = 100

    def build(self):
        return problems.build_problem("resnet")

    def start(self, inst, problem):
        # The multilevel run is chaotic (it diverges), so one start says
        # little; each run solves 24 seeded starts 1e-6 away from the
        # default x0 and reports medians over them.
        rng = np.random.default_rng([self.seed, inst])
        return problem.x0 + 1e-6 * rng.standard_normal(problem.x0.size)

    def config(self, target):
        return SolverConfig(eps_top=1e-300, i_max_top=self.top_budget)


# Solver, noise and baseline settings of configs/laplacian_multilevel.json,
# copied so that a later edit of that file does not change the workload.
MINIBATCH_CONFIG = {
    "problem": {"name": "laplacian1d", "n_fine": 255, "levels": 3,
                "minibatch": {"fraction": 0.25, "seed": 0}},
    "solver": {"weights": "adagrad_like", "mu": 0.5, "varsigma": 0.01,
               "kappa_R": 0.01, "alpha": 5.0, "eps_top": 0.1,
               "i_max": [10, 2, 2000], "step_scale": 0.01},
    "baselines": [{"kind": "sgd", "lr": 2e-06}, {"kind": "adagrad_oracle"},
                  {"kind": "single_level"}],
    "runs": {"repetitions": 1, "seeds": [0], "out_dir": "out"},
}


class Lap255MinibatchRun(_Workload):
    """Operation: one `moffo run` (cli.main) for the benchmark's seed."""

    via_cli = True

    def __init__(self, seed, tracer, work_dir):
        super().__init__(seed, tracer, work_dir)
        self.config_path = os.path.join(work_dir, "laplacian_minibatch.json")
        with open(self.config_path, "w") as fh:
            json.dump(MINIBATCH_CONFIG, fh, indent=2)
        self.out_dir = os.path.join(work_dir, "run")
        self.target = MINIBATCH_CONFIG["solver"]["eps_top"]
        self.base = problems.build_problem("laplacian1d", n_fine=255, levels=3)
        self.g0 = float(np.linalg.norm(self.base.exact_grad(3, self.base.x0)))
        # Pass-through capture of the CLI's solve calls: the returned x and
        # trace are not in the CLI's output files.
        self.captured = []
        self._solve = cli.solve

        def capture(problem, config=None, x0=None):
            t0 = perf_counter()
            res = self._solve(problem, config, x0)
            self.captured.append((perf_counter() - t0, res))
            return res

        cli.solve = capture

    def close(self):
        cli.solve = self._solve

    def setup(self):
        mb = MINIBATCH_CONFIG["problem"]["minibatch"]
        base = problems.build_problem("laplacian1d", n_fine=255, levels=3)
        problem = problems.with_minibatch(base, mb["fraction"], mb["seed"] + 1000 * self.seed)
        force_norms(problem)
        return problem

    def op(self, k):
        tr = self.tracer
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.captured.clear()
        root = tr.begin("op")
        t0 = perf_counter()
        rc = cli.main(["run", self.config_path, "--out", self.out_dir,
                       "--seed", str(self.seed)])
        run_s = perf_counter() - t0
        tr.finish(root)

        with tr.paused():
            if rc != 0:
                raise RuntimeError("moffo run exited with %d" % rc)
            with open(os.path.join(self.out_dir, "summary.json")) as fh:
                json.load(fh)
            csvs = sorted(glob.glob(os.path.join(self.out_dir, "*.csv")))
            if not csvs:
                raise RuntimeError("moffo run wrote no trace CSV")
            for path in csvs:
                with open(path) as fh:
                    header = fh.readline().rstrip("\n").split(",")
                if tuple(header) != cli.TRACE_COLUMNS:
                    raise ValueError("%s: header %s" % (os.path.basename(path), header))
            solves = {res.trace.r: (dt, res) for dt, res in self.captured}
            if sorted(solves) != [1, 3] or len(self.captured) != 2:
                raise RuntimeError("expected one 3-level and one 1-level solve, got %s"
                                   % [res.trace.r for _, res in self.captured])
            (ml_s, ml), (sl_s, sl) = solves[3], solves[1]
            check_result(ml, "multilevel")
            check_result(sl, "single level")
            sl_csv = os.path.join(self.work_dir, "single.csv")
            cli.write_trace_csv(sl.trace, sl_csv)
            ml_csv = os.path.join(self.out_dir, "trace_laplacian1d_seed%d.csv" % self.seed)
            digests = {"ml": sha256_file(ml_csv), "single": sha256_file(sl_csv)}
            self._same_trace(0, digests)
            final = float(np.linalg.norm(self.base.exact_grad(3, ml.x)))
            return outcome(0, run_s, ml_s, sl_s, ml, sl, self.target, final / self.g0, digests)


def make(name, seed, tracer, work_dir):
    cls = {"lap255-exact": Lap255Exact, "lap255-minibatch-run": Lap255MinibatchRun,
           "resnet-default": ResNetDefault}[name]
    return cls(seed, tracer, work_dir)

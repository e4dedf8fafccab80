"""Experiment runner: config ingestion, runs, baselines, bound checks.

Config files are JSON with top-level keys "problem", "solver", "baselines"
and "runs"; unknown keys anywhere are rejected with the offending field
named.  Trace CSVs are byte-deterministic for a fixed config and seed; the
summary JSON additionally records wall times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import bounds, problems
from .solver import TRACE_COLUMNS, SolverConfig, solve, write_trace_csv
from .step import vector_norm
from .weights import ADAGRAD_LIKE

__all__ = [
    "ConfigError",
    "TRACE_COLUMNS",
    "load_config",
    "write_trace_csv",
    "sgd_baseline",
    "adagrad_oracle_baseline",
    "cmd_run",
    "cmd_check_bounds",
    "cmd_gradcheck",
    "cmd_list_problems",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_THEOREM = 4
EXIT_GRADCHECK = 5


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


_BASELINE_KINDS = ("sgd", "adagrad_oracle", "single_level")

# JSON value types, checked before any value reaches the solver or a builder.
_TYPES = {
    "number": ("a finite number", _is_number),
    "integer": ("an integer", _is_int),
    "boolean": ("true or false", lambda v: isinstance(v, bool)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "number?": ("a finite number or null", lambda v: v is None or _is_number(v)),
    "integers?": ("a list of integers or null",
                  lambda v: v is None or (isinstance(v, list) and all(map(_is_int, v)))),
    "baseline": ("one of " + ", ".join(_BASELINE_KINDS), lambda v: v in _BASELINE_KINDS),
}

# Config objects as {field: (JSON type, required)}; the problem's own
# fields are checked by its builder.
_CONFIG_FIELDS = {
    "problem": ("object", True),
    "solver": ("object", False),
    "baselines": ("list", False),
    "runs": ("object", False),
}

# config key -> (SolverConfig field, JSON type)
_SOLVER_KEYS = {
    "weights": ("weight_kind", "string"),
    "mu": ("mu", "number"),
    "nu": ("nu", "number?"),
    "varsigma": ("varsigma", "number"),
    "kappa_R": ("kappa_R", "number"),
    "alpha": ("alpha", "number"),
    "tau": ("tau", "number"),
    "kappa_B": ("kappa_B", "number"),
    "eps_top": ("eps_top", "number"),
    "i_max": ("i_max", "integers?"),
    "i_max_top": ("i_max_top", "integer"),
    "pre_smooth": ("pre_smooth", "integer"),
    "post_smooth": ("post_smooth", "integer"),
    "lower_eps_factor": ("lower_eps_factor", "number"),
    "step_scale": ("step_scale", "number"),
    "strict_descent_monitoring": ("strict_descent_monitoring", "boolean"),
    "diag_values": ("diag_values", "boolean"),
}
_SOLVER_FIELDS = {key: (kind, False) for key, (_, kind) in _SOLVER_KEYS.items()}

# noise wrapper -> its fields
_NOISE_KEYS = {
    "minibatch": {"fraction": ("number", True), "seed": ("integer", False)},
    "gaussian": {"sigma": ("number", True), "seed": ("integer", False)},
}

_BASELINE_FIELDS = {"kind": ("baseline", True), "lr": ("number", False)}

_RUNS_FIELDS = {
    "repetitions": ("integer", False),
    "seeds": ("integers?", False),
    "out_dir": ("string", False),
}


def _check_type(where, value, kind):
    desc, ok = _TYPES[kind]
    if not ok(value):
        raise ConfigError("%s must be %s, got %r" % (where, desc, value))


def _check_object(where, obj, fields):
    """Raise a ConfigError unless obj is an object whose fields all appear
    in the table fields, {field: (JSON type, required)}, each with that
    type, and which has every required field.  where names obj in the
    messages, "" for the config root."""
    _check_type(where or "config", obj, "object")
    prefix = where + "." if where else ""
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise ConfigError("unknown field(s): %s" % ", ".join(prefix + k for k in unknown))
    for field, (kind, required) in fields.items():
        if field in obj:
            _check_type(prefix + field, obj[field], kind)
        elif required:
            raise ConfigError("%s%s is required" % (prefix, field))


def load_config(path):
    """Parse and validate an experiment config; raises ConfigError.

    JSON types are checked field by field; the problem is then built with
    its noise wrappers and the solver constants are validated against it,
    so a malformed value fails here, naming its field, before any run.
    The un-noised problem is returned under "problem"; each run and
    baseline wraps it in fresh noise streams instead of building it again.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc)
    _check_object("", raw, _CONFIG_FIELDS)

    prob = dict(raw["problem"])
    name = prob.pop("name", None)
    if name is None:
        raise ConfigError("problem.name is required")
    if name not in problems.PROBLEM_NAMES:
        raise ConfigError("problem.name: unknown problem %r (known: %s)"
                          % (name, ", ".join(problems.PROBLEM_NAMES)))
    noise = {}
    for noise_key, fields in _NOISE_KEYS.items():
        if noise_key in prob:
            noise[noise_key] = prob.pop(noise_key)
            _check_object("problem." + noise_key, noise[noise_key], fields)
    try:
        base = problems.build_problem(name, **prob)
    except (ValueError, TypeError) as exc:
        raise ConfigError("problem: %s" % exc)
    try:
        problem = _apply_noise(base, noise, 0)
    except ValueError as exc:
        raise ConfigError("problem.%s: %s" % ("/".join(noise), exc))

    solver_raw = raw.get("solver", {})
    _check_object("solver", solver_raw, _SOLVER_FIELDS)
    solver_kwargs = {_SOLVER_KEYS[key][0]: val for key, val in solver_raw.items()}
    if solver_kwargs.get("i_max") is not None and "i_max_top" in solver_kwargs:
        raise ConfigError("solver.i_max and solver.i_max_top are both set; i_max gives "
                          "every level's budget, top included")
    try:
        SolverConfig(**solver_kwargs).validate(problem.r)
    except (ValueError, TypeError) as exc:
        raise ConfigError("solver: %s" % exc)

    baselines = raw.get("baselines", [])
    for k, entry in enumerate(baselines):
        _check_object("baselines[%d]" % k, entry, _BASELINE_FIELDS)
        if entry["kind"] == "sgd" and "lr" not in entry:
            raise ConfigError("baselines[%d].lr is required for sgd" % k)

    runs = raw.get("runs", {})
    _check_object("runs", runs, _RUNS_FIELDS)
    reps = runs.get("repetitions", 1)
    if reps < 1:
        raise ConfigError("runs.repetitions must be >= 1")
    seeds = runs.get("seeds")
    if seeds is None:
        seeds = list(range(reps))
    if len(seeds) < reps:
        raise ConfigError("runs.seeds must list at least runs.repetitions seeds")
    _check_run_seeds(base, noise, seeds[:reps], "runs.seeds")
    return {
        "problem_name": name,
        "problem_params": prob,
        "problem": base,
        "noise": noise,
        "solver_kwargs": solver_kwargs,
        "baselines": baselines,
        "repetitions": reps,
        "seeds": seeds[:reps],
        "out_dir": runs.get("out_dir", "."),
    }


def _check_run_seeds(problem, noise, run_seeds, where):
    """Raise a ConfigError naming where unless every run seed gives the
    configured noise wrappers valid seeds."""
    for run_seed in run_seeds:
        try:
            _apply_noise(problem, noise, run_seed)
        except ValueError as exc:
            raise ConfigError("%s: run seed %d gives a noise wrapper an invalid seed (%s)"
                              % (where, run_seed, exc))


def _apply_noise(problem, noise, run_seed):
    """Wrap an un-noised problem in the configured noise, with fresh streams
    seeded from run_seed; without noise the problem itself is returned."""
    if "minibatch" in noise:
        mb = noise["minibatch"]
        seed = int(mb.get("seed", 0)) + 1000 * run_seed
        problem = problems.with_minibatch(problem, float(mb["fraction"]), seed)
    if "gaussian" in noise:
        ga = noise["gaussian"]
        seed = int(ga.get("seed", 0)) + 1000 * run_seed
        problem = problems.with_gaussian_noise(problem, float(ga["sigma"]), seed)
    return problem


def sgd_baseline(grad, x0, lr, steps, eps, eval_fraction=1.0):
    """Plain gradient descent with a fixed learning rate on one level.

    grad returns contiguous 1-D float arrays, as every Level oracle does.
    """
    x = np.asarray(x0, dtype=float).copy()
    cost = 0.0
    for i in range(steps + 1):
        g = grad(x)
        cost += eval_fraction
        gnorm = vector_norm(g)
        if gnorm <= eps or i == steps:
            return x, gnorm, cost, i
        x = x - lr * g


def adagrad_oracle_baseline(grad, x0, steps, eps, varsigma=0.01, eval_fraction=1.0):
    """Reference momentum-less AdaGrad loop with per-coordinate accumulators;
    grad is as for sgd_baseline."""
    x = np.asarray(x0, dtype=float).copy()
    acc = np.zeros_like(x)
    cost = 0.0
    for i in range(steps + 1):
        g = grad(x)
        cost += eval_fraction
        gnorm = vector_norm(g)
        if gnorm <= eps or i == steps:
            return x, gnorm, cost, i
        acc += g * g
        x = x - g / np.sqrt(varsigma + acc)


def _one_run(spec, seed, out_dir):
    problem = _apply_noise(spec["problem"], spec["noise"], seed)
    cfg = SolverConfig(**spec["solver_kwargs"])
    t0 = time.perf_counter()
    res = solve(problem, cfg)
    wall = time.perf_counter() - t0
    trace_file = os.path.join(out_dir, "trace_%s_seed%d.csv" % (spec["problem_name"], seed))
    write_trace_csv(res.trace, trace_file)
    entry = {
        "seed": seed,
        "status": res.status,
        "final_grad_norm": res.final_grad_norm,
        "cost": res.ledger.total(),
        "iterations": res.iterations,
        "wall_time_s": wall,
        "trace_csv": os.path.basename(trace_file),
    }
    baseline_entries = {}
    for base in spec["baselines"]:
        kind = base["kind"]
        bp = _apply_noise(spec["problem"], spec["noise"], seed)
        top = bp.hierarchy.level(bp.hierarchy.r)
        steps = cfg.resolved_i_max(bp.hierarchy.r)[-1]
        t0 = time.perf_counter()
        if kind == "sgd":
            _, gn, cost, iters = sgd_baseline(top.grad, bp.x0, float(base["lr"]),
                                              steps, cfg.eps_top, top.eval_fraction)
        elif kind == "adagrad_oracle":
            _, gn, cost, iters = adagrad_oracle_baseline(top.grad, bp.x0, steps, cfg.eps_top,
                                                         cfg.varsigma, top.eval_fraction)
        else:
            kwargs = dict(spec["solver_kwargs"])
            kwargs.pop("i_max", None)
            single_cfg = SolverConfig(**kwargs)
            single_cfg.i_max_top = steps
            sres = solve(bp.single_level(), single_cfg)
            gn, cost, iters = sres.final_grad_norm, sres.ledger.total(), sres.iterations
        baseline_entries[kind] = {
            "seed": seed,
            "status": "converged" if gn <= cfg.eps_top else "budget_exhausted",
            "final_grad_norm": gn,
            "cost": cost,
            "iterations": iters,
            "wall_time_s": time.perf_counter() - t0,
        }
    return entry, baseline_entries


def _prepare(config_path, out_dir, check):
    """Load the config, apply a command's own check to it, then make the
    output directory: out_dir, or runs.out_dir without it.  Returns
    (spec, out), or None after printing the config error."""
    try:
        spec = load_config(config_path)
        check(spec)
        where, out = ("--out", out_dir) if out_dir else ("runs.out_dir", spec["out_dir"])
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError("%s: cannot make output directory %r (%s)" % (where, out, exc))
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return None
    return spec, out


def cmd_run(config_path, out_dir=None, seed=None):
    def check_seed(spec):
        if seed is not None:
            _check_run_seeds(spec["problem"], spec["noise"], [int(seed)], "--seed")

    prepared = _prepare(config_path, out_dir, check_seed)
    if prepared is None:
        return EXIT_CONFIG
    spec, out = prepared
    seeds = spec["seeds"] if seed is None else [int(seed)]
    try:
        results = [_one_run(spec, s, out) for s in seeds]
    except Exception as exc:  # noqa: BLE001 - harness boundary
        print("runtime failure: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME
    runs = [r for r, _ in results]
    baselines = {}
    for _, bl in results:
        for kind, entry in bl.items():
            baselines.setdefault(kind, []).append(entry)
    summary = {
        "problem": {"name": spec["problem_name"], **spec["problem_params"], **spec["noise"]},
        "solver": spec["solver_kwargs"],
        "runs": runs,
        "baselines": baselines,
    }
    if "single_level" in baselines:
        # costs to the tolerance: both solves stop at the first evaluation that meets it
        ratios = [b["cost"] / r["cost"] for r, b in zip(runs, baselines["single_level"])
                  if r["status"] == b["status"] == "converged" and r["cost"] > 0]
        summary["cost_ratio"] = {
            "single_level_over_mofftr": float(np.median(ratios)) if ratios else None,
            "n_seeds": len(ratios),
        }
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return EXIT_OK


def _check_bound_constants(spec):
    if spec["problem"].exact_L is None or spec["problem"].f_low is None:
        raise ConfigError("problem.name: bound checks need exact_L and f_low")


def cmd_check_bounds(config_path, out_dir=None):
    prepared = _prepare(config_path, out_dir, _check_bound_constants)
    if prepared is None:
        return EXIT_CONFIG
    spec, out = prepared
    try:
        problem = spec["problem"]
        cfg = SolverConfig(**spec["solver_kwargs"])
        tc = bounds.theory_constants(problem, cfg)
        res = solve(problem, cfg)
        checks = {}
        failed = False
        if cfg.weight_kind == ADAGRAD_LIKE:
            rep = bounds.check_adagrad_rate(res.trace, tc.kappa_star)
            checks[rep.name] = rep.as_dict()
            failed = failed or rep.status == "fail"
        else:
            rep = bounds.check_divergent_rate(
                res.trace, (tc.i_theta, tc.i_sigma, tc.kappa_diamond), cfg.mu)
            checks[rep.name] = rep.as_dict()
        # the bounds hold for exact gradients, so the problem is solved un-noised
        report = {"constants": tc.as_dict(), "checks": checks,
                  "noise_not_applied": spec["noise"]}
        with open(os.path.join(out, "bound_report.json"), "w") as fh:
            json.dump(report, fh, indent=2)
        for name, chk in checks.items():
            print("%s: %s (max_ratio=%s)" % (name, chk["status"], chk["max_ratio"]))
        print("noise_not_applied: %s" % (", ".join(spec["noise"]) or "none"))
    except Exception as exc:  # noqa: BLE001 - harness boundary
        print("runtime failure: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_THEOREM if failed else EXIT_OK


_GRADCHECK_SUITE = {
    "quadratic2d": (dict(), 1e-3, 1e-9),
    "laplacian1d": (dict(n_fine=31, levels=3), 1e-3, 1e-9),
    "chain1d": (dict(n_fine=31, levels=3), 1e-5, 1e-6),
    "resnet": (dict(width=4, k_coarse=3, levels=2, n_in=3, n_out=2, n_samples=32),
               1e-5, 1e-5),
}


def cmd_gradcheck(problem_name=None):
    names = [problem_name] if problem_name else list(_GRADCHECK_SUITE)
    status = EXIT_OK
    for name in names:
        if name not in _GRADCHECK_SUITE:
            print("config error: problem %r unknown" % name, file=sys.stderr)
            return EXIT_CONFIG
        params, h, threshold = _GRADCHECK_SUITE[name]
        problem = problems.build_problem(name, **params)
        for level in range(1, problem.hierarchy.r + 1):
            err = problems.finite_difference_check(problem, level=level, h=h, seed=level)
            ok = err <= threshold
            print("%-12s level %d: max rel err %.3e (threshold %.0e) %s"
                  % (name, level, err, threshold, "ok" if ok else "FAIL"))
            if not ok:
                status = EXIT_GRADCHECK
    return status


def cmd_list_problems():
    for name, desc in problems.list_problems():
        print("%-12s %s" % (name, desc))
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(prog="moffo",
                                     description="multilevel objective-function-free runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the solver and baselines from a config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_chk = sub.add_parser("check-bounds", help="evaluate rate constants and check a run")
    p_chk.add_argument("config")
    p_chk.add_argument("--out", default=None)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p_gc.add_argument("--problem", default=None)

    sub.add_parser("list-problems", help="list built-in problems")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.seed)
    if args.command == "check-bounds":
        return cmd_check_bounds(args.config, args.out)
    if args.command == "gradcheck":
        return cmd_gradcheck(args.problem)
    return cmd_list_problems()


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the moffo solver: one process, closed loop, one workload per call.

Run from the repository root:

    python3 perfbench/run.py --workload lap255-exact --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Operations run one after another for --seconds (at least three times, and at
least once per input of the workload).  With --trace 0 the end-to-end
metrics are printed, one per
line with unit and sample count; with --trace 1 operations alternate between
untraced and traced, and the per-layer metrics are printed.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The full result (trace digests, environment, failures) is
written to .bench_out/ in the repository root, and a traced run also writes
its spans there.  moffo is imported from the repository's src/ directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = "1"
SETUP_MIN = 3
WORKLOADS = ("lap255-exact", "lap255-minibatch-run", "resnet-default")

# (name, unit) of the end-to-end metrics, in BENCHMARK.json's order.
END_TO_END = [
    ("solve_s", "s"),
    ("single_solve_s", "s"),
    ("top_iters_per_s", "1/s"),
    ("run_s", "s"),
    ("setup_s", "s"),
    ("cost_units", "grad_units"),
    ("cost_to_target", "grad_units"),
    ("ml_cost_ratio", "ratio"),
    ("final_grad_rel", "ratio"),
    ("peak_rss_mb", "MB"),
]
_PER_INPUT = ("cost_units", "cost_to_target", "ml_cost_ratio", "final_grad_rel")
_TIMED = ("solve_s", "single_solve_s", "run_s")


def run_ops(op, seconds, min_ops):
    """Call op(k) in a closed loop until seconds have passed and at least
    min_ops operations were attempted.  A raise is one failed operation."""
    results, failures = [], []
    deadline = perf_counter() + seconds
    k = 0
    while k < min_ops or perf_counter() < deadline:
        try:
            results.append(op(k))
        except Exception:  # noqa: BLE001 - each operation fails on its own
            failures.append(traceback.format_exc())
        k += 1
    return results, failures


def quartiles(values):
    """(lower, upper) quartile; a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def end_to_end(results, setup_samples, peak_rss_mb):
    """Timings at the host's usual speed; per-input figures from each input's
    first run.

    The host alternates between its usual speed and bursts up to 2x faster,
    in phases of seconds to minutes.  A median over a run's operations flips
    between the two with the share of bursts in the run, so times are the
    upper quartile and rates the lower one.
    """
    first = {}
    for res in results:
        first.setdefault(res["instance"], res)
    inputs = list(first.values())
    metrics = {name: quartiles([r[name] for r in results])[1] for name in _TIMED}
    metrics["top_iters_per_s"] = quartiles([r["top_iters"] / r["solve_s"]
                                            for r in results])[0]
    metrics["setup_s"] = statistics.median(setup_samples)
    for name in _PER_INPUT:
        metrics[name] = statistics.median(r[name] for r in inputs)
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics


def import_moffo():
    """Import moffo from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import moffo
    if Path(moffo.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit("moffo imported from %s, not from %s" % (moffo.__file__, src))
    return moffo


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "moffo").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "git_commit": git_commit(), "src_sha256": src.hexdigest()}


def measure(wl, tracer, moffo, seconds, trace):
    """The closed loop, with one set-up sample before each untraced operation.

    With trace, operations alternate between untraced and traced, so that
    the tracing overhead is measured under the same machine conditions.
    Returns (setup samples, results, failures, per-layer metrics or None).
    """
    setup_samples = []

    def set_up():
        # One build before each operation, so the samples span the run.
        t0 = perf_counter()
        wl.setup()
        setup_samples.append(perf_counter() - t0)

    def plain_op(k):
        set_up()
        return wl.op(k)

    if not trace:
        results, failures = run_ops(plain_op, seconds, max(wl.instances, SETUP_MIN))
        return setup_samples, results, failures, None

    def op(k):
        if k % 2 == 0:
            return dict(plain_op(k), traced=False)
        tracer.install(moffo)
        tracer.op_index = k
        tracer.active = True
        try:
            return dict(wl.op(k), traced=True)
        finally:
            tracer.active = False
            tracer.uninstall()

    results, failures = run_ops(op, seconds, 2)
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    overhead = (statistics.median(r["solve_s"] for r in traced)
                / statistics.median(r["solve_s"] for r in plain)
                if traced and plain else 0.0)
    return setup_samples, results, failures, tracer.per_layer(traced, wl.via_cli, overhead)


def run_workload(name, seed, seconds, trace):
    # Pin BLAS to one thread before numpy loads: OpenBLAS otherwise uses
    # every core, which moves the ResNet timings by about 15%.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("MOFFO_THREADS", None)
    moffo = import_moffo()
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / ("tmp-%s-%d-%d" % (name, seed, os.getpid()))
    work_dir.mkdir()
    tracer = tracing.Tracer()
    try:
        wl = workloads.make(name, seed, tracer, str(work_dir))
        try:
            setup_samples, results, failures, per_layer = measure(
                wl, tracer, moffo, seconds, trace)
        finally:
            wl.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(results) + len(failures)
    if trace:
        units = {m: u for m, u, _ in tracing.PER_LAYER}
        values = per_layer
    else:
        units = dict(END_TO_END)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = end_to_end(results, setup_samples, peak_rss_mb) if results else None
    values = values or {m: 0.0 for m in units}
    metrics = {m: {"value": float(values[m]), "unit": units[m]} for m in units}
    digests = {}
    for res in results:
        digests.setdefault(str(res["instance"]), res["digests"])
    # A 90th percentile only where at least ten samples lie beyond it.
    p90 = {}
    if not trace and len(results) >= 100:
        p90 = {m + ".p90": statistics.quantiles([r[m] for r in results], n=10)[-1]
               for m in _TIMED}
    full = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "attempted": attempted, "failed": len(failures),
            "failed_share": len(failures) / attempted, "metrics": metrics, "p90": p90,
            "trace_digests": digests,
            "operations": [{k: v for k, v in r.items() if k != "digests"} for r in results],
            "environment": environment(), "failures": failures}
    with open(OUT_DIR / ("%s-seed%d-trace%d.json" % (name, seed, trace)), "w") as fh:
        json.dump(full, fh, indent=1)
    if trace:
        tracer.write_spans(OUT_DIR / ("spans-%s-seed%d.csv" % (name, seed)))

    for tb in failures:
        print(tb, file=sys.stderr)
    print("workload %s seed %d: %d operations, %d inputs" % (name, seed, attempted, len(digests)))
    line = "%-36s %-16.9g %-10s n=%d"
    print(line % ("failed_share", full["failed_share"], "fraction", attempted))
    n_traced = sum(1 for r in results if r.get("traced"))
    for m, entry in metrics.items():
        n = (n_traced if trace else len(digests) if m in _PER_INPUT
             else len(setup_samples) if m == "setup_s" else 1 if m == "peak_rss_mb"
             else len(results))
        print(line % (m, entry["value"], entry["unit"], n))
    for m, value in p90.items():
        print(line % (m, value, "s", len(results)))
    for inst, d in sorted(digests.items(), key=lambda kv: int(kv[0])):
        print("trace sha256 input %s: ml %s single %s" % (inst, d["ml"], d["single"]))
    print("environment %s" % json.dumps(full["environment"], sort_keys=True))
    return {"correct": not failures and bool(results), "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def run_all(seed, seconds, trace):
    """Every workload, each in its own process so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit("workload %s exited with %d" % (name, proc.returncode))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][name] = result["metrics"]
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / ("all-seed%d-trace%d.json" % (seed, trace)), "w") as fh:
        json.dump(combined, fh, indent=1)
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

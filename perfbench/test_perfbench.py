"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import run

moffo = run.import_moffo()

import numpy as np  # noqa: E402  (after moffo's path is set up)

import tracing  # noqa: E402
import workloads  # noqa: E402
from moffo.hierarchy import Level, LevelHierarchy  # noqa: E402
from moffo.problems import ProblemHierarchy  # noqa: E402
from moffo.solver import SolverConfig  # noqa: E402


def test_self_time_on_hand_built_span_tree():
    # 0 [0, 10] root
    # +- 1 [1, 4]       child; its own child 3 [2, 3]
    # +- 2 [3, 6]       overlaps 1 on [3, 4], counted once for the root
    # +- 4 [9, 12]      sticks out of the root; only [9, 10] is covered
    # 5 [20, 21] a second root without children
    start = [0.0, 1.0, 3.0, 2.0, 9.0, 20.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0, 21.0]
    parent = [-1, 0, 0, 1, 0, -1]
    got = tracing.self_times(start, end, parent)
    assert got == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 3.0, 1.0])


def test_tracer_records_nesting_and_units():
    tracer = tracing.Tracer()
    assert tracer.begin("off") == -1
    tracer.active = True
    inner = tracer.wrap(lambda n: list(range(n)), "inner", units=lambda args, out: len(out))
    outer = tracer.wrap(lambda: inner(4), "outer")
    outer()
    assert tracer.names == ["outer", "inner"]
    assert list(tracer.parent) == [-1, 0]
    assert list(tracer.units) == [1.0, 4.0]
    with tracer.paused():
        outer()
    assert len(tracer.start) == 2


class _NanOracle(workloads.SolvePair):
    """A one-level problem whose oracle returns NaN."""

    target_rel = 0.1

    def build(self):
        level = Level(2, grad=lambda x: np.full(2, np.nan))
        return ProblemHierarchy("nan", LevelHierarchy([level], []), np.ones(2))

    def start(self, inst, problem):
        return problem.x0

    def config(self, target):
        return SolverConfig(i_max_top=10)


def test_nan_oracle_is_one_counted_failure(tmp_path):
    wl = _NanOracle(0, tracing.Tracer(), str(tmp_path))
    results, failures = run.run_ops(wl.op, seconds=0.0, min_ops=1)
    assert results == []
    assert len(failures) == 1


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

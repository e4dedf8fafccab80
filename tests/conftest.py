"""Shared test helpers."""

import itertools

import numpy as np
import pytest


@pytest.fixture
def record_top_iterates():
    """record(problem, every=1): wrap the problem's top gradient oracle so
    that every every-th call, from the first on, copies its x into the
    returned list.

    The solver evaluates the top gradient exactly once per top iterate, in
    order, so the list holds top iterates 0, every, 2 * every, ...  The top
    Level's grad is replaced in place: a variant that shares that Level
    (single_level() shares it with its parent) records too, and one copied
    from it before the call (strip_values() copies each grad) does not.
    Recording copies x and draws nothing, so no oracle stream moves.
    """

    def record(problem, every=1):
        level = problem.hierarchy.level(problem.hierarchy.r)
        grad = level.grad
        calls = itertools.count()
        iterates = []

        def recording_grad(x):
            if next(calls) % every == 0:
                iterates.append(np.array(x, dtype=float))
            return grad(x)

        level.grad = recording_grad
        return iterates

    return record

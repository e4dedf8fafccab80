"""Packed trace storage: record views, the CSV writer and bytes per record."""

import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moffo.cli import TRACE_COLUMNS, write_trace_csv
from moffo.solver import IterationRecord, Trace

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            math.inf, -math.inf, math.nan, -math.nan]
_value = st.one_of(st.floats(), st.sampled_from(_SPECIAL))
_maybe = st.one_of(st.none(), _value)
_record = st.tuples(
    st.integers(1, 5) | st.integers(0, 2 ** 53),
    st.integers(0, 1000) | st.integers(2 ** 31, 2 ** 53),
    st.sampled_from(["taylor", "recursive"]),
    _value, _value, _value, _value, _maybe, _maybe, _value, _maybe,
).map(lambda fields: IterationRecord(*fields))
_records = st.lists(_record, max_size=40)


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _reference_csv(records, path):
    """The trace CSV as it was written from a list of record objects."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for rec in records:
            fh.write(",".join([
                str(rec.level), str(rec.index), rec.kind,
                _fmt(rec.grad_norm), _fmt(rec.step_norm),
                _fmt(rec.delta_hat_norm), _fmt(rec.delta_norm),
                _fmt(rec.w_min), _fmt(rec.w_max),
                _fmt(rec.cost_cum), _fmt(rec.f_diag),
            ]) + "\n")


def _fields(rec):
    return (rec.level, rec.index, rec.kind, rec.grad_norm, rec.step_norm,
            rec.delta_hat_norm, rec.delta_norm, rec.w_min, rec.w_max, rec.cost_cum,
            rec.f_diag)


def _trace(records, r=3):
    tr = Trace(r)
    for rec in records:
        tr.add(*_fields(rec))
    return tr


def _bits(v):
    """A field compared bit for bit: floats by their IEEE bytes."""
    return struct.pack("<d", v) if isinstance(v, float) else (type(v), v)


def _same(a, b):
    return [_bits(v) for v in _fields(a)] == [_bits(v) for v in _fields(b)]


@settings(max_examples=150, deadline=None)
@given(_records)
def test_csv_is_byte_equal_to_the_record_writer(records):
    with tempfile.TemporaryDirectory() as tmp:
        mine, ref = Path(tmp, "packed.csv"), Path(tmp, "reference.csv")
        write_trace_csv(_trace(records), mine)
        _reference_csv(records, ref)
        assert mine.read_bytes() == ref.read_bytes()


@settings(max_examples=150, deadline=None)
@given(_records, st.integers(1, 5))
def test_record_views_round_trip_every_field(records, r):
    tr = _trace(records, r)
    assert len(tr) == len(tr.records) == len(records)
    assert all(_same(a, b) for a, b in zip(tr.records, records, strict=True))
    top = [rec for rec in records if rec.level == r]
    assert all(_same(a, b) for a, b in zip(tr.top_records(), top, strict=True))
    ref = np.array([rec.grad_norm for rec in top], dtype=float)
    assert tr.top_grad_norms().tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [0, 1, 5, 2500])
def test_record_views_index_like_a_list(n):
    records = [IterationRecord(1 + i % 3, i, "recursive" if i % 4 == 1 else "taylor",
                               0.5 * i, 1.0, 2.0, 3.0, None if i % 5 == 0 else 0.1 * i,
                               None if i % 5 == 0 else 1.0 + i, float(i),
                               None if i % 2 else -0.0) for i in range(n)]
    tr = _trace(records)
    top = [rec for rec in records if rec.level == 3]
    for view, ref in ((tr.records, records), (tr.top_records(), top)):
        assert len(view) == len(ref)
        for i in list(range(-len(ref), len(ref)))[:50] + list(range(-min(3, len(ref)), 0)):
            assert _same(view[i], ref[i])
        for bad in (len(ref), -len(ref) - 1):
            with pytest.raises(IndexError):
                view[bad]
        for sl in (slice(None), slice(1, -1), slice(None, None, -3), slice(7, 2, -1),
                   slice(-5, None), slice(len(ref) + 10, None)):
            got = view[sl]
            assert isinstance(got, list)
            assert len(got) == len(ref[sl])
            assert all(_same(a, b) for a, b in zip(got, ref[sl]))


def test_record_view_is_live_and_never_locks_the_trace():
    tr = Trace(1)
    tr.add(1, 0, "taylor", 1.0, 0.0, 0.0, 0.0, None, None, 1.0)
    view = tr.records
    it = iter(view)
    norms = tr.top_grad_norms()
    first = next(it)
    for i in range(1, 3000):  # past one decoded block while iterating
        tr.add(1, i, "taylor", 1.0 / i, 0.0, 0.0, 0.0, 0.5, 2.0, float(i))
    assert first.index == 0 and norms.tolist() == [1.0]
    assert len(view) == 3000
    assert [rec.index for rec in it] == list(range(1, 3000))
    assert view[-1].cost_cum == 2999.0


def test_add_rejects_an_unknown_kind():
    with pytest.raises(ValueError):
        Trace(1).add(1, 0, "newton", 1.0, 0.0, 0.0, 0.0, None, None, 1.0)
    with pytest.raises(IndexError):
        Trace(1).records[0]


def test_bytes_per_record_stay_small():
    # Each record used to be an object holding its own floats, 327-329 bytes.
    n = 20_000
    tr = Trace(3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            x = i * 0.001  # fresh float objects, as the solver's are
            tr.add(3, i, "taylor", x + 1.0, x + 2.0, x + 3.0, x + 4.0, x + 5.0, x + 6.0,
                   x + 7.0, None)
        per_record = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert len(tr) == n
    assert per_record <= 128

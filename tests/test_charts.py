"""Adapted charts from one row reduction of the gradient rows, against the
rank-by-rank greedy construction they replace."""

import random
from fractions import Fraction as F

import pytest

from segrecusp import linalg
from segrecusp.cusplocus import _on_any_line, line_chart, sample_point_cases
from segrecusp.errors import CrossCheckMismatch, PointNotOnLine, SegreCuspError
from segrecusp.fields import QQ
from segrecusp.instances import sampling_instance, table1_instance
from segrecusp.linalg import complete_basis, mat_rank, mat_vec, nullspace, rref
from segrecusp.lines import (LineOnSurface, coordinate_lines, enumerate_lines,
                             lines_through_singular_point)
from segrecusp.pencil import TABLE1_SYMBOLS
from segrecusp.surface import ProjectivePoint, adapted_chart

SYMBOLS = [str(s) for s in TABLE1_SYMBOLS]


def _greedy_columns(surface, point, line=None):
    """The chart columns chosen vector by vector by rank tests: p, then the
    kernel vectors of the gradient rows that raise the rank, the line
    direction first when there is a line, then the unit vectors that raise
    the rank."""
    rows, field = surface.gradient_rows(point)
    c0 = list(point.coords)

    def grow(basis, candidates):
        for v in candidates:
            if len(basis) < 3 and \
                    mat_rank(field, basis + [v]) == len(basis) + 1:
                basis.append(v)
        return basis

    tangent = grow([c0], nullspace(field, rows))
    if line is None:
        basis = [c0] + [v for v in tangent
                        if mat_rank(field, [c0, v]) == 2][:2]
    else:
        span = line.span_over(field)
        direction = next(v for v in span if mat_rank(field, [c0, v]) == 2)
        basis = grow([c0, direction], tangent)
    return complete_basis(field, basis, 5)


def _exact_scan(surface):
    pairs = list(coordinate_lines(surface.pencil))
    for s in surface.singular_points():
        pairs += lines_through_singular_point(surface.pencil, s)[0]
    return [LineOnSurface(a, b, "exact") for a, b in pairs]


def _dropped(surface, point):
    """Index, among the free columns, of the kernel vector the tangent basis
    leaves out."""
    _, _, pivots, _ = surface.tangent_frame(point)
    free = [c for c in range(5) if c not in pivots]
    return max(i for i, f in enumerate(free) if point.coords[f])


def test_point_charts_match_greedy_on_benchmark_points():
    """The two trichotomy points of each symbol's sampling instance, drawn
    as the benchmark draws them."""
    for j, symbol in enumerate(SYMBOLS):
        inst = sampling_instance(symbol)
        inst.lines = _exact_scan(inst)
        for k in range(2):
            rng = random.Random(f"{j}:{k}")
            ((p, pc),) = sample_point_cases(inst, 1, rng=rng)
            assert pc.hessian.chart.columns == _greedy_columns(inst, p), \
                (symbol, p)


@pytest.mark.parametrize("symbol", SYMBOLS)
def test_point_charts_match_greedy_on_sampled_points(symbol):
    inst = sampling_instance(symbol, seed=5)
    if inst.lines is None:
        enumerate_lines(inst)
    for p, pc in sample_point_cases(inst, 3, rng=random.Random(7)):
        assert pc.hessian.chart.columns == _greedy_columns(inst, p), p
        assert adapted_chart(inst, p).columns == pc.hessian.chart.columns


def test_line_charts_match_greedy_on_table1_lines():
    charts = 0
    for symbol in SYMBOLS:
        inst = table1_instance(symbol)
        for line in _exact_scan(inst):
            if line.field() != QQ:
                continue
            chart = line_chart(inst, line)
            assert chart.columns == \
                _greedy_columns(inst, chart.base_point, line)
            charts += 1
    assert charts >= 33


def test_charts_match_greedy_for_each_dropped_kernel_vector(line_fixture):
    """Hand-made points where the tangent basis drops the first, second and
    third kernel vector, with and without the line through them."""
    line = line_fixture.distinguished_line
    e = [[F(int(i == k)) for i in range(5)] for k in range(5)]
    cases = [(line_fixture, ProjectivePoint.make(QQ, c), line)
             for c in (e[0], e[1], [1, 1, 0, 0, 0], [1, 2, 0, 0, 0])]
    inst = table1_instance("[12(11)]")
    cases.append((inst, ProjectivePoint.make(QQ, [0, 1, 0, 1, 0]), None))
    for surface, p, aligned in cases:
        assert adapted_chart(surface, p).columns == _greedy_columns(surface, p)
        if aligned is not None:
            assert adapted_chart(surface, p, aligned).columns == \
                _greedy_columns(surface, p, aligned)
    assert {_dropped(s, p) for s, p, _ in cases} == {0, 1, 2}


def test_point_chart_is_one_row_reduction(monkeypatch):
    inst = sampling_instance("[23]", seed=5)
    points = [p for p, _ in sample_point_cases(inst, 3, rng=random.Random(7))]
    calls = []
    reduce = linalg._row_reduce

    def counted(field, M, ncols=None):
        calls.append(len(M))
        return reduce(field, M, ncols)

    monkeypatch.setattr(linalg, "_row_reduce", counted)
    for p in points:
        calls.clear()
        adapted_chart(inst, p)
        assert calls == [2], p


def test_line_off_the_tangent_plane_is_rejected():
    """A 'line' through p whose direction misses T_pS: the gradient rows
    are (266/33, 40/33) at q."""
    inst = sampling_instance("[23]")
    ((p, _),) = sample_point_cases(inst, 1, rng=random.Random(3))
    q = ProjectivePoint.make(QQ, [1, 2, 3, 4, 5])
    rows, _ = inst.gradient_rows(p)
    assert mat_vec(QQ, rows, list(q.coords)) == [F(266, 33), F(40, 33)]
    with pytest.raises(PointNotOnLine, match="tangent plane"):
        adapted_chart(inst, p, LineOnSurface(p, q, "exact"))


def test_degenerate_exact_line_is_an_error():
    inst = table1_instance("[1(11)(11)]")
    a = ProjectivePoint.make(QQ, [1, 2, 3, 4, 5])
    line = LineOnSurface(a, a, "exact")
    with pytest.raises(CrossCheckMismatch):
        line.equations
    inst.lines = [line]
    for p in [a] + inst.singular_points():
        with pytest.raises(CrossCheckMismatch):
            _on_any_line(inst, p)


BASE_PARAMS = (0, 1, 2, 3, 5, 7, -1, -2, 11, 13, -3, 4, 6, 8, 9, 10, -5, 12,
               -7, 15)


def _line_chart_with_pretests(surface, line):
    """The line chart found with an on-surface and a smoothness test before
    each base point is charted."""
    a, b = line.span_over(QQ)
    for t in BASE_PARAMS:
        base = ProjectivePoint.make(QQ, [ai + t * bi for ai, bi in zip(a, b)])
        if not surface.on_surface(base):
            continue
        try:
            if not surface.is_smooth_at(base):
                continue
            return adapted_chart(surface, base, line)
        except SegreCuspError:
            continue
    raise SegreCuspError(f"no usable base point found on {line}")


def _table1_lines():
    """The distinct rational lines of the exact scans of the Table-1
    default forms, each with its surface."""
    out = []
    for symbol in SYMBOLS:
        inst = table1_instance(symbol)
        seen = set()
        for line in _exact_scan(inst):
            if line.field() != QQ:
                continue
            key = tuple(map(tuple, rref(QQ, line.span_over(QQ))[0]))
            if key not in seen:
                seen.add(key)
                out.append((inst, line))
    return out


def test_line_charts_match_pretested_charts_on_table1_lines():
    pairs = _table1_lines()
    assert len(pairs) == 33
    for inst, line in pairs:
        assert line_chart(inst, line).columns == \
            _line_chart_with_pretests(inst, line).columns, line


def test_line_chart_is_one_row_reduction(monkeypatch):
    """Where the first base point is smooth, the only row reduction is the
    one of its gradient rows (the line's equations are computed once per
    line, before counting)."""
    calls = []
    reduce = linalg._row_reduce

    def counted(field, M, ncols=None):
        calls.append(len(M))
        return reduce(field, M, ncols)

    monkeypatch.setattr(linalg, "_row_reduce", counted)
    charted = 0
    for inst, line in _table1_lines():
        line.equations
        if not inst.is_smooth_at(ProjectivePoint.make(
                QQ, line.span_over(QQ)[0])):
            continue
        calls.clear()
        line_chart(inst, line)
        assert calls == [2], line
        charted += 1
    assert charted > 0

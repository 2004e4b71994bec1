"""Adapted charts read off the integer gradient rows, against the
rank-by-rank greedy construction and the Fraction row reduction they
replace."""

import functools
import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

from segrecusp import linalg
from segrecusp.cusplocus import _on_any_line, line_chart, sample_point_cases
from segrecusp.errors import (CrossCheckMismatch, NotOnSurface, PointNotOnLine,
                              PointSingular, SegreCuspError)
from segrecusp.fields import QQ
from segrecusp.instances import sampling_instance, table1_instance
from segrecusp.linalg import (complete_basis, gram_matrix, mat_rank, mat_vec,
                              nullspace, rref, rref_kernel)
from segrecusp.lines import (LineOnSurface, coordinate_lines, enumerate_lines,
                             lines_through_singular_point)
from segrecusp.pencil import TABLE1_SYMBOLS, QuadricPencil, default_instance
from segrecusp.surface import ProjectivePoint, SurfaceInstance, adapted_chart

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


@functools.lru_cache(maxsize=None)
def _benchmark_draws():
    """(surface, point, point case) for the two trichotomy points of each
    symbol's sampling instance, drawn as the benchmark draws them."""
    out = []
    for j, symbol in enumerate(SYMBOLS):
        inst = sampling_instance(symbol)
        inst.lines = _exact_scan(inst)
        for k in range(2):
            rng = random.Random(f"{j}:{k}")
            ((p, pc),) = sample_point_cases(inst, 1, rng=rng)
            out.append((inst, p, pc))
    return out


def _benchmark_points():
    return [(inst, p) for inst, p, _ in _benchmark_draws()]


def test_point_charts_match_greedy_on_benchmark_points():
    for inst, p, pc in _benchmark_draws():
        assert pc.hessian.chart.columns == _greedy_columns(inst, p), p


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


def _count_work(monkeypatch):
    """Counters of the eliminations (every row reduction, rank,
    determinant and solve in linalg runs one) and of the gradient rows
    formed at each point."""
    calls = Counter()
    eliminate, gradient_rows = linalg._eliminate, SurfaceInstance.gradient_rows

    def counted_eliminate(*args, **kwargs):
        calls["eliminate"] += 1
        return eliminate(*args, **kwargs)

    def counted_rows(surface, point):
        calls[point] += 1
        return gradient_rows(surface, point)

    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    monkeypatch.setattr(SurfaceInstance, "gradient_rows", counted_rows)
    return calls


def test_point_chart_needs_no_elimination(monkeypatch):
    """A point chart forms the gradient rows once and reads the tangent
    frame off their minors, with no elimination."""
    inst = sampling_instance("[23]", seed=5)
    points = [p for p, _ in sample_point_cases(inst, 3, rng=random.Random(7))]
    calls = _count_work(monkeypatch)
    for p in points:
        calls.clear()
        adapted_chart(inst, p)
        assert calls == {p: 1}, p


def test_line_off_the_tangent_plane_is_rejected():
    """A 'line' through p whose direction misses T_pS: the gradient rows,
    formed on the numerators 33 p of p, are (266, 40) at q."""
    inst = sampling_instance("[23]")
    ((p, _),) = sample_point_cases(inst, 1, rng=random.Random(3))
    q = ProjectivePoint.make(QQ, [1, 2, 3, 4, 5])
    rows, _ = inst.gradient_rows(p)
    assert QQ.numerators(p.coords)[1] == 33
    assert mat_vec(QQ, rows, list(q.coords)) == [266, 40]
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
    """(base point, columns) of the line chart found with exact tests over
    Q before each base point is charted: on S by its 1 x 1 Gram matrices,
    smooth by the rank of its gradient rows M p, and the columns chosen
    vector by vector (:func:`_greedy_columns`)."""
    members = surface.pencil.coerced(QQ)
    a, b = line.span_over(QQ)
    for t in BASE_PARAMS:
        base = ProjectivePoint.make(QQ, [ai + t * bi for ai, bi in zip(a, b)])
        c0 = list(base.coords)
        if any(gram_matrix(QQ, M, [c0])[0][0] for M in members):
            continue
        if mat_rank(QQ, [mat_vec(QQ, M, c0) for M in members]) == 2:
            return base, _greedy_columns(surface, base, line)
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


@functools.lru_cache(maxsize=None)
def _census_copies():
    """The census benchmark's congruent copies: for each Table-1 symbol in
    Table-1 order, the default form moved by the next invertible 5 x 5
    matrix with entries in [-2, 2] drawn from random.Random(1)."""
    rng, copies = random.Random(1), []
    for symbol in SYMBOLS:
        while True:
            A = [[F(rng.randint(-2, 2)) for _ in range(5)] for _ in range(5)]
            if linalg.mat_det(QQ, A):
                break
        copies.append(SurfaceInstance(default_instance(symbol).congruent(A)))
    return copies


def _scanned_lines():
    """Every rational line of the exact scans of the Table-1 default forms
    and of their congruent copies, with the span it was found with (a line
    found twice is charted from both spans), each with its surface."""
    surfaces = [table1_instance(symbol) for symbol in SYMBOLS]
    return [(inst, line) for inst in surfaces + list(_census_copies())
            for line in _exact_scan(inst) if line.field() == QQ]


def test_line_charts_match_pretested_charts_on_table1_lines():
    """Every scanned line of the default forms (the 33 distinct lines and
    their other spans) and of the copies, whose dense coordinates exercise
    the choice of the pivots and of the minor that picks the tangent
    vector."""
    assert len(_table1_lines()) == 33
    pairs = _scanned_lines()
    assert len(pairs) == 111
    for inst, line in pairs:
        chart = line_chart(inst, line)
        assert (chart.base_point, chart.columns) == \
            _line_chart_with_pretests(inst, line), line


def test_line_chart_needs_no_elimination(monkeypatch):
    """line_chart forms the gradient rows once at each base point it
    tries, the last being the chart's, and runs no elimination: a singular
    base point costs one rank test of its integer rows."""
    tried = Counter()
    pairs = _scanned_lines()
    calls = _count_work(monkeypatch)
    for inst, line in pairs:
        calls.clear()
        chart = line_chart(inst, line)
        points = [k for k in calls if k != "eliminate"]
        assert calls["eliminate"] == 0, line
        assert all(calls[k] == 1 for k in points), line
        assert points[-1] == chart.base_point, line
        tried[len(points)] += 1
    assert tried[1] and sum(tried.values()) > tried[1]


def test_line_off_the_surface_is_named():
    """A line that is not on S fails at the first base point off S, with
    an error naming the line; [122] has no (1 : 0 : 0 : 0 : 0)."""
    inst = table1_instance("[122]")
    a, b = (ProjectivePoint.make(QQ, c)
            for c in ([1, 0, 0, 0, 0], [0, 1, 1, 0, 0]))
    line = LineOnSurface(a, b, "exact")
    with pytest.raises(NotOnSurface, match=re.escape(
            f"{line} is not on the surface: {a} is not on the surface")):
        line_chart(inst, line)
    # through a point of S, the line leaves its tangent plane there
    inst, p = _benchmark_points()[0]
    off = LineOnSurface(p, ProjectivePoint.make(QQ, [1, 2, 3, 4, 5]), "exact")
    with pytest.raises(NotOnSurface, match=re.escape(
            f"{off} is not on the surface: line is not inside the tangent "
            f"plane at {p}")):
        line_chart(inst, off)


def _rref_frame(surface, point):
    """(tangent, pivots) as the row reduction of the gradient rows M p over
    the point's field gives them: p and the kernel basis of the reduced
    rows, less the vector of the last free column where p is nonzero."""
    field, coords = point.field, list(point.coords)
    rows = [mat_vec(field, M, coords) for M in surface.pencil.coerced(field)]
    R, pivots = rref(field, rows)
    kernel = rref_kernel(field, R, pivots)
    free = [c for c in range(5) if c not in pivots]
    last = max(i for i, f in enumerate(free) if coords[f])
    return [coords] + kernel[:last] + kernel[last + 1:], pivots


def test_tangent_frame_matches_fraction_row_reduction():
    """At the trichotomy benchmark points and at the base point of every
    scanned line, the integer frame has the pivots and the kernel vectors
    of the reduced Fraction rows, and its rows are multiples of M p."""
    points = _benchmark_points() + [
        (inst, line_chart(inst, line).base_point)
        for inst, line in _scanned_lines()]
    assert len(points) == 32 + 111
    for inst, p in points:
        tangent, rows, pivots, field = inst.tangent_frame(p)
        assert (tangent, list(pivots)) == _rref_frame(inst, p), p
        for row, M in zip(rows, inst.pencil.coerced(field)):
            assert mat_rank(field, [row, mat_vec(field, M, list(p.coords))]) \
                == 1, p


def test_tangent_frame_rejects_singular_and_off_surface_points():
    """PointSingular at every singular point of the 16 default forms and of
    a diagonal [1(11)(11)] pencil, whose singular points lie over Q(i);
    NotOnSurface at points off S."""
    def diag(*entries):
        return [[F(x) if i == j else F(0) for j in range(5)]
                for i, x in enumerate(entries)]

    surfaces = [table1_instance(symbol) for symbol in SYMBOLS]
    surfaces.append(SurfaceInstance(QuadricPencil(diag(1, 1, 1, 1, 1),
                                                  diag(1, 1, 2, 2, 3))))
    fields, off = Counter(), 0
    for inst in surfaces:
        for s in inst.singular_points():
            fields[s.field] += 1
            with pytest.raises(PointSingular, match="must be smooth"):
                inst.tangent_frame(s)
            assert not inst.is_smooth_at(s)
        for c in ([1, 2, 3, 4, 5], [1, 1, 1, 1, 1], [0, 1, -1, 3, 2]):
            q = ProjectivePoint.make(QQ, c)
            if all(not gram_matrix(QQ, M, [c])[0][0]
                   for M in inst.pencil.coerced(QQ)):
                continue
            off += 1
            assert not inst.on_surface(q)
            with pytest.raises(NotOnSurface, match="is not on the surface$"):
                inst.tangent_frame(q)
    assert fields[QQ] and len(fields) == 2 and off > 40

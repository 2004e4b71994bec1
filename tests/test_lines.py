import json
import math
import random
from collections import Counter
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
import sympy

from segrecusp.cusplocus import line_report
from segrecusp.errors import (CrossCheckMismatch, SegreCuspError,
                              TowerUnsupported)
from segrecusp.fields import QQ, QuadraticExtension
from segrecusp.instances import sampling_instance, table1_instance
from segrecusp.linalg import mat_rank
from segrecusp import lines as lines_module
from segrecusp.lines import (_binary_factors, _c_parts, _conic_resultant,
                             _through_point_forms, coordinate_lines,
                             count_lines_through_singular_point,
                             LineOnSurface, enumerate_lines,
                             line_contained_exact,
                             lines_through_singular_point, off_singular_lines)
from segrecusp.pencil import (TABLE1_SYMBOLS, SegreSymbol, default_instance,
                              normal_form)
from segrecusp.surface import (ProjectivePoint, SurfaceInstance,
                               sample_rational_points)

from conftest import congruences

EXPECTED_COUNTS = {
    "[11111]": (16, 0, 0),
    "[1112]": (8, 4, 0),
    "[12(11)]": (0, 4, 2),
    "[5]": (1, 2, 0),
    "[(14)]": (0, 1, 0),
}


@pytest.mark.parametrize("symbol,counts", sorted(EXPECTED_COUNTS.items()))
def test_line_census_counts(symbol, counts, census_cache):
    inst, census = census_cache(symbol)
    assert census.counts == counts
    assert census.residual_bound < 1e-10


def test_coordinate_line_scan():
    inst = table1_instance("[12(11)]")
    coords = coordinate_lines(inst.pencil)
    assert len(coords) == 2  # the two lines joining singular coordinate points
    for a, b in coords:
        assert line_contained_exact(inst.pencil, a, b)


def test_through_point_counts_match_table():
    # [23]: three lines through the A2 point, two through the A1 point
    inst = table1_instance("[23]")
    got = sorted(count_lines_through_singular_point(inst.pencil, s)
                 for s in inst.singular_points())
    assert got == [2, 3]


def test_exact_lines_through_singular_point_verified():
    inst = table1_instance("[(12)2]")
    total = 0
    for s in inst.singular_points():
        found, _ = lines_through_singular_point(inst.pencil, s)
        for a, b in found:
            assert line_contained_exact(inst.pencil, a, b)
        total += len(found)
    assert total >= 3


def test_numeric_lines_carry_certificates(census_cache):
    inst, census = census_cache("[11111]")
    numeric = [l for l in census.lines if l.exactness == "numeric"]
    assert len(numeric) == 16
    assert all(l.residual_bound < 1e-10 for l in numeric)


def test_line_incidence_partition(census_cache):
    inst, census = census_cache("[12(11)]")
    assert sum(census.counts) == len(census.lines)
    two_sing = [l for l in census.lines if l.n_incident == 2]
    assert all(l.exactness == "exact" and l.field() == QQ for l in two_sing)


# Congruent copies on which the census used to be wrong with no warning: a
# spurious line passing 0.01-0.02 from an A1 point (case 1), and the four
# lines through the singular point lost (case 2).
SPURIOUS_LINE = ("[1(11)(11)]", [[-2, 0, -2, -2, -2], [2, 2, -2, -1, 1],
                                 [0, 2, 0, -1, -2], [0, 0, 0, -1, 1],
                                 [1, 1, 2, 1, 2]])
LOST_LINES = ("[11(12)]", [[1, 0, -1, -2, -2], [2, -1, 0, 2, -1],
                           [0, 0, -2, 2, 0], [2, -1, 1, 0, 2], [0, 1, 0, 1, 0]])


def _congruent_copy(symbol, A):
    return default_instance(symbol).congruent(
        [[Fraction(x) for x in row] for row in A])


def test_census_has_no_spurious_line_near_a_singular_point():
    pen = _congruent_copy(*SPURIOUS_LINE)
    census = enumerate_lines(SurfaceInstance(pen, seed=4))
    assert census.counts == (0, 0, 4)
    assert census.warnings == []


def test_census_keeps_lines_through_a_singular_point():
    pen = _congruent_copy(*LOST_LINES)
    census = enumerate_lines(SurfaceInstance(pen, seed=7))
    assert census.counts == (0, 4, 0)
    assert census.warnings == []


# --------------------------------------------------------------------------
# the census of every Table-1 symbol, in default form and congruent copies

with resources.files("segrecusp").joinpath("data", "table1.json").open() as fh:
    TABLE1 = json.load(fh)["rows"]


def _check_census(pencil, symbol):
    surface = SurfaceInstance(pencil)
    census = enumerate_lines(surface)
    assert list(census.counts) == TABLE1[symbol]["lines"]
    assert census.warnings == []
    # the census classified Sing(S) already: ADE types are congruence invariant
    assert surface.singularity_multiset() == sorted(TABLE1[symbol]["sing"])
    for line in census.lines:
        if line.exactness == "exact":
            assert line_contained_exact(pencil, line.point_a, line.point_b)
        else:
            assert line.residual_bound < 1e-10


@pytest.mark.parametrize("symbol", [str(s) for s in TABLE1_SYMBOLS])
def test_census_matches_table1_congruent(symbol, census_congruences):
    # the default forms are criterion 1 of the acceptance suite
    _check_census(default_instance(symbol).congruent(
        census_congruences[symbol]), symbol)


@pytest.mark.parametrize("symbol", ["[1(11)(11)]", "[(11)3]", "[(14)]"])
def test_derogatory_census_has_no_line_off_sing(symbol):
    # every line meets the vertex line of a rank-3 cone, hence Sing(S)
    pen = normal_form(symbol, [3, -1, 4][:len(SegreSymbol.parse(symbol).units)])
    assert off_singular_lines(pen) == ([], [])
    census = enumerate_lines(SurfaceInstance(pen.congruent(
        congruences(5)[symbol][0])))
    assert census.counts[0] == 0
    assert sum(census.counts) == sum(TABLE1[symbol]["lines"])
    assert census.warnings == []


def test_census_ignores_search_keywords(census_congruences):
    pen = default_instance("[1112]").congruent(census_congruences["[1112]"])
    inst = SurfaceInstance(pen, seed=3)
    seen = set()
    for kwargs in [{}, {"newton_tol": 1e-3}]:
        census = enumerate_lines(inst, **kwargs)
        seen.add((census.counts, tuple(
            tuple(np.round(l.plucker_float(), 8).tolist())
            for l in census.lines)))
    assert len(seen) == 1


def test_line_reports_on_the_exact_lines_of_a_dense_copy(census_congruences):
    """The nine exact rational lines of the [122] copy of the census draw.
    Their line charts solve the graph over Q(x) with non-constant
    denominators, so Q(x) arithmetic takes real gcds; the discriminant of
    the Hessian form cuts 16 lines' worth along them (ROADMAP item 1)."""
    surface = SurfaceInstance(default_instance("[122]").congruent(
        census_congruences["[122]"]))
    exact = [line for line in enumerate_lines(surface).lines
             if line.exactness == "exact" and line.field() == QQ]
    reports = [line_report(surface, line) for line in exact]
    assert Counter((r.m, r.disc_order, r.branch_mult) for r in reports) == {
        (0, 1, 1): 4, (0, 2, 2): 4, (2, 4, 0): 1}
    assert sum(r.disc_order for r in reports) == 16
    assert any(len(c.den) > 1 for r in reports for c in r.F.coeffs.values())


def test_uncertified_numeric_line_is_a_warning(monkeypatch):
    from segrecusp import lines
    pen = default_instance("[11111]")
    _, numeric = off_singular_lines(pen)
    numeric[0].residual_bound = 1e-6
    monkeypatch.setattr(lines, "off_singular_lines", lambda pencil: ([], numeric))
    census = enumerate_lines(SurfaceInstance(pen))
    assert census.counts == (16, 0, 0)
    assert census.warnings == ["numeric line not certified: residual 1.0e-06"]


def _on_line_by_rank(line, point):
    """rank [a, b, p] == 2 over the common field of the line and the point."""
    field = line.field() if point.field == QQ else point.field
    rows = [*line.span_over(field), [field.coerce(c) for c in point.coords]]
    return mat_rank(field, rows) == 2


def test_rational_points_of_lines_over_a_quadratic_field():
    """A line over Q(sqrt 2) holds no rational point, one, or a rational
    line of them (spanned by conjugate points); contains reads each
    rational point as the rank test does, and refuses a degenerate span."""
    K = QuadraticExtension(2)
    r = K.sqrt_gen
    spans = {0: ([1, r, 0, 0, 0], [0, 0, 1, r, 0]),
             1: ([1, 0, 0, 0, 0], [0, 1, r, 0, 0]),
             2: ([1, r, 0, 0, 0], [1, -r, 0, 0, 0])}
    points = [ProjectivePoint.make(QQ, v) for v in (
        [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [3, -2, 0, 0, 0], [0, 0, 1, 0, 0],
        [1, 1, 1, 1, 1], [0, 1, 2, 0, 0], [2, 0, 0, 0, 1])]
    for count, span in spans.items():
        line = LineOnSurface(*(ProjectivePoint.make(K, v) for v in span),
                             "exact")
        verdicts = [line.contains(p) for p in points]
        assert verdicts == [_on_line_by_rank(line, p) for p in points]
        assert sum(verdicts) == [0, 1, 3][count], line
    a = ProjectivePoint.make(K, spans[0][0])
    for p in points[:2] + [a]:
        with pytest.raises(CrossCheckMismatch):
            LineOnSurface(a, a, "exact").contains(p)


@pytest.mark.parametrize("symbol", [str(s) for s in TABLE1_SYMBOLS])
def test_line_contains_matches_rank_test(symbol, census_congruences):
    """Every exact census line of the default form and its congruent copy,
    at the singular points, sampled surface points, points of the line and
    those points moved 1e-9 off it."""
    form = default_instance(symbol)
    for pencil in (form, form.congruent(census_congruences[symbol])):
        surface = SurfaceInstance(pencil)
        census = enumerate_lines(surface)
        try:
            sampled = sample_rational_points(surface, 2, rng=random.Random(0),
                                             max_attempts=200)
        except SegreCuspError:
            sampled = []
        for line in census.lines:
            if line.exactness != "exact":
                continue
            field = line.field()
            a, b = line.span_over(field)
            points = surface.singular_points() + sampled
            for t in (0, 1, -3):
                on = [x + t * y for x, y in zip(a, b)]
                points.append(ProjectivePoint.make(field, on))
                for k in range(5):
                    off = list(on)
                    off[k] += Fraction(1, 10 ** 9)
                    points.append(ProjectivePoint.make(field, off))
            verdicts = []
            for p in points:
                try:
                    want = _on_line_by_rank(line, p)
                except TowerUnsupported:
                    with pytest.raises(TowerUnsupported):
                        line.contains(p)
                    continue
                assert line.contains(p) == want, (line, p)
                verdicts.append(want)
            assert True in verdicts and False in verdicts


# --------------------------------------------------------------------------
# the closed-form conic resultant and its factors against sympy


def _oracle_pencils(copies):
    """The 16 default forms, their census copies and the 16 sampling
    instances."""
    for symbol in map(str, TABLE1_SYMBOLS):
        form = default_instance(symbol)
        yield f"{symbol} default", form
        yield f"{symbol} copy", form.congruent(copies[symbol])
        yield f"{symbol} sampling", sampling_instance(symbol).pencil


def _sympy_resultant(forms):
    """The c-resultant as the census took it before the closed form:
    sympy's Poly.resultant of the forms as polynomials in (c, a, b)."""
    polys = [sympy.Poly.from_dict(
        {tuple((i == k) + (j == k) for k in (2, 0, 1)):
         sympy.Rational(q.numerator, q.denominator) for (i, j), q in f.items()},
        sympy.symbols("c a b")) for f in forms]
    return polys[0].resultant(polys[1])


def _ascending_in_a(poly, degree):
    """Rational coefficients of a binary form of the given total degree in
    (a, b), ascending in a."""
    coeffs = poly.as_dict()
    return [Fraction(int(c.p), int(c.q))
            for c in (sympy.Rational(coeffs.get((i, degree - i), 0))
                      for i in range(degree + 1))]


def test_conic_resultant_and_factors_match_sympy(census_congruences):
    points = 0
    for label, pencil in _oracle_pencils(census_congruences):
        for s in SurfaceInstance(pencil).singular_points():
            _, forms = _through_point_forms(pencil, s)
            if forms is None:
                continue
            points += 1
            got = _conic_resultant(*map(_c_parts, forms))
            res = _sympy_resultant(forms)
            assert any(got) and not res.is_zero, label
            want = _ascending_in_a(res, len(got) - 1)
            # equal up to a nonzero constant
            k = next(i for i, c in enumerate(got) if c)
            assert [got[k] * c for c in want] == [want[k] * c for c in got], label
            factors = [tuple(_ascending_in_a(f, f.total_degree()))
                       for f, _m in sympy.factor_list(res)[1]]
            assert sorted(_binary_factors(got)) == sorted(factors), label
    assert points >= 80


def test_binary_factors_distinct_and_leftovers():
    a, b = sympy.symbols("a b")
    cases = [b ** 2 * (a - 2 * b) ** 2, (3 * a + b) * a * (a ** 2 + b ** 2),
             (a ** 2 - 2 * b ** 2) * (a ** 2 + 3 * b ** 2),
             -(a ** 2 + a * b + 5 * b ** 2) ** 2, (2 * a - 3 * b) * b ** 3,
             a ** 3 - 2 * b ** 3, 7 * a * b * (a + b) * (a - b)]
    for expr in cases:
        poly = sympy.Poly(sympy.expand(expr), a, b)
        degree = poly.total_degree()
        want = [tuple(_ascending_in_a(f, f.total_degree()))
                for f, _m in sympy.factor_list(poly)[1]]
        ints = [int(c) for c in _ascending_in_a(poly, degree)]
        assert sorted(_binary_factors(ints)) == sorted(want), expr


def test_census_takes_no_sympy_resultant_and_factors_only_quartics(
        monkeypatch, census_congruences):
    def no_resultant(*args, **kwargs):
        raise AssertionError("sympy resultant called")

    factored = []
    real = lines_module.factor_over_q

    def recorded(coeffs):
        factored.append(coeffs)
        return real(coeffs)

    monkeypatch.setattr(sympy.Poly, "resultant", no_resultant)
    monkeypatch.setattr(lines_module, "factor_over_q", recorded)
    for symbol in map(str, TABLE1_SYMBOLS):
        form = default_instance(symbol)
        for pencil in (form, form.congruent(census_congruences[symbol])):
            census = enumerate_lines(SurfaceInstance(pencil))
            assert list(census.counts) == TABLE1[symbol]["lines"], symbol
    # the squarefree quartics split by their float roots
    assert factored == []


def _binary_form(coeffs):
    a, b = sympy.symbols("a b")
    deg = len(coeffs) - 1
    return sympy.Poly(sum(c * a ** i * b ** (deg - i)
                          for i, c in enumerate(coeffs)), a, b)


def _quadratic(rng, bound):
    """A random integer quadratic, ascending, irreducible over Q."""
    while True:
        c, b, a = (rng.randint(-bound, bound), rng.randint(-bound, bound),
                   rng.randint(1, bound))
        disc = b * b - 4 * a * c
        if c and (disc < 0 or math.isqrt(disc) ** 2 != disc):
            return c, b, a


def test_quartic_split_matches_sympy(monkeypatch, rng=random.Random(31)):
    # the census quartic of the [11(12)] copy has Galois group V4: a square
    # discriminant, and 2 + 2 modulo every prime tried
    quartics = [(832, -3392, 5216, -3592, 937), (1, 0, -10, 0, 1),
                (6, 0, -5, 0, 1)]
    bound = 10 ** 5
    for k in range(500):
        if k % 2:
            g, h = _quadratic(rng, bound), _quadratic(rng, bound)
            quartics.append(tuple(sum(g[i] * h[j - i] for i in range(3)
                                      if 0 <= j - i < 3) for j in range(5)))
        else:
            quartics.append(tuple(rng.randint(-bound, bound) for _ in range(4))
                            + (rng.randint(1, bound),))

    def no_sympy(coeffs):
        raise AssertionError("factor_over_q called")

    monkeypatch.setattr(lines_module, "factor_over_q", no_sympy)
    shapes = Counter()
    for f in quartics:
        want = [tuple(_ascending_in_a(p, p.total_degree()))
                for p, _m in sympy.factor_list(_binary_form(f))[1]]
        assert sorted(_binary_factors(list(f))) == sorted(want), f
        shapes[tuple(len(p) - 1 for p in want)] += 1
    assert shapes[(2, 2)] >= 250 and shapes[(4,)] >= 200


def test_quartic_split_of_large_products_matches_sympy(
        rng=random.Random(32)):
    # with quadratic coefficients up to 10**9, float roots cannot carry
    # a4 s and a4 p to within 1/2, and sympy factors the quartic
    quartics = [(832, -3392, 5216, -3592, 937)]
    for _ in range(20):
        g, h = _quadratic(rng, 10 ** 9), _quadratic(rng, 10 ** 9)
        quartics.append(tuple(sum(g[i] * h[j - i] for i in range(3)
                                  if 0 <= j - i < 3) for j in range(5)))
    quartics.append(tuple(rng.randint(-10 ** 18, 10 ** 18) for _ in range(4))
                    + (rng.randint(1, 10 ** 18),))
    for f in quartics:
        want = [tuple(_ascending_in_a(p, p.total_degree()))
                for p, _m in sympy.factor_list(_binary_form(f))[1]]
        assert sorted(_binary_factors(list(f))) == sorted(want), f
    assert max(map(abs, quartics[1])) >= lines_module.QUARTIC_FLOAT_BOUND

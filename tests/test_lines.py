from fractions import Fraction

import pytest

from segrecusp.fields import QQ
from segrecusp.instances import table1_instance
from segrecusp.lines import (coordinate_lines, count_lines_through_singular_point,
                             enumerate_lines, line_contained_exact,
                             lines_through_singular_point)
from segrecusp.pencil import default_instance
from segrecusp.surface import SurfaceInstance

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


@pytest.mark.parametrize("kwargs", [{}, {"starts_per_chart": 200}])
def test_census_has_no_spurious_line_near_a_singular_point(kwargs):
    pen = _congruent_copy(*SPURIOUS_LINE)
    census = enumerate_lines(SurfaceInstance(pen, seed=4), **kwargs)
    assert census.counts == (0, 0, 4)
    assert census.warnings == []


def test_census_keeps_lines_through_a_singular_point():
    pen = _congruent_copy(*LOST_LINES)
    census = enumerate_lines(SurfaceInstance(pen, seed=7), starts_per_chart=200)
    assert census.counts == (0, 4, 0)
    assert census.warnings == []

from fractions import Fraction as F

from segrecusp.appendix import (appendix_cases, closed_forms_first_case,
                                verify_appendix)
from segrecusp.cusplocus import _line_report_at_order
from segrecusp.fields import QQ
from segrecusp.pencil import SegreSymbol
from segrecusp.surface import ProjectivePoint, adapted_chart


def test_seven_cases_reproduce_multiplicities():
    results = verify_appendix()
    assert [(r["m"], r["branch_mult"]) for r in results] == \
        [(2, 0), (2, 0), (2, 0), (3, 0), (3, 0), (4, 0), (4, 0)]
    assert all(r["pass"] for r in results)


def _point_chart_line_multiple(surf, case, order=8):
    """The line multiple of the special section read off a point jet at a
    fixed order: the graph solved to ``order`` at the first smooth rational
    point (1 : t) of the line, in a chart aligned to the line, and the
    least power of y in the section germ with its 1-jet dropped."""
    i, j = case.line_points
    for t in range(1, 25):
        coords = [F(0)] * 5
        coords[i], coords[j] = F(1), F(t)
        p = ProjectivePoint.make(QQ, coords)
        if surf.is_smooth_at(p):
            break
    chart = adapted_chart(surf, p, case.line())
    lam, mu = chart.dual_coords(case.special_hyperplane)
    Fj, Gj = chart.solve_graph(order)
    h = Fj * lam + Gj * mu
    h = h.clone({e: c for e, c in h.coeffs.items() if sum(e) > 1})
    return h.order_in("y")


def test_escalating_line_reports_match_order_8():
    """Every record against the line-report kernel at order 8, and every
    special section against the line multiple read off a point jet at
    order 8."""
    for case, record in zip(appendix_cases(), verify_appendix()):
        surf = case.surface()
        rep = _line_report_at_order(case.line(), case.chart(surf), 8)
        assert (record["m"], record["disc_order"], record["branch_mult"]) == \
            (rep.m, rep.disc_order, rep.branch_mult), case.name
        assert record["pass"], case.name
        if case.special_hyperplane is None:
            assert "special_section" not in record
            continue
        k = _point_chart_line_multiple(surf, case)
        assert record["special_section"] == f"NonReducedLineMultiple({k})"


def test_first_case_closed_forms_instantiated():
    case = appendix_cases()[0]
    surf = case.surface()
    rep = _line_report_at_order(case.line(), case.chart(surf), 8)
    f_c, g_c, k_c = closed_forms_first_case(1, 2, 3)
    assert rep.F.coeffs == {(2,): f_c}
    assert rep.G.coeffs == {(2,): g_c}
    a, b, c = rep.form.coefficients()
    assert a.is_zero() and c.is_zero()
    assert b.coeffs == {(2,): k_c}


def test_symbols_and_singularities_per_case():
    expected = [
        ("[1(11)(11)]", ["A1", "A1", "A1", "A1"]),
        ("[12(11)]", ["A1", "A1", "A1"]),
        ("[122]", ["A1", "A1"]),
        ("[(11)3]", ["A1", "A1", "A2"]),
        ("[23]", ["A1", "A2"]),
        ("[(11)(12)]", ["A1", "A1", "A3"]),
        ("[(12)2]", ["A1", "A3"]),
    ]
    for case, (symbol, sing) in zip(appendix_cases(), expected):
        surf = case.surface()
        assert surf.pencil.segre_symbol() == SegreSymbol.parse(symbol)
        assert surf.singularity_multiset() == sing


def test_A2_case_closed_forms():
    # [3(11)] at (a, b) = (1, 2), delta = a - b: along the line,
    #   F = -y^3 / (x (y + delta)),   G = delta y^2 / (y + delta),
    # and the Hessian form reduces to
    #   Hess(F) lam^2 - 4 delta^3 y^3 / (x^3 (y + delta)^4) lam mu
    # with Hess(G) = 0 and y^4 | Hess(F).
    from segrecusp.fields import RationalFunctions
    from segrecusp.jets import Jet

    case = appendix_cases()[3]
    surf = case.surface()
    rep = _line_report_at_order(case.line(), case.chart(surf), 8)
    Kx = RationalFunctions("x")
    x = Kx.gen
    order = rep.F.order
    y = Jet.variable(Kx, ("y",), order, "y")
    delta = Kx.coerce(1 - 2)
    unit = (y + delta).inverse()
    f_exp = -(y ** 3) * unit / x
    g_exp = (y ** 2) * unit * delta
    assert rep.F.coeffs == f_exp.truncate(rep.F.order).coeffs
    assert rep.G.coeffs == g_exp.truncate(rep.G.order).coeffs
    a_j, b_j, c_j = rep.form.coefficients()
    k_exp = -4 * delta ** 3 * (y ** 3) * (unit ** 4) / (x ** 3)
    cutoff = min(b_j.order, k_exp.order)
    assert b_j.truncate(cutoff).coeffs == k_exp.truncate(cutoff).coeffs
    assert c_j.is_zero()
    from segrecusp.jets import y_order, InfiniteOrder
    oa = y_order(a_j, "y")
    assert isinstance(oa, InfiniteOrder) or oa >= 4


def test_coefficient_order_bounds_per_case():
    from segrecusp.jets import InfiniteOrder

    # (min order of Hess F, exact order of K, min order of Hess G)
    bounds = [(2, 2, 2), (3, 2, 2), (3, 2, 3), (4, 3, None),
              (4, 3, 3), (6, 4, 4), (6, 4, 4)]

    def at_least(order, k):
        return isinstance(order, InfiniteOrder) or order >= k

    for case, (amin, bexact, cmin) in zip(appendix_cases(), bounds):
        surf = case.surface()
        rep = _line_report_at_order(case.line(), case.chart(surf), 8)
        oa, ob, oc = rep.coefficient_orders
        assert at_least(oa, amin), (case.name, oa)
        assert ob == bexact, (case.name, ob)
        if cmin is None:
            assert isinstance(oc, InfiniteOrder), (case.name, oc)
        else:
            assert at_least(oc, cmin), (case.name, oc)


def test_two_singularities_lie_on_the_line():
    from segrecusp.lines import _exact_incidences
    for case in appendix_cases():
        surf = case.surface()
        inc = _exact_incidences(surf.pencil, case.line(),
                                surf.singular_points())
        assert len(inc) == 2

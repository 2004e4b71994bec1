"""Hessian forms, section germs, the trichotomy, line reports, branch data."""

import gc
import random
from collections import Counter
from fractions import Fraction as F

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from segrecusp import cusplocus, fields
from segrecusp.appendix import appendix_cases
from segrecusp.cusplocus import (SectionGermClass, _hessian_form,
                                 _linear_form, _on_any_line, HessianAtPoint,
                                 branch_scan,
                                 classify_plane_germ, classify_section_germ,
                                 cusp_locus_summary, hessian_form_at,
                                 line_chart, line_report,
                                 numeric_line_branch_evidence, point_case,
                                 sample_point_cases, section_line_multiple,
                                 tacnodal_conic, tacnodal_hyperplane_on_line)
from segrecusp.errors import (NoDoubleRoot, NonGenericPoint, NotOnSurface,
                              RootFieldUnsupported, SegreCuspError)
from segrecusp.fields import QQ, proj_normalize, quadratic_roots
from segrecusp.instances import sampling_instance, table1_instance
from segrecusp.jets import jet_from_poly
from segrecusp.linalg import gram_matrix, mat_rank, mat_vec
from segrecusp.lines import (LineOnSurface, coordinate_lines, enumerate_lines,
                             lines_through_singular_point)
from segrecusp.pencil import (TABLE1_SYMBOLS, QuadricPencil,
                              default_instance, normal_form)
from segrecusp.surface import (AdaptedChart, ProjectivePoint, SurfaceInstance,
                               adapted_chart, double_conic_hyperplane,
                               sample_charts, sample_rational_points)


def first_case():
    return appendix_cases()[0]


def test_hessian_form_in_worked_chart():
    """In the standard chart of the double-A1-pair surface, the form at the
    point with chart coordinates (1, 1) is (0, -8, 0) with roots the two
    coordinate directions."""
    case = first_case()
    surf = case.surface()
    # chart columns centered at the point (x, y, z, w) = (1, 1, F, G)
    x0, y0 = F(1), F(1)
    F0, G0 = F(-2), F(1)   # closed forms at (1, 1)
    cols = [list(c) for c in case.chart_columns]
    c0 = [cols[0][k] + x0 * cols[1][k] + y0 * cols[2][k]
          + F0 * cols[3][k] + G0 * cols[4][k] for k in range(5)]
    p = ProjectivePoint.make(QQ, c0)
    assert surf.on_surface(p) and surf.is_smooth_at(p)
    chart = AdaptedChart(surface=surf, field=QQ,
                         columns=[c0] + cols[1:], base_point=p)
    hess = hessian_form_at(surf, p, chart=chart)
    a, b, c = hess.form.coefficients()
    assert (a, b, c) == (0, -8, 0)
    roots = {tuple(r) for _, r, _ in hess.roots}
    assert roots == {(1, 0), (0, 1)}


def test_hessian_swap_symmetry():
    case = first_case()
    surf = case.surface()
    pts = sample_rational_points(surf, 1, rng=random.Random(12))
    chart = adapted_chart(surf, pts[0])
    swapped = AdaptedChart(surface=surf, field=QQ,
                           columns=[chart.columns[0], chart.columns[1],
                                    chart.columns[2], chart.columns[4],
                                    chart.columns[3]],
                           base_point=pts[0])
    h1 = hessian_form_at(surf, pts[0], chart=chart)
    h2 = hessian_form_at(surf, pts[0], chart=swapped)
    a1, b1, c1 = h1.form.coefficients()
    a2, b2, c2 = h2.form.coefficients()
    assert (a2, b2, c2) == (c1, b1, a1)
    r1 = {r for _, r, _ in h1.roots}
    r2 = {(mu, lam) for _, (lam, mu), _ in h2.roots}
    # roots swap up to normalization
    from segrecusp.pencil import proj_normalize
    assert {proj_normalize(r) for r in r1} == {proj_normalize(r) for r in r2}


def test_hessian_roots_satisfy_form_exactly(smooth_model):
    pts = sample_rational_points(smooth_model, 2, rng=random.Random(17),
                                 avoid=lambda p: _on_line(smooth_model, p))
    for p in pts:
        hess = hessian_form_at(smooth_model, p)
        a, b, c = hess.form.coefficients()
        for rfield, (lam, mu), _ in hess.roots:
            av, bv, cv = (rfield.coerce(v) for v in (a, b, c))
            assert av * lam * lam + bv * lam * mu + cv * mu * mu == rfield.zero


def test_hessian_two_distinct_roots_off_lines(smooth_model):
    pts = sample_rational_points(smooth_model, 5, rng=random.Random(5),
                                 avoid=lambda p: _on_line(smooth_model, p))
    for p in pts:
        hess = hessian_form_at(smooth_model, p)
        assert hess.has_two_distinct_roots


def _on_line(surface, p):
    from segrecusp.cusplocus import _on_any_line
    return _on_any_line(surface, p)


def test_classify_plane_germ_basics():
    node = jet_from_poly(QQ, ("x", "y"), 8, {(2, 0): 1, (0, 2): -1})
    assert classify_plane_germ(node).kind == "A1_node"
    cusp = jet_from_poly(QQ, ("x", "y"), 8, {(0, 2): 1, (3, 0): -1})
    assert classify_plane_germ(cusp).kind == "A2_cusp"
    tac = jet_from_poly(QQ, ("x", "y"), 8, {(0, 2): 1, (4, 0): -1})
    assert classify_plane_germ(tac).kind == "A3_tacnode"
    # a jet never names a square: only the exact doubled-conic test does
    f = jet_from_poly(QQ, ("x", "y"), 8, {(0, 1): 1, (2, 0): 1})
    for order in (3, 5, 8):
        square = classify_plane_germ((f * f).truncate(order))
        assert square.kind == "Other"
        assert square.detail == f"residual vanishes to order {order}"


def test_section_line_multiple_over_qx():
    """Exact over Q(x): the appendix's special hyperplanes contain their
    lines 3, 3, 4 and 4 times; the coordinate hyperplane of the chart's y
    column contains the line but not the tangent plane along it, so once."""
    special, transverse = [], []
    for case in appendix_cases():
        if case.special_hyperplane is None:
            continue
        surf = case.surface()
        chart = case.chart(surf)
        rep = line_report(surf, case.line(), chart=chart)
        special.append(section_line_multiple(rep, case.special_hyperplane))
        y_plane, x_plane = ([int(bool(c)) for c in chart.columns[i]]
                            for i in (2, 1))
        transverse.append(section_line_multiple(rep, y_plane))
        with pytest.raises(SegreCuspError):   # misses the line
            section_line_multiple(rep, x_plane)
    assert special == [3, 3, 4, 4]
    assert transverse == [1, 1, 1, 1]


def test_cusp_germ_resultant_oracle(smooth_model):
    """Independent multiplicity check of a Hessian-root section germ:
    ord Res_y(h, h_y) = 3 for an ordinary cusp."""
    pts = sample_rational_points(smooth_model, 1, rng=random.Random(31),
                                 avoid=lambda p: _on_line(smooth_model, p))
    pc = point_case(smooth_model, pts[0])
    assert pc.case == "CaseIII"
    hess = pc.hessian
    rfield, (lam, mu), _ = hess.roots[0]
    chart = hess.chart
    Fj, Gj = chart.solve_graph(8)
    if rfield != QQ:
        Fj = Fj.map_coefficients(rfield, rfield.coerce)
        Gj = Gj.map_coefficients(rfield, rfield.coerce)
    h = Fj * lam + Gj * mu
    xs, ys = sympy.symbols("x y")

    def to_sympy(cval):
        if rfield == QQ:
            return sympy.Rational(cval.numerator, cval.denominator)
        return (sympy.Rational(cval.a.numerator, cval.a.denominator)
                + sympy.Rational(cval.b.numerator, cval.b.denominator)
                * sympy.sqrt(rfield.d))

    expr = sympy.Integer(0)
    for e, cval in h.truncate(5).coeffs.items():
        expr += to_sympy(cval) * xs ** e[0] * ys ** e[1]
    kwargs = {} if rfield == QQ else {"extension": sympy.sqrt(rfield.d)}
    p1 = sympy.Poly(expr, ys, xs, **kwargs)
    p2 = sympy.Poly(sympy.diff(expr, ys), ys, xs, **kwargs)
    res = p1.resultant(p2)
    xi = res.gens.index(xs)
    orders = [m[xi] for m, c in zip(res.monoms(), res.coeffs()) if c != 0]
    assert min(orders) == 3


def test_generic_section_is_nodal(smooth_model):
    pts = sample_rational_points(smooth_model, 1, rng=random.Random(8),
                                 avoid=lambda p: _on_line(smooth_model, p))
    p = pts[0]
    chart = adapted_chart(smooth_model, p)
    # a hyperplane through T_pS that is not a Hessian root
    hess = hessian_form_at(smooth_model, p, chart=chart)
    for lam in (F(1), F(2), F(3), F(5)):
        if all(not (r[0] == 1 and r[1] == lam) for _, r, _ in hess.roots):
            H = chart.hyperplane_from_dual(1, lam)
            assert classify_section_germ(smooth_model, p, H).kind == "A1_node"
            break
    # and one through p but not through T_pS cuts a smooth germ
    from segrecusp.linalg import nullspace
    rows = [list(p.coords)]
    covector = nullspace(QQ, rows)[0]
    duals = chart.dual_coords(covector)
    if duals is None:
        assert classify_section_germ(smooth_model, p, covector).kind == "Smooth"


@pytest.mark.parametrize("symbol,expected", [
    ("[1(11)(11)]", "CaseI"), ("[111(11)]", "CaseII"), ("[23]", "CaseIII"),
])
def test_point_case_examples(symbol, expected):
    inst = sampling_instance(symbol, seed=5)
    if inst.lines is None:
        enumerate_lines(inst)
    for p, pc in sample_point_cases(inst, 3, rng=random.Random(7)):
        assert pc.case == expected


CASE_OF_KINDS = {("PerfectSquare", "PerfectSquare"): "CaseI",
                 ("A2_cusp", "PerfectSquare"): "CaseII",
                 ("A2_cusp", "A2_cusp"): "CaseIII"}


@pytest.fixture(scope="module")
def trichotomy_points():
    """Two generic points on the sampling instance of each of the 16
    symbols."""
    out = []
    for symbol in TABLE1_SYMBOLS:
        inst = sampling_instance(symbol, seed=5)
        if inst.lines is None:
            enumerate_lines(inst)
        out += [(inst, p) for p, _ in
                sample_point_cases(inst, 2, rng=random.Random(7))]
    return out


def _root_germ(F_, G_, lam, mu, field):
    """lam F + mu G, with F, G, lam and mu coerced into ``field``."""
    if field != F_.field:
        F_ = F_.map_coefficients(field, field.coerce)
        G_ = G_.map_coefficients(field, field.coerce)
        lam, mu = field.coerce(lam), field.coerce(mu)
    return F_ * lam + G_ * mu


def _jet_form(F_, G_):
    """The Hessian form of the graph jets' second derivatives."""
    def second(J):
        return (2 * J.coefficient((2, 0)), J.coefficient((1, 1)),
                2 * J.coefficient((0, 2)))
    return _hessian_form(*second(F_), *second(G_))


def _unsettled(cls):
    """Whether a jet reading is one that a higher order may change."""
    return (cls.detail == "zero to truncation order"
            or cls.detail.startswith("residual vanishes to order"))


def _rank_square(chart, field, lam, mu):
    """The doubled-conic test on the hyperplane of (lam : mu), spanned by
    c0, c1, c2 and mu c3 - lam c4: some rank-3 member of the pencil
    restricts to it with rank at most 1."""
    c = chart.columns
    basis = c[:3] + [[mu * u - lam * v for u, v in zip(c[3], c[4])]]
    pencil = chart.surface.pencil
    return any(mat_rank(field, gram_matrix(field, pencil.member(*m.root),
                                           basis)) <= 1
               for m in pencil.rank_drop_members() if m.is_rank3)


def _jet_kinds(chart, order):
    """The kinds of both Hessian-root sections at the chart's base point,
    read off the graph jets to ``order``: an ``Other`` germ is a
    PerfectSquare where the rank test confirms it, a germ the order does
    not settle reads "unsettled", and a degenerate form gives None."""
    F_, G_ = chart.solve_graph(order)
    a, b, c = _jet_form(F_, G_)
    if not b * b - 4 * a * c:
        return None
    kinds = []
    for rfield, (lam, mu), _ in quadratic_roots(a, b, c, chart.field):
        cls = classify_plane_germ(_root_germ(F_, G_, lam, mu, rfield))
        if cls.kind == "Other" and _rank_square(chart, rfield, lam, mu):
            kinds.append("PerfectSquare")
        else:
            kinds.append("unsettled" if _unsettled(cls) else cls.kind)
    return kinds


@pytest.mark.parametrize("order", [8, 12])
def test_point_case_matches_full_order_classification(trichotomy_points,
                                                      order):
    """point_case reads the form and the root classes off Gram entries and
    classifies one root of a conjugate pair; the reference takes the form
    from the graph jets to the full order and classifies both root germs
    there, where a square reads as an unsettled germ (the reference's
    reading of a doubled conic)."""
    conjugate_pairs = 0
    for inst, p in trichotomy_points:
        pc = point_case(inst, p)
        hess = hessian_form_at(inst, p)
        F_, G_ = hess.chart.solve_graph(order)
        assert hess.form.coefficients() == _jet_form(F_, G_), (inst.pencil, p)
        want = ["PerfectSquare" if _unsettled(c) else c.kind
                for c in (classify_plane_germ(_root_germ(F_, G_, lam, mu,
                                                         rfield))
                          for rfield, (lam, mu), _ in hess.roots)]
        assert [c.kind for c in pc.root_classes] == want, (inst.pencil, p)
        assert all(c.detail == "double conic" for c in pc.root_classes
                   if c.kind == "PerfectSquare")
        assert pc.case == CASE_OF_KINDS[tuple(sorted(want))]
        conjugate_pairs += hess.roots[0][0] != QQ
    assert conjugate_pairs > 0


def test_point_case_rejects_where_the_jet_reference_does():
    """Ten points per symbol off the lines, some of them on special curves:
    every root class point_case's Gram reading gives is the order-8 jet
    reading's, and point_case raises NonGenericPoint exactly where that
    reading has a degenerate form, an unsettled germ or kinds of no case."""
    rejected = 0
    for j, symbol in enumerate(TABLE1_SYMBOLS):
        inst = sampling_instance(symbol, seed=5)
        if inst.lines is None:
            enumerate_lines(inst)
        for p in sample_rational_points(inst, 10, rng=random.Random(100 + j),
                                        avoid=lambda q: _on_any_line(inst, q)):
            hess = hessian_form_at(inst, p)
            want = _jet_kinds(hess.chart, 8)
            got = None if not hess.has_two_distinct_roots else [
                c.kind for c in _orbit_classes(hess)]
            assert got == want, (symbol, p)
            generic = want is not None and tuple(sorted(want)) in CASE_OF_KINDS
            try:
                pc = point_case(inst, p)
            except NonGenericPoint:
                rejected += 1
                assert not generic, (symbol, p)
            else:
                assert generic and pc.case == CASE_OF_KINDS[
                    tuple(sorted(want))], (symbol, p)
    assert rejected


def _orbit_classes(hess):
    """The class of each Hessian root, read once per Galois orbit, in the
    order of ``hess.roots``."""
    return [cls for f, n in hess.root_orbits()
            for cls in [hess.section_class(f)] * n]


def _to_sympy(v):
    if isinstance(v, F):
        return sympy.Rational(v.numerator, v.denominator)
    return (sympy.Rational(v.a.numerator, v.a.denominator)
            + sympy.Rational(v.b.numerator, v.b.denominator)
            * sympy.sqrt(v.d))


def test_gram_reading_matches_phi_h(trichotomy_points):
    """At every Hessian root (lam : mu) of the fixture points, sympy's
    Phi_H(l, m) = det(l B^T P B + m B^T Q B), B = (c0, c1, c2, u) a basis
    of the root's hyperplane H, u = mu c3 - lam c4, has the member
    (alpha : beta) with alpha c0^T P u + beta c0^T Q u = 0 as a root of
    multiplicity exactly 3, and that member's corank on H is the c of the
    Gram reading of the root's Galois orbit."""
    t = sympy.Symbol("t")
    for inst, p in trichotomy_points:
        hess = hessian_form_at(inst, p)
        c = hess.chart.columns
        orbits = [f for f, n in hess.root_orbits() for _ in range(n)]
        assert len(orbits) == len(hess.roots)
        for (rfield, (lam, mu), _), f in zip(hess.roots, orbits):
            K = (sympy.QQ if rfield == QQ
                 else sympy.QQ.algebraic_field(sympy.sqrt(rfield.d)))

            def matrix(rows):
                return DomainMatrix([[K.from_sympy(_to_sympy(x)) for x in row]
                                     for row in rows],
                                    (len(rows), len(rows[0])), K)

            u = [mu * a - lam * b for a, b in zip(c[3], c[4])]
            B = matrix([[v[i] for v in (c[0], c[1], c[2], u)]
                        for i in range(5)])
            X, Y = (B.transpose() * matrix(M) * B
                    for M in (inst.pencil.P, inst.pencil.Q))
            alpha, beta = Y[0, 3].element, -X[0, 3].element
            A_H = X * alpha + Y * beta
            # Phi_H along the line (alpha + t, beta), or (alpha, beta + t)
            R = K[t]
            phi = (A_H.convert_to(R)
                   + (X if beta else Y).convert_to(R) * R.gens[0]).det()
            coeffs = R.to_sympy(phi).as_poly(t).all_coeffs()[::-1]
            assert [bool(x) for x in coeffs[:4]] == [False] * 3 + [True]
            k, corank = hess.section_invariants(f)
            assert (k, corank) == (3, 4 - A_H.rank()), (inst.pencil, p)


def test_point_case_never_solves_the_graph(trichotomy_points, monkeypatch):
    calls = []
    solve = AdaptedChart.solve_graph

    def counted(chart, order):
        calls.append(order)
        return solve(chart, order)

    monkeypatch.setattr(AdaptedChart, "solve_graph", counted)
    for inst, p in trichotomy_points:
        point_case(inst, p)
    assert calls == []


def test_point_case_builds_no_quadratic_field(trichotomy_points,
                                             monkeypatch):
    """point_case reads each Galois orbit of Hessian roots over Z: with
    quadratic_roots and squarefree_split refused, the fixture points give
    the classes of the order-8 jet reading, which takes every root in its
    own field, in the order of its roots, and their cases."""
    want = [_jet_kinds(adapted_chart(inst, p), 8)
            for inst, p in trichotomy_points]

    def refuse(*args):
        raise AssertionError(f"a quadratic field was built for {args}")

    monkeypatch.setattr(cusplocus, "quadratic_roots", refuse)
    monkeypatch.setattr(fields, "squarefree_split", refuse)
    for (inst, p), kinds in zip(trichotomy_points, want):
        pc = point_case(inst, p)
        assert [c.kind for c in pc.root_classes] == kinds, (inst.pencil, p)
        assert pc.case == CASE_OF_KINDS[tuple(sorted(kinds))]


def test_sampled_points_are_row_reduced_once(trichotomy_points, monkeypatch):
    """sample_point_cases hands each point's sampling chart to point_case:
    the gradient rows of an accepted point are formed once."""
    calls = Counter()
    gradient_rows = SurfaceInstance.gradient_rows

    def counted(surface, point):
        calls[surface, point] += 1
        return gradient_rows(surface, point)

    monkeypatch.setattr(SurfaceInstance, "gradient_rows", counted)
    accepted = 0
    for inst in dict.fromkeys(inst for inst, _ in trichotomy_points):
        for p, _ in sample_point_cases(inst, 2, rng=random.Random(3)):
            assert calls[inst, p] == 1, (inst.pencil, p)
            accepted += 1
    assert accepted == 32


def test_orbit_reading_matches_jet_reading():
    """On 432 points (nine from each of three draws on the sampling
    instance of every symbol), the Gram reading of each Galois orbit of
    Hessian roots gives the order-8 jet reading of every root: at conjugate
    pairs, at rational roots and at the root (1 : 0) of a form with no
    lam^2 term."""
    seen = Counter()
    for j, symbol in enumerate(TABLE1_SYMBOLS):
        inst = sampling_instance(symbol, seed=5)
        if inst.lines is None:
            enumerate_lines(inst)
        for k in range(3):
            for chart in sample_charts(inst, 9,
                                       rng=random.Random(1000 * k + j),
                                       avoid=lambda q: _on_any_line(inst, q)):
                hess = hessian_form_at(inst, chart.base_point, chart)
                got = None if not hess.has_two_distinct_roots else [
                    c.kind for c in _orbit_classes(hess)]
                assert got == _jet_kinds(chart, 8), (symbol, chart.base_point)
                a = hess.form.coefficients()[0]
                seen["points"] += 1
                seen["a = 0"] += not a
                seen["rational, a != 0"] += bool(a) and len(
                    hess.root_orbits()) == 2
                seen["conjugate"] += len(hess.root_orbits()) == 1
    assert seen["points"] == 432
    assert min(seen.values()) >= 40, seen


def test_section_reading_needs_a_chart_over_q(census_cache):
    """A chart at a point over Q(sqrt -1), on a line of the default [1(13)],
    gives a typed error, not a crash."""
    inst, census = census_cache("[1(13)]")
    line = next(line for line in census.lines
                if line.exactness == "exact" and line.field() != QQ)
    a, b = line.span_over(line.field())
    p = ProjectivePoint.make(line.field(), [x + 2 * y for x, y in zip(a, b)])
    chart = adapted_chart(inst, p)
    assert chart.field == line.field()
    with pytest.raises(RootFieldUnsupported):
        HessianAtPoint(p, chart)
    with pytest.raises(RootFieldUnsupported):
        hessian_form_at(inst, p)
    with pytest.raises(RootFieldUnsupported):
        classify_section_germ(inst, p, chart.hyperplane_from_dual(1, 2))


@pytest.mark.parametrize("symbol", [str(s) for s in TABLE1_SYMBOLS])
def test_double_conic_test_on_double_conic_hyperplanes(symbol):
    """The hyperplane N p of a rank-3 member N, tangent to N's cone along a
    plane through p, restricts the member singular at p to rank 1 (c = 3),
    a PerfectSquare; another hyperplane through the same tangent plane
    does not.  N p of a rank-4 member cuts a node at p.  At four points of
    each of the 16 sampling instances that is 44 PerfectSquare readings on
    the 9 instances with a rank-3 member and 124 A1_node readings."""
    inst = sampling_instance(symbol, seed=5)
    pts = sample_rational_points(inst, 4, rng=random.Random(7))
    assert len(pts) == 4
    members = inst.pencil.rank_drop_members()
    kinds = Counter()
    for p in pts:
        chart = adapted_chart(inst, p)
        hess = hessian_form_at(inst, p, chart)
        for member in members:
            if member.is_rank3:
                H = double_conic_hyperplane(inst, member, p)
            else:
                H = proj_normalize(mat_vec(QQ, inst.pencil.member(
                    *member.root), list(p.coords)))
            lam, mu = chart.dual_coords(H)
            f = _linear_form(lam, mu)
            kinds[hess.section_class(f).kind] += 1
            if not member.is_rank3:
                continue
            assert hess.section_invariants(f)[1] == 3
            assert hess.section_class(f) == \
                SectionGermClass("PerfectSquare", "double conic")
            assert hess.section_invariants(
                _linear_form(lam + 1, mu + 3))[1] < 3
    n3 = sum(m.is_rank3 for m in members)
    assert kinds == Counter({"PerfectSquare": 4 * n3,
                             "A1_node": 4 * (len(members) - n3)})


def _unconfirm_rank(monkeypatch):
    """Make the exact rank reading never confirm rank at most 1."""
    rank_at = HessianAtPoint.rank_at
    monkeypatch.setattr(HessianAtPoint, "rank_at",
                        lambda hess, f: max(2, rank_at(hess, f)))


def test_unconfirmed_square_is_not_generic(trichotomy_points, monkeypatch):
    inst, p = next((inst, p) for inst, p in trichotomy_points
                   if point_case(inst, p).case == "CaseI")
    _unconfirm_rank(monkeypatch)
    with pytest.raises(NonGenericPoint):
        point_case(inst, p)


def test_unconfirmed_square_section_is_not_a_square(monkeypatch):
    """Only the exact rank reading makes a PerfectSquare: where it does not
    confirm rank at most 1, a doubled-conic section reads as another class.
    Either way no graph is solved, so nothing escalates."""
    inst = table1_instance("[1(11)(11)]")
    member = [m for m in inst.pencil.rank_drop_members() if m.is_rank3][0]
    pts = sample_rational_points(inst, 3, rng=random.Random(7))
    assert len(pts) == 3
    hyps = [double_conic_hyperplane(inst, member, p) for p in pts]
    orders = []
    solve = AdaptedChart.solve_graph

    def counted(chart, order):
        orders.append(order)
        return solve(chart, order)

    monkeypatch.setattr(AdaptedChart, "solve_graph", counted)
    for p, H in zip(pts, hyps):
        assert classify_section_germ(inst, p, H).kind == "PerfectSquare"
    _unconfirm_rank(monkeypatch)
    for p, H in zip(pts, hyps):
        assert classify_section_germ(inst, p, H).kind != "PerfectSquare"
    assert orders == []


def test_line_chart_leaves_no_reference_cycles():
    """line_chart keeps only the message of a failed base point, so the
    line charts of the exact rational lines of the 16 default forms (some
    with a singular first base point) leave nothing for the cyclic
    collector."""
    cases = []
    for symbol in TABLE1_SYMBOLS:
        surf = SurfaceInstance(default_instance(symbol))
        pairs = list(coordinate_lines(surf.pencil))
        for s in surf.singular_points():
            pairs += lines_through_singular_point(surf.pencil, s)[0]
        cases += [(surf, line) for line in
                  (LineOnSurface(a, b, "exact") for a, b in pairs)
                  if line.field() == QQ]
    gc.collect()
    gc.disable()
    try:
        for surf, line in cases:
            line_chart(surf, line)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_point_case_constant_over_five_points():
    inst = sampling_instance("[(11)3]", seed=5)
    enumerate_lines(inst)
    cases = {pc.case for _, pc in sample_point_cases(inst, 5,
                                                     rng=random.Random(2))}
    assert cases == {"CaseII"}


def test_cusp_locus_summary_cross_check():
    inst = sampling_instance("[1(13)]", seed=5)
    enumerate_lines(inst)
    pts = [p for p, _ in sample_point_cases(inst, 3, rng=random.Random(7))]
    summ = cusp_locus_summary(inst, sample_points=pts)
    assert summ.classification == "BirationalToS" and summ.cross_checked


def test_line_report_appendix_values():
    for case in appendix_cases():
        surf = case.surface()
        rep = line_report(surf, case.line(), chart=case.chart(surf))
        assert (rep.m, rep.branch_mult) == (case.expected_m, 0)
        assert rep.disc_order == 2 * rep.m


def test_line_multiplicity_waits_for_unsettled_coefficients():
    # Hess F vanishes to order 6, K and Hess G are zero only through order 4:
    # their true orders may be 5, so m = 6 is not yet established
    from segrecusp.cusplocus import _line_multiplicity
    from segrecusp.errors import TruncationInsufficient
    from segrecusp.jets import InfiniteOrder
    with pytest.raises(TruncationInsufficient):
        _line_multiplicity((6, InfiniteOrder(4), InfiniteOrder(4)))
    assert _line_multiplicity((4, InfiniteOrder(4), InfiniteOrder(4))) == 4
    assert _line_multiplicity((6, 3, InfiniteOrder(4))) == 3


@pytest.mark.parametrize("symbol, span, expected", [
    ("[(14)]", (1, 2), (6, 16, 4)),   # through the D5 point
    ("[5]", (0, 1), (4, 10, 2)),      # two lines through the A4 point
    ("[5]", (0, 3), (0, 5, 5)),
])
def test_line_report_escalates_from_start_order(symbol, span, expected):
    from segrecusp.jets import START_ORDER
    from segrecusp.lines import LineOnSurface
    inst = table1_instance(symbol)
    ends = [ProjectivePoint.make(QQ, [F(int(k == i)) for k in range(5)])
            for i in span]
    rep = line_report(inst, LineOnSurface(*ends, "exact"))
    assert (rep.m, rep.disc_order, rep.branch_mult) == expected
    assert rep.F.order > START_ORDER


def test_line_report_base_point_independent(line_fixture):
    line = line_fixture.distinguished_line
    a, b = line.span_over(QQ)
    reports = []
    for t in (1, 3):
        base = ProjectivePoint.make(QQ, [ai + t * bi for ai, bi in zip(a, b)])
        reports.append(line_report(
            line_fixture, line, chart=adapted_chart(line_fixture, base, line)))
    r1, r2 = reports
    assert (r1.m, r1.branch_mult) == (r2.m, r2.branch_mult) == (0, 1)


def test_line_report_one_singularity_branch_at_least_two():
    # eigenvalues chosen so the lines through one A1 point are rational
    pen = normal_form("[12(11)]", [1, 5, 2])
    inst = SurfaceInstance(pen, seed=3)
    census = enumerate_lines(inst)
    checked = 0
    for line in census.lines:
        if line.n_incident == 1 and line.exactness == "exact" \
                and line.field() == QQ:
            rep = line_report(inst, line)
            assert rep.m == 0 and rep.branch_mult >= 2
            checked += 1
    assert checked >= 2


def test_branch_scan_221_two_sing_line_not_branch():
    inst = table1_instance("[122]", seed=11)
    enumerate_lines(inst)
    scan = branch_scan(inst, offline_points=5)
    two_sing = [r for r in scan.records if r.line.n_incident == 2]
    assert two_sing and all(r.branch_mult == 0 and r.m == 2 for r in two_sing)
    assert scan.offline_all_two_roots


def test_branch_scan_smooth_fixture_all_simple(line_fixture):
    scan = branch_scan(line_fixture, offline_points=5)
    assert len(scan.records) == 16
    assert all(r.exact and r.m == 0 and r.branch_mult == 1
               for r in scan.records)
    assert not scan.anomalies


def test_on_any_line_is_exact_for_exact_lines(census_cache):
    surf = table1_instance("[1(11)(11)]")
    a, b = coordinate_lines(surf.pencil)[0]
    line = LineOnSurface(a, b, "exact")
    surf.lines = [line]
    on = [x + 3 * y for x, y in zip(a.coords, b.coords)]
    off = list(on)
    k = next(k for k in range(5) if not a.coords[k] and not b.coords[k])
    off[k] = F(1, 10 ** 9)
    on, off = ProjectivePoint.make(QQ, on), ProjectivePoint.make(QQ, off)
    assert _on_any_line(surf, on)
    assert not _on_any_line(surf, off)
    # the 1e-7 float test says "on" for both
    assert line.contains_point_float(off.as_float(), tol=1e-7)
    # every exact census line of three default forms: a point of it is on a
    # line; moved 1e-9 along a unit vector outside the line's span, on none
    for symbol in ("[1(11)(11)]", "[12(11)]", "[1112]"):
        inst, census = census_cache(symbol)
        for line in census.lines:
            if line.exactness != "exact":
                continue
            field = line.field()
            a, b = line.span_over(field)
            on = [x + 3 * y for x, y in zip(a, b)]
            units = [[field.coerce(int(i == k)) for i in range(5)]
                     for k in range(5)]
            k = next(k for k in range(5)
                     if mat_rank(field, [a, b, units[k]]) == 3)
            off = list(on)
            off[k] += F(1, 10 ** 9)
            on, off = (ProjectivePoint.make(field, c) for c in (on, off))
            assert _on_any_line(inst, on) and not _on_any_line(inst, off), line


def test_numeric_branch_evidence_diag(census_cache):
    inst, census = census_cache("[11111]")
    ev = numeric_line_branch_evidence(inst, census.lines[0])
    assert ev["status"] == "ok"
    assert ev["m_estimate"] == 0 and ev["branch_estimate"] == 1


def test_numeric_branch_evidence_flags_disagreeing_slopes(census_cache):
    # the two lines of the default [1(13)] are exact over Q(sqrt(-1)); their
    # samples give disc slopes near 2.35 and -0.84 and d = 1 < 2m = 4, where
    # the rational twist's exact reports give (m, d) = (2, 8)
    inst, census = census_cache("[1(13)]")
    assert len(census.lines) == 2
    for line in census.lines:
        ev = numeric_line_branch_evidence(inst, line)
        assert ev["status"] == "inconsistent", line
        assert (ev["m_estimate"], ev["disc_order_estimate"]) == (2, 1), line


def test_tacnodal_family_and_conic(line_fixture):
    line = line_fixture.distinguished_line
    a, b = line.span_over(QQ)
    hyps = []
    for t in (F(1), F(2), F(3), F(5), F(7), F(11)):
        p = ProjectivePoint.make(QQ, [ai + t * bi for ai, bi in zip(a, b)])
        H, cls, (lam, mu), chart = tacnodal_hyperplane_on_line(
            line_fixture, line, p)
        assert cls.kind == "A3_tacnode"
        hess = hessian_form_at(line_fixture, p, chart=chart)
        # on a simple-branch line the discriminant vanishes along the line,
        # so the Hessian form at p has a double root, and that root is the
        # tacnodal direction itself
        assert not hess.discriminant
        assert len(hess.roots) == 1 and hess.roots[0][2] == 2
        _, root, _ = hess.roots[0]
        assert lam * root[1] == mu * root[0]
        hyps.append(H)
    conic = tacnodal_conic(line_fixture, line)
    assert mat_rank(QQ, conic) == 3
    assert all(_on_conic(conic, H) for H in hyps)


def _on_conic(conic, h):
    """Whether q(h) = h^T M h vanishes, M the matrix of the conic."""
    return not sum(F(h[i]) * conic[i][k] * F(h[k])
                   for i in range(5) for k in range(5))


def test_tacnodal_conic_holds_every_reading(census_cache):
    """Every tacnodal hyperplane read at a point of a line off Sing(S) lies
    on the line's closed-form conic, of rank 3: 448 readings, at x = a + t
    b for t = -3..3 on each of the 64 lines of surface_through_line(0..3),
    and 42, at t = 1, 2, 3, 5, 7, 11 on the 7 exact rational lines of the
    16 default forms that miss Sing(S).  The 32 such lines through Sing(S)
    raise a typed error."""
    from segrecusp.blowup import surface_through_line

    lines = [(fix, line, range(-3, 4)) for fix in map(surface_through_line,
                                                       range(4))
             for line in fix.lines]
    through = 0
    for symbol in TABLE1_SYMBOLS:
        inst, census = census_cache(str(symbol))
        for line in census.lines:
            if line.exactness != "exact" or line.field() != QQ:
                continue
            if any(line.contains(s) for s in inst.singular_points()):
                through += 1
                with pytest.raises(SegreCuspError, match="singular locus"):
                    tacnodal_conic(inst, line)
            else:
                lines.append((inst, line, (1, 2, 3, 5, 7, 11)))
    assert (len(lines), through) == (64 + 7, 32)
    readings = Counter()
    for surface, line, params in lines:
        conic = tacnodal_conic(surface, line)
        assert mat_rank(QQ, conic) == 3
        for p in _points_on(line, params):
            H = tacnodal_hyperplane_on_line(surface, line, p)[0]
            assert _on_conic(conic, H), (line, p)
            readings[len(params)] += 1
    assert readings == {7: 448, 6: 42}


def test_tacnodal_conic_needs_an_exact_rational_line_on_the_surface(
        census_cache):
    inst, census = census_cache("[1(13)]")
    line = next(line for line in census.lines
                if line.exactness == "exact" and line.field() != QQ)
    with pytest.raises(SegreCuspError, match="exact line over Q"):
        tacnodal_conic(inst, line)
    off = LineOnSurface(ProjectivePoint.make(QQ, [1, 0, 0, 0, 0]),
                        ProjectivePoint.make(QQ, [0, 1, 0, 0, 0]), "exact")
    with pytest.raises(NotOnSurface):
        tacnodal_conic(inst, off)


def _graph_tacnodal(surface, line, point):
    """The tacnodal hyperplane, the class of its section and (lam, mu),
    read off the graph jets to order 3 in the chart aligned to the line:
    F = y f and G = y g, (lam, mu) = (g_x, -f_x) at the point, and the
    double root degenerates where lam f_xx + mu g_xx vanishes there."""
    chart = adapted_chart(surface, point, line)
    F_, G_ = chart.solve_graph(3)
    if any(e[1] < 1 for J in (F_, G_) for e in J.coeffs):
        raise SegreCuspError("graph functions do not vanish on the line")
    lam, mu = G_.coefficient((1, 1)), -F_.coefficient((1, 1))
    if not (lam or mu):
        raise NoDoubleRoot("restriction to the line is degenerate at the point")
    if not lam * F_.coefficient((2, 1)) + mu * G_.coefficient((2, 1)):
        raise NoDoubleRoot("double root degenerates to higher order")
    cls = hessian_form_at(surface, point, chart).section_class(
        _linear_form(lam, mu))
    return chart.hyperplane_from_dual(lam, mu), cls, (lam, mu)


def _points_on(line, params):
    a, b = line.span_over(QQ)
    return [ProjectivePoint.make(QQ, [x + t * y for x, y in zip(a, b)])
            for t in params]


def test_tacnodal_reading_matches_graph_reading():
    """On 1,224 points (t = -5..6 on each of the 17 lines of
    surface_through_line(seed), seeds 0..5), the hyperplane, the class and
    (lam, mu) read off the Gram block equal the order-3 graph reading."""
    from segrecusp.blowup import surface_through_line

    seen = Counter()
    for seed in range(6):
        fix = surface_through_line(seed)
        for line in fix.lines + [fix.distinguished_line]:
            for p in _points_on(line, range(-5, 7)):
                want = _graph_tacnodal(fix, line, p)
                got = tacnodal_hyperplane_on_line(fix, line, p)
                assert got[:3] == want, (seed, line, p)
                seen[want[1].kind] += 1
    assert sum(seen.values()) == 1224
    assert seen["A3_tacnode"] and seen["Other"], seen


def _refuse(*args, **kwargs):
    raise AssertionError("a jet was built or a graph solved")


def test_smooth_point_readings_build_no_jet(line_fixture, trichotomy_points,
                                            monkeypatch):
    """With graph solves and Jet construction refused, the tacnodal
    hyperplanes along the fixture's line and their section classes are the
    order-3 graph reading's, classify_section_germ gives the same classes
    at the same hyperplanes, and the point cases give the order-8 jet
    reading's classes."""
    from segrecusp import jets, surface
    from segrecusp.jets import Jet

    line = line_fixture.distinguished_line
    points = _points_on(line, range(-5, 7))
    want = [_graph_tacnodal(line_fixture, line, p) for p in points]
    kinds = [_jet_kinds(adapted_chart(inst, p), 8)
             for inst, p in trichotomy_points]
    monkeypatch.setattr(AdaptedChart, "solve_graph", _refuse)
    for module in (jets, surface, cusplocus):
        monkeypatch.setattr(module, "hensel_solve", _refuse)
    monkeypatch.setattr(Jet, "__init__", _refuse)
    for p, (H, cls, lam_mu) in zip(points, want):
        assert tacnodal_hyperplane_on_line(line_fixture, line, p)[:3] == \
            (H, cls, lam_mu), p
        assert classify_section_germ(line_fixture, p, H) == cls, p
    for (inst, p), k in zip(trichotomy_points, kinds):
        pc = point_case(inst, p)
        assert [c.kind for c in pc.root_classes] == k, (inst.pencil, p)
        assert pc.case == CASE_OF_KINDS[tuple(sorted(k))]


def _quadric(terms):
    """The symmetric matrix of sum c x_i x_j over the terms {(i, j): c}."""
    M = [[F(0)] * 5 for _ in range(5)]
    for (i, j), c in terms.items():
        M[i][j] += F(c, 1 if i == j else 2)
        M[j][i] = M[i][j]
    return M


# pencils containing the line {x2 = x3 = x4 = 0}, smooth at e0 with
# T = {x3 = x4 = 0}, each with the term that repairs it: at e0 the chart is
# the unit vectors, A(c1, c2) is -(lam P_12 + mu Q_12), and at its root
# (0 : 1), where P_12 = 1 and Q_12 = 0, A(c1, u) is -Q_13
DEGENERATE_TACNODAL = {
    "restriction to the line is degenerate at the point": (
        {(0, 3): 2, (2, 2): 1, (1, 4): 2, (4, 4): 1},
        {(0, 4): 2, (1, 3): 2, (2, 2): -1, (3, 3): 1}, (0, (1, 2))),
    "double root degenerates to higher order": (
        {(0, 3): 2, (1, 2): 2, (4, 4): 1},
        {(0, 4): 2, (1, 4): 2, (2, 2): 1, (3, 3): 1}, (1, (1, 3))),
}


@pytest.mark.parametrize("message", sorted(DEGENERATE_TACNODAL))
def test_tacnodal_degenerate_roots_are_typed(message):
    """Each degenerate tacnodal root raises NoDoubleRoot with its message;
    with the term 2 x_i x_j that repairs it, the root is the graph
    reading's."""
    P, Q, (k, repair) = DEGENERATE_TACNODAL[message]
    e0, e1 = (ProjectivePoint.make(QQ, [int(i == k) for i in range(5)])
              for k in (0, 1))
    line = LineOnSurface(e0, e1, "exact")
    surf = SurfaceInstance(QuadricPencil(_quadric(P), _quadric(Q)))
    with pytest.raises(NoDoubleRoot, match=f"^{message}$"):
        tacnodal_hyperplane_on_line(surf, line, e0)
    forms = [P, Q]
    forms[k] = {**forms[k], repair: 2}
    surf = SurfaceInstance(QuadricPencil(*map(_quadric, forms)))
    got = tacnodal_hyperplane_on_line(surf, line, e0)
    assert got[:3] == _graph_tacnodal(surf, line, e0) and not got[2][0]


def test_tacnodal_needs_a_line_on_the_surface(line_fixture):
    """A line through p inside T_pS but not on S is an error."""
    (p,) = _points_on(line_fixture.distinguished_line, [2])
    tangent = line_fixture.tangent_frame(p)[0]
    off = ProjectivePoint.make(
        QQ, [x + 3 * y for x, y in zip(tangent[1], tangent[2])])
    with pytest.raises(SegreCuspError,
                       match="^graph functions do not vanish on the line$"):
        tacnodal_hyperplane_on_line(line_fixture,
                                    LineOnSurface(p, off, "exact"), p)


def test_trichotomy_discriminants_split_by_trial_division(monkeypatch):
    # the point cases of one pass of perfbench's trichotomy workload (two
    # points on the sampling instance of each symbol, exact lines only):
    # the roots of every Hessian form, read off its HessianAtPoint, settle
    # without sympy's factorint, the discriminants reaching 73 digits
    # (point_case itself splits none)
    from segrecusp import fields, lines

    def no_factorint(n, *args, **kwargs):
        raise AssertionError(f"factorint({n})")

    seen = []
    real = fields.squarefree_split

    def recorded(q):
        seen.append(abs(q.numerator * q.denominator))
        return real(q)

    monkeypatch.setattr(sympy, "factorint", no_factorint)
    monkeypatch.setattr(fields, "squarefree_split", recorded)
    monkeypatch.setattr(lines, "squarefree_split", recorded)
    for j, symbol in enumerate(TABLE1_SYMBOLS):
        inst = sampling_instance(symbol)
        if inst.lines is None:
            pairs = list(coordinate_lines(inst.pencil))
            for s in inst.singular_points():
                pairs += lines_through_singular_point(inst.pencil, s)[0]
            inst.lines = [LineOnSurface(a, b, "exact") for a, b in pairs]
        for k in range(2):
            ((_, pc),) = sample_point_cases(inst, 1,
                                            rng=random.Random(f"{j}:{k}"))
            cusp_locus_summary(inst)
            assert len(pc.hessian.roots) == 2
    assert len(set(seen)) >= 14 and len(str(max(seen))) >= 73

import random
from fractions import Fraction as F
from itertools import chain, combinations, product

import pytest

from segrecusp.appendix import appendix_cases
from segrecusp.errors import NotOnSurface, PointSingular, SegreCuspError
from segrecusp.fields import (QQ, QuadraticExtension, RationalFunctions,
                              proj_normalize)
from segrecusp.instances import sampling_instance, table1_instance
from segrecusp.jets import Jet
from segrecusp.linalg import mat_det, mat_rank, mat_vec
from segrecusp.lines import enumerate_lines
from segrecusp.pencil import TABLE1_SYMBOLS, default_instance
from segrecusp.surface import (ProjectivePoint, SurfaceInstance,
                               _isotropic_seed, adapted_chart, chart_quadrics,
                               double_conic_hyperplane, sample_rational_points,
                               singular_sweep_numeric)


def e(i):
    return ProjectivePoint.make(QQ, [int(k == i) for k in range(5)])


def test_singular_points_smooth_surface(diag_11111):
    assert diag_11111.singular_points() == []


def test_singular_points_32_instance():
    # the A1+A2 surface: singular exactly at e0 (A2) and e3 (A1)
    from segrecusp.pencil import SegreSymbol
    case = [c for c in appendix_cases()
            if SegreSymbol.parse(c.symbol) == SegreSymbol.parse("[32]")][0]
    surf = case.surface()
    got = {str(p): str(ade) for p, ade in surf.singularities()}
    assert got == {"(1 : 0 : 0 : 0 : 0)": "A2", "(0 : 0 : 0 : 1 : 0)": "A1"}


def test_singular_point_A3_in_2_21():
    from segrecusp.pencil import SegreSymbol
    case = [c for c in appendix_cases()
            if SegreSymbol.parse(c.symbol) == SegreSymbol.parse("[2(21)]")][0]
    surf = case.surface()
    got = {str(p): str(ade) for p, ade in surf.singularities()}
    assert got["(0 : 0 : 1 : 0 : 0)"] == "A3"


@pytest.mark.parametrize("symbol,expected", [
    ("[1112]", ["A1"]),
    ("[1(13)]", ["D4"]),
    ("[(14)]", ["D5"]),
    ("[5]", ["A4"]),
    ("[(11)3]", ["A1", "A1", "A2"]),
])
def test_classification_examples(symbol, expected):
    inst = table1_instance(symbol)
    assert inst.singularity_multiset() == sorted(expected)


def test_irrational_singular_points_classified():
    # a diagonal realization of the repeated eigenvalue puts the two A1
    # points at X4 = +-i*X3: coordinates in Q(i), classified over it
    from fractions import Fraction
    from segrecusp.pencil import QuadricPencil
    from segrecusp.surface import SurfaceInstance as SI
    P = [[Fraction(v) if i == j else Fraction(0) for j in range(5)]
         for i, v in enumerate([1, 2, 5, 7, 7])]
    Q = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
    inst = SI(QuadricPencil(P, Q))
    sings = inst.singularities()
    assert [str(t) for _, t in sings] == ["A1", "A1"]
    assert all(not p.is_rational for p, _ in sings)


def test_numeric_singular_sweep_matches_exact():
    inst = table1_instance("[12(11)]")
    matched, unresolved = singular_sweep_numeric(inst)
    assert not unresolved
    assert matched  # the sweep does find the known points


def test_adapted_chart_zero_one_jet(smooth_model):
    pts = sample_rational_points(smooth_model, 1, rng=random.Random(2))
    chart = adapted_chart(smooth_model, pts[0])
    Fj, Gj = chart.solve_graph(4)
    assert Fj.valuation() >= 2 and Gj.valuation() >= 2


def test_adapted_chart_roundtrip(smooth_model):
    pts = sample_rational_points(smooth_model, 1, rng=random.Random(4))
    chart = adapted_chart(smooth_model, pts[0])
    assert ProjectivePoint.make(QQ, chart.columns[0]) == pts[0]
    # composing with the inverse of the column matrix is the identity
    from segrecusp.linalg import mat_inv, mat_mul, identity
    A = [[chart.columns[j][i] for j in range(5)] for i in range(5)]
    assert mat_mul(mat_inv(QQ, A), A) == identity(QQ, 5)


def _linear_jets(field, const, directions, names, order):
    """X = const + sum_a t_a directions[a] as five linear jets."""
    units = [tuple(int(i == a) for i in range(len(names)))
             for a in range(len(names))]
    return [Jet(field, names, order,
                {(0,) * len(names): const[k],
                 **{e: d[k] for e, d in zip(units, directions)}})
            for k in range(5)]


def _qform(M, X):
    """The quadratic form X^T M X, by the loop over the entries (X may
    hold jets)."""
    acc = X[0] * 0
    for i, row in enumerate(M):
        for j, c in enumerate(row):
            if c:
                acc = acc + X[i] * X[j] * c
    return acc


@pytest.mark.parametrize("order", range(1, 9))
def test_chart_quadrics_match_qform_on_linear_jets(order):
    # the reference is q(X) evaluated on linear jets; at order 1 the
    # degree-2 terms of the restriction are truncated away
    rng = random.Random(order)
    while True:
        A = [[F(rng.randint(-2, 2)) for _ in range(5)] for _ in range(5)]
        if mat_det(QQ, A):
            break
    Kr2, Kx = QuadraticExtension(2), RationalFunctions("x")
    for pencil in (default_instance("[1112]"),
                   default_instance("[23]").congruent(A)):
        rational = [[F(rng.randint(-2, 2)) for _ in range(5)]
                    for _ in range(5)]
        quadratic = [[Kr2.coerce(rng.randint(-2, 2))
                      + Kr2.sqrt_gen * rng.randint(-2, 2) for _ in range(5)]
                     for _ in range(5)]
        cases = [(field, cols, ("x", "y", "z", "w"), field,
                  _linear_jets(field, cols[0], cols[1:],
                               ("x", "y", "z", "w"), order))
                 for field, cols in ((QQ, rational), (Kr2, quadratic))]
        # the line form: x is the parameter of c_0 + x c_1, over Q(x)
        const = [Kx.coerce(a) + Kx.gen * b
                 for a, b in zip(rational[0], rational[1])]
        directions = [[Kx.coerce(v) for v in c] for c in rational[2:]]
        cases.append((QQ, rational, ("y", "z", "w"), Kx,
                      _linear_jets(Kx, const, directions, ("y", "z", "w"),
                                   order)))
        for field, cols, names, jet_field, X in cases:
            got = chart_quadrics(pencil, field, cols, names, order)
            want = [_qform(M, X) for M in pencil.coerced(jet_field)]
            for g, w in zip(got, want):
                assert (g.field, g.vars, g.order) == (jet_field, names, order)
                assert g.coeffs == w.coeffs
                assert all(sum(e) <= order for e in g.coeffs)


def test_adapted_chart_rejects_singular_point():
    inst = table1_instance("[1112]")
    s = inst.singular_points()[0]
    with pytest.raises(PointSingular):
        adapted_chart(inst, s)


def test_tangent_plane_contains_lines_through_point(smooth_model):
    line = smooth_model.lines[0]
    a, b = line.span_over(QQ)
    p = ProjectivePoint.make(QQ, [ai + 2 * bi for ai, bi in zip(a, b)])
    tangent, _, _, field = smooth_model.tangent_frame(p)
    assert mat_rank(field, tangent + [a]) == 3
    assert mat_rank(field, tangent + [b]) == 3


def test_chart_line_alignment(smooth_model):
    line = smooth_model.lines[3]
    a, b = line.span_over(QQ)
    p = ProjectivePoint.make(QQ, [ai + bi for ai, bi in zip(a, b)])
    chart = adapted_chart(smooth_model, p, line)
    # both spanning points lie in {y = z = w = 0}
    from segrecusp.linalg import solve_linear
    A = [[chart.columns[j][i] for j in range(5)] for i in range(5)]
    for v in (a, b):
        sol = solve_linear(QQ, A, list(v))
        assert sol[2] == 0 and sol[3] == 0 and sol[4] == 0


def test_sample_points_smooth_and_on_surface():
    inst = table1_instance("[122]")
    pts = sample_rational_points(inst, 6, rng=random.Random(9))
    assert len(pts) == 6
    for p in pts:
        assert inst.on_surface(p) and inst.is_smooth_at(p)


def test_off_surface_candidate_is_an_error():
    """Both sampling constructions put every candidate on S, so a candidate
    off S is an error rather than a point skipped."""
    inst = table1_instance("[122]")
    off = ProjectivePoint.make(QQ, [1, 1, 1, 1, 1])
    assert not inst.on_surface(off)
    inst.point_source = lambda rng: off
    with pytest.raises(SegreCuspError, match="not on the surface"):
        sample_rational_points(inst, 1, rng=random.Random(0))


def _rank3_member_and_points(count):
    """[1(11)(11)], a rank-3 member of its pencil and ``count`` sampled
    smooth rational points of the surface."""
    inst = table1_instance("[1(11)(11)]")
    member = [m for m in inst.pencil.rank_drop_members() if m.is_rank3][0]
    return inst, member, sample_rational_points(inst, count,
                                                rng=random.Random(7))


def test_double_conic_hyperplane_family():
    inst, member, pts = _rank3_member_and_points(3)
    hyps = [double_conic_hyperplane(inst, member, p) for p in pts]
    assert len({tuple(h) for h in hyps}) == 3


def test_double_conic_passes_singular_point():
    inst, member, (p,) = _rank3_member_and_points(1)
    H = double_conic_hyperplane(inst, member, p)
    on_h = [p for p in inst.singular_points()
            if sum(F(h) * c for h, c in zip(H, p.coords)) == 0]
    assert on_h  # Prop.: every double conic passes a singular point


def test_double_conic_sections_are_squares():
    from segrecusp.cusplocus import classify_section_germ
    inst, member, pts = _rank3_member_and_points(3)
    assert len(pts) == 3
    for p in pts:
        H = double_conic_hyperplane(inst, member, p)
        assert H == proj_normalize(mat_vec(QQ, inst.pencil.member(
            *member.root), list(p.coords)))
        assert classify_section_germ(inst, p, H).kind == "PerfectSquare"


def test_double_conic_hyperplane_needs_a_smooth_point_and_a_rank3_member():
    inst, member, (p,) = _rank3_member_and_points(1)
    with pytest.raises(PointSingular):
        double_conic_hyperplane(inst, member, inst.singular_points()[0])
    off = ProjectivePoint.make(QQ, [1, 1, 1, 1, 1])
    assert not inst.on_surface(off)
    with pytest.raises(NotOnSurface):
        double_conic_hyperplane(inst, member, off)
    rank4 = next(m for m in inst.pencil.rank_drop_members() if m.rank == 4)
    with pytest.raises(ValueError):
        double_conic_hyperplane(inst, rank4, p)


def test_double_conic_hyperplane_over_a_quadratic_field():
    """At a point over Q(sqrt -1), on a line of the default [1(13)], N p is
    read over that field and contains the tangent plane."""
    inst = table1_instance("[1(13)]")
    line = next(line for line in enumerate_lines(inst).lines
                if line.exactness == "exact" and line.field() != QQ)
    field = line.field()
    a, b = line.span_over(field)
    p = ProjectivePoint.make(field, [x + 2 * y for x, y in zip(a, b)])
    (member,) = [m for m in inst.pencil.rank_drop_members() if m.is_rank3]
    H = double_conic_hyperplane(inst, member, p)
    assert H == proj_normalize(mat_vec(field, inst.pencil.member(
        *member.root), list(p.coords)))
    assert not any(sum((h * c for h, c in zip(H, v)), field.zero)
                   for v in inst.tangent_frame(p)[0])


def test_surface_through_line_contract():
    from segrecusp.blowup import surface_through_line
    e0, e1 = e(0), e(1)
    for seed in range(6):
        fix = surface_through_line(seed)
        # quadrics carry no monomials involving only X0, X1
        for M in (fix.pencil.P, fix.pencil.Q):
            assert M[0][0] == 0 and M[0][1] == 0 and M[1][1] == 0
        line = fix.distinguished_line
        assert line in fix.lines, seed
        assert line.contains(e0) and line.contains(e1), seed
        assert line.n_incident == 0, seed
        assert str(fix.pencil.segre_symbol()) == "[11111]"


def test_census_on_plane_model(smooth_model):
    """The census of the five-point plane model: sixteen exact lines over Q
    with no warning, the 5-regular Clebsch intersection graph of a quartic
    del Pezzo surface, and one line through the images of each segment
    between two of the five points."""
    census = enumerate_lines(SurfaceInstance(smooth_model.pencil, seed=0))
    assert census.warnings == []
    lines = smooth_model.lines
    assert len(lines) == 16
    assert all(l.exactness == "exact" and l.field() == QQ for l in lines)
    assert [l.plucker_float().tolist() for l in census.lines] == \
        [l.plucker_float().tolist() for l in lines]
    spans = [list(l.span_over(QQ)) for l in lines]
    for i, span in enumerate(spans):
        meets = [j for j, other in enumerate(spans)
                 if j != i and mat_rank(QQ, span + other) == 3]
        assert len(meets) == 5, i
    model = smooth_model.model
    for a, b in combinations(model.points, 2):
        images = [model.map_point(tuple(ai + t * (bi - ai)
                                        for ai, bi in zip(a, b)))
                  for t in (F(1, 3), F(2, 3))]
        through = [l for l in lines if all(l.contains(p) for p in images)]
        assert len(through) == 1, (a, b)


def _rank_tested_seed(pencil, member, surface_points):
    """The first candidate on the member quadric that is neither in the
    span of the member's kernel, by a rank test, nor in ker M: the seed
    search before it relied on ker M = span(member.kernel) alone."""
    kernel = member.kernel
    M = pencil.member(*member.root)
    units = [[F(int(k == j)) for k in range(5)] for j in range(5)]
    scales = (1, -1, 2, -2)
    candidates = chain(
        (list(p.coords) for p in surface_points if p.is_rational), units,
        ([a + s * b for a, b in zip(units[i], units[j])]
         for i, j in combinations(range(5), 2) for s in scales),
        ([c1 * a + s * b + t * c
          for a, b, c in zip(units[i], units[j], units[k])]
         for i, j, k in combinations(range(5), 3)
         for c1, s, t in product((1, 2), scales, scales)))
    for v in candidates:
        if _qform(M, v) != 0:
            continue
        if mat_rank(QQ, kernel + [v]) != len(kernel) + 1:
            continue
        if any(mat_vec(QQ, M, v)):
            return v
    return None


@pytest.mark.parametrize("symbol", [str(s) for s in TABLE1_SYMBOLS])
def test_strategy_cache_leaves_draws_unchanged(symbol):
    inst = sampling_instance(symbol)

    def fresh():
        out = SurfaceInstance(inst.pencil, seed=inst.seed)
        out.point_source = inst.point_source
        return out

    if inst.point_source is None:
        # the cones in the order the sampler drew from before the cache
        sing, want = inst.singular_points(), []
        for member in inst.pencil.rank_drop_members():
            vertex = [p for p in sing if p.is_rational and mat_rank(
                QQ, member.kernel + [list(p.coords)]) == len(member.kernel)]
            if member.rank in (3, 4) and vertex:
                seed = _rank_tested_seed(inst.pencil, member, sing)
                if seed is not None:
                    want.append((member.root, vertex[0], seed))
        assert want == [(m.root, p, v) for m, p, v, _ in
                        inst.sampling_strategies()]
    for k in (0, 1):
        first = sample_rational_points(inst, 3, rng=random.Random(k))
        again = sample_rational_points(inst, 3, rng=random.Random(k))
        assert first == again == sample_rational_points(
            fresh(), 3, rng=random.Random(k))
    for surface in (inst, table1_instance(symbol)):
        sing = surface.singular_points()
        pencil = surface.pencil
        for member in pencil.rank_drop_members():
            if member.rank in (3, 4):
                assert _isotropic_seed(pencil.member(*member.root), sing) == \
                    _rank_tested_seed(pencil, member, sing)

"""Acceptance suite: the eight exit criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Exact cells carry zero tolerance; a numeric line of the census
must have containment residual < 1e-10.
"""

import json
import random
from fractions import Fraction as F
from importlib import resources

import pytest

from segrecusp.blowup import smooth_segre_instance, surface_through_line
from segrecusp.cusplocus import (cusp_locus_summary, hessian_form_at,
                                 line_report, numeric_line_branch_evidence,
                                 sample_point_cases, tacnodal_conic,
                                 tacnodal_hyperplane_on_line, _on_any_line)
from segrecusp.fields import QQ, RationalFunctions
from segrecusp.instances import sampling_instance, table1_instance
from segrecusp.jets import Jet, y_order
from segrecusp.linalg import mat_rank
from segrecusp.lines import enumerate_lines
from segrecusp.pencil import TABLE1_SYMBOLS, default_instance
from segrecusp.surface import (AdaptedChart, ProjectivePoint,
                               sample_rational_points)


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_table1_regression():
    fixture_path = resources.files("segrecusp").joinpath("data", "table1.json")
    with fixture_path.open() as fh:
        fixture = json.load(fh)["rows"]
    failures = []
    for symbol in TABLE1_SYMBOLS:
        name = str(symbol)
        expected = fixture[name]
        inst = table1_instance(name, seed=0)
        if inst.singularity_multiset() != sorted(expected["sing"]):
            failures.append(f"{name}: sing")
        census = enumerate_lines(inst)
        if list(census.counts) != expected["lines"]:
            failures.append(f"{name}: lines {census.counts}")
        if census.residual_bound >= 1e-10:
            failures.append(f"{name}: residual {census.residual_bound}")
        got_x = None
        for line in census.lines:
            if (line.exactness == "exact" and line.n_incident == 2
                    and line.field() == QQ):
                got_x = line_report(inst, line).m
                break
        if got_x != expected["x"]:
            failures.append(f"{name}: x {got_x} != {expected['x']}")
        ds = {0: "irreducible", 1: "reducible",
              2: "cuspidal-image-empty"}[inst.pencil.double_conic_pencil_count()]
        if ds != expected["DS"]:
            failures.append(f"{name}: DS {ds}")
    report("1 Table-1 regression (16 symbols)", not failures, "; ".join(failures))


def test_criterion_2_appendix_regression():
    from segrecusp.appendix import verify_appendix
    results = verify_appendix()
    got = [(r["m"], r["branch_mult"]) for r in results]
    ok = (got == [(2, 0), (2, 0), (2, 0), (3, 0), (3, 0), (4, 0), (4, 0)]
          and all(r["pass"] for r in results)
          and results[0].get("closed_forms") is True)
    report("2 Appendix regression (seven cases, closed forms)", ok, f"{got}")


def test_criterion_3_simple_branch_fixtures():
    failures = []
    for seed in (1, 2, 3, 4, 5):
        fix = surface_through_line(seed=seed)
        rep = line_report(fix, fix.distinguished_line)
        if (rep.m, rep.branch_mult) != (0, 1):
            failures.append(f"seed {seed}: ({rep.m}, {rep.branch_mult})")
    report("3 Simple branch divisor (5 seeded fixtures)", not failures,
           "; ".join(failures))


CASE_LISTS = [
    ("CaseI", ["[1(11)(11)]", "[(11)(12)]"]),
    ("CaseII", ["[111(11)]", "[12(11)]", "[11(12)]", "[1(13)]", "[(11)3]",
                "[(12)2]", "[(14)]"]),
    ("CaseIII", ["[11111]", "[1112]", "[113]", "[122]", "[14]", "[23]", "[5]"]),
]


def test_criterion_4_trichotomy():
    failures = []
    for expected, symbols in CASE_LISTS:
        for name in symbols:
            inst = sampling_instance(name, seed=5)
            if inst.lines is None:
                enumerate_lines(inst)
            pairs = sample_point_cases(inst, 3, rng=random.Random(7))
            cases = [pc.case for _, pc in pairs]
            if any(c != expected for c in cases):
                failures.append(f"{name}: {cases}")
                continue
            try:
                cusp_locus_summary(inst, sample_points=[p for p, _ in pairs])
            except Exception as exc:
                failures.append(f"{name}: summary {exc}")
    report("4 Trichotomy (16 symbols, >=3 points, summary cross-check)",
           not failures, "; ".join(failures))


def test_criterion_5_no_offline_double_roots():
    instances = [smooth_segre_instance(seed=0)]
    for name in ("[122]", "[23]", "[12(11)]", "[(11)3]"):
        inst = sampling_instance(name, seed=9)
        enumerate_lines(inst)
        instances.append(inst)
    bad = 0
    for inst in instances:
        pts = sample_rational_points(
            inst, 50, rng=random.Random(13),
            avoid=lambda p: _on_any_line(inst, p))
        for p in pts:
            hess = hessian_form_at(inst, p)
            if not hess.has_two_distinct_roots:
                bad += 1
    report("5 No off-line double roots (50 points x 5 instances)", bad == 0,
           f"{bad} degenerate")


def test_criterion_6_tacnodal_conic():
    fix = surface_through_line(seed=1)
    line = fix.distinguished_line
    a, b = line.span_over(QQ)
    conic = tacnodal_conic(fix, line)
    ok = mat_rank(QQ, conic) == 3
    residuals = []
    for t in (F(1), F(2), F(3), F(5), F(7), F(11)):
        p = ProjectivePoint.make(QQ, [ai + t * bi for ai, bi in zip(a, b)])
        H, cls, _, _ = tacnodal_hyperplane_on_line(fix, line, p)
        ok = ok and cls.kind == "A3_tacnode"
        residuals.append(sum(H[i] * conic[i][k] * H[k]
                             for i in range(5) for k in range(5)))
    ok = ok and all(r == 0 for r in residuals)
    report("6 Tacnodal sections on a conic in the dual plane", ok,
           f"residuals {residuals}")


def _chart_variants(chart):
    c0, c1, c2, c3, c4 = [list(c) for c in chart.columns]
    mix = lambda u, v: [ui + vi for ui, vi in zip(u, v)]
    yield chart
    yield AdaptedChart(surface=chart.surface, field=chart.field,
                       columns=[c0, mix(c1, c2), c2, c4, c3],
                       base_point=chart.base_point)
    yield AdaptedChart(surface=chart.surface, field=chart.field,
                       columns=[c0, c1, mix(c2, c1), mix(c3, mix(c0, c1)),
                                mix(c4, [-x for x in c2])],
                       base_point=chart.base_point)


def test_criterion_7_property_suites(rng):
    from segrecusp.cusplocus import classify_plane_germ
    from segrecusp.linalg import mat_det

    # congruence invariance of the Segre symbol, 100 random congruences
    pen = default_instance("[(12)2]")
    sym = pen.segre_symbol()
    cong_ok = True
    for _ in range(100):
        while True:
            A = [[F(rng.randint(-3, 3)) for _ in range(5)] for _ in range(5)]
            if mat_det(QQ, A):
                break
        if pen.congruent(A).segre_symbol() != sym:
            cong_ok = False
            break

    # chart independence of section classification: 3 charts x 5 points
    inst = smooth_segre_instance(seed=0)
    pts = sample_rational_points(inst, 5, rng=random.Random(21),
                                 avoid=lambda p: _on_any_line(inst, p))
    chart_ok = True
    for p in pts:
        outcomes = []
        from segrecusp.surface import adapted_chart
        for chart in _chart_variants(adapted_chart(inst, p)):
            hess = hessian_form_at(inst, p, chart=chart)
            Fj, Gj = chart.solve_graph(8)
            kinds = []
            for rfield, (lam, mu), _ in hess.roots:
                Fr, Gr = Fj, Gj
                if rfield != chart.field:
                    Fr = Fj.map_coefficients(rfield, rfield.coerce)
                    Gr = Gj.map_coefficients(rfield, rfield.coerce)
                    lam, mu = rfield.coerce(lam), rfield.coerce(mu)
                kinds.append(classify_plane_germ(Fr * lam + Gr * mu).kind)
            outcomes.append(sorted(kinds))
        chart_ok = chart_ok and all(o == outcomes[0] for o in outcomes)

    # re-lift stability of the implicit solve at orders N and N + 2
    case_chart = adapted_chart(inst, pts[0])
    F1, G1 = case_chart.solve_graph(8)
    F2, G2 = case_chart.solve_graph(10)
    relift_ok = (F2.truncate(8).coeffs == F1.coeffs
                 and G2.truncate(8).coeffs == G1.coeffs)

    # multiplicativity of y-orders on 100 random jet pairs
    Kx = RationalFunctions("x")
    x = Kx.gen
    mult_ok = True
    for _ in range(100):
        def rand_jet():
            v = rng.randint(0, 3)
            coeffs = {(v,): Kx.one * rng.choice([1, 2, 3]) / x}
            for k in range(v + 1, 7):
                c = rng.randint(-2, 2)
                if c:
                    coeffs[(k,)] = Kx.coerce(c)
            return Jet(Kx, ("y",), 8, coeffs)

        a, b = rand_jet(), rand_jet()
        prod = a * b
        if y_order(a) + y_order(b) <= prod.order:
            mult_ok = mult_ok and (y_order(prod) == y_order(a) + y_order(b))

    ok = cong_ok and chart_ok and relift_ok and mult_ok
    report("7 Property suites (congruence, charts, re-lift, y-orders)", ok,
           f"congruence={cong_ok} charts={chart_ok} relift={relift_ok} "
           f"orders={mult_ok}")


def test_criterion_8_smooth_branch_degree():
    # exact route: a rational smooth model with 16 exact lines
    model = smooth_segre_instance(seed=0)
    exact_ok = len(model.lines) == 16
    for line in model.lines:
        rep = line_report(model, line)
        exact_ok = exact_ok and (rep.m, rep.branch_mult) == (0, 1)
    # numeric-evidence route on the default diagonal instance
    diag = table1_instance("[11111]", seed=11)
    census = enumerate_lines(diag)
    numeric_ok = census.counts == (16, 0, 0)
    for line in census.lines:
        ev = numeric_line_branch_evidence(diag, line)
        numeric_ok = numeric_ok and ev.get("status") == "ok" \
            and ev.get("m_estimate") == 0 and ev.get("branch_estimate") == 1
    ok = exact_ok and numeric_ok
    report("8 Smooth case: 16 branch lines, each simple", ok,
           f"exact={exact_ok} numeric={numeric_ok}")

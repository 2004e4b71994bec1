"""Jet arithmetic, implicit solving, vanishing orders, splitting.

Expected values tagged as derived in the design notes are recomputed here
through independent routes (sympy substitution, resultants) before being
asserted against the jet pipeline.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
import sympy

from segrecusp.errors import (OrderTooSmall, SingularJacobian,
                              TruncationInsufficient)
from segrecusp.fields import QQ, QuadraticExtension, RationalFunctions, pgcd
from segrecusp.jets import (MAX_ORDER, START_ORDER, InfiniteOrder, Jet,
                            _mul_into,
                            escalate, hensel_solve, jet_from_poly,
                            splitting_reduce, y_order)

V4 = ("x", "y", "z", "w")


def poly4(order, terms):
    return jet_from_poly(QQ, V4, order, terms)


def test_jet_ring_basics():
    f = jet_from_poly(QQ, ("x", "y"), 5, {(1, 0): 1, (0, 1): 1})
    g = f * f
    assert g.coefficient((1, 1)) == 2
    assert (f - f).is_zero()
    inv = (1 + f).inverse()
    assert ((1 + f) * inv - 1).is_zero()
    with pytest.raises(ZeroDivisionError):
        f.inverse()


def test_truncation_closure():
    f = jet_from_poly(QQ, ("x", "y"), 3, {(3, 0): 1, (0, 1): 1})
    g = f * f
    assert all(sum(e) <= g.order for e in g.coeffs)


def test_hensel_trivial_graph():
    q1 = poly4(4, {(0, 0, 1, 0): 1, (2, 0, 0, 0): -1})
    q2 = poly4(4, {(0, 0, 0, 1): 1, (0, 2, 0, 0): -1})
    Fj, Gj = hensel_solve([q1, q2], ("z", "w"))
    assert Fj.coeffs == {(2, 0): F(1)}
    assert Gj.coeffs == {(0, 2): F(1)}


def test_hensel_instantiated_closed_form():
    # z, w eliminated from x1 + x*x3 + y^2 and (b-a)x*x3 + (c-a)y^2 over Q(x)
    Kx = RationalFunctions("x")
    x = Kx.gen
    a, b, c = 1, 2, 3
    vars3 = ("y", "z", "w")
    q1 = jet_from_poly(Kx, vars3, 8, {(0, 0, 1): 1, (0, 1, 0): x, (2, 0, 0): 1})
    q2 = jet_from_poly(Kx, vars3, 8, {(0, 1, 0): (b - a) * x, (2, 0, 0): c - a})
    Fj, Gj = hensel_solve([q1, q2], ("z", "w"))
    assert Fj.coeffs == {(2,): Kx.coerce(F(a - c, b - a)) / x}
    assert Gj.coeffs == {(2,): Kx.coerce(F(c - b, b - a))}


def test_hensel_errors():
    q1 = poly4(4, {(0, 0, 0, 0): 1, (0, 0, 1, 0): 1})
    q2 = poly4(4, {(0, 0, 0, 1): 1})
    with pytest.raises(SingularJacobian):
        hensel_solve([q1, q2], ("z", "w"))
    q1 = poly4(4, {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1})  # rank-1 Jacobian block
    q2 = poly4(4, {(0, 0, 1, 0): 2, (0, 0, 0, 1): 2})
    with pytest.raises(SingularJacobian):
        hensel_solve([q1, q2], ("z", "w"))
    with pytest.raises(OrderTooSmall):
        hensel_solve([poly4(1, {(0, 0, 1, 0): 1}),
                      poly4(1, {(0, 0, 0, 1): 1})], ("z", "w"), order=1)
    with pytest.raises(ValueError):
        hensel_solve([poly4(4, {(0, 0, 1, 0): 1})], ("z", "w"))


def test_escalate_doubles_until_settled():
    calls = []

    def needs(least):
        def compute(order):
            calls.append(order)
            if order < least:
                raise TruncationInsufficient(f"order {order} < {least}")
            return order
        return compute

    assert escalate(needs(10)) == 12 and calls == [3, 6, 12]
    calls.clear()
    with pytest.raises(TruncationInsufficient):
        escalate(needs(MAX_ORDER + 1), start=5)
    assert calls == [5, 10, 20, MAX_ORDER]

    def misuse(order):
        calls.append(order)
        raise OrderTooSmall("not a truncation to retry")

    calls.clear()
    with pytest.raises(OrderTooSmall):
        escalate(misuse)
    assert calls == [START_ORDER]


def _random_quadric(rng, order, with_unit_block):
    terms = {}
    for i in range(4):
        for j in range(i, 4):
            e = [0, 0, 0, 0]
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = F(rng.randint(-3, 3))
    for key, val in with_unit_block.items():
        terms[key] = val
    return poly4(order, terms)


def test_hensel_random_residual_zero_oracle(rng):
    """Oracle: independent sympy substitution of the solved series."""
    N = 6
    for trial in range(3):
        q1 = _random_quadric(rng, N, {(0, 0, 1, 0): F(1), (0, 0, 0, 0): F(0),
                                      (1, 0, 0, 0): F(0), (0, 1, 0, 0): F(0),
                                      (0, 0, 0, 1): F(0)})
        q2 = _random_quadric(rng, N, {(0, 0, 0, 1): F(1), (0, 0, 0, 0): F(0),
                                      (1, 0, 0, 0): F(0), (0, 1, 0, 0): F(0),
                                      (0, 0, 1, 0): F(0)})
        Fj, Gj = hensel_solve([q1, q2], ("z", "w"))
        xs, ys, zs, ws = sympy.symbols("x y z w")

        def to_sympy(jet, syms):
            expr = sympy.Integer(0)
            for e, cval in jet.coeffs.items():
                term = sympy.Rational(cval.numerator, cval.denominator)
                for s, k in zip(syms, e):
                    term *= s ** k
                expr += term
            return expr

        Fs = to_sympy(Fj, (xs, ys))
        Gs = to_sympy(Gj, (xs, ys))
        for q in (q1, q2):
            expr = sympy.expand(to_sympy(q, (xs, ys, zs, ws))
                                .subs({zs: Fs, ws: Gs}))
            poly = sympy.Poly(expr, xs, ys)
            low = [m for m in poly.monoms() if sum(m) <= N]
            assert not low, f"trial {trial}: residual {low}"


def test_hensel_relift_stability(rng):
    N = 6
    q1 = _random_quadric(rng, N + 2, {(0, 0, 1, 0): F(1), (0, 0, 0, 0): F(0),
                                      (1, 0, 0, 0): F(0), (0, 1, 0, 0): F(0),
                                      (0, 0, 0, 1): F(0)})
    q2 = _random_quadric(rng, N + 2, {(0, 0, 0, 1): F(1), (0, 0, 0, 0): F(0),
                                      (1, 0, 0, 0): F(0), (0, 1, 0, 0): F(0),
                                      (0, 0, 1, 0): F(0)})
    F2, G2 = hensel_solve([q1, q2], ("z", "w"), order=N + 2)
    F1, G1 = hensel_solve([q1.truncate(N), q2.truncate(N)], ("z", "w"),
                          order=N)
    assert F2.truncate(N).coeffs == F1.coeffs
    assert G2.truncate(N).coeffs == G1.coeffs


def _field_sampler(name):
    """A coefficient field and a draw of small random elements of it."""
    if name == "Q":
        return QQ, lambda rng: F(rng.randint(-3, 3), rng.randint(1, 2))
    if name == "Qsqrt2":
        K = QuadraticExtension(2)
        return K, lambda rng: (K.coerce(rng.randint(-3, 3))
                               + K.coerce(rng.randint(-2, 2)) * K.sqrt_gen)
    Kx = RationalFunctions("x")
    x = Kx.gen
    return Kx, lambda rng: (Kx.coerce(rng.randint(-3, 3))
                            + rng.randint(-2, 2) * x
                            + Kx.coerce(rng.randint(0, 1)) / (x - 1))


def _random_jet(field, draw, rng, vars, order, low=0):
    """A jet with a random coefficient on about half the monomials of total
    degree ``low`` to ``order``."""
    terms = {}
    for e in itertools.product(range(order + 1), repeat=len(vars)):
        if low <= sum(e) <= order and rng.random() < 0.5:
            terms[e] = draw(rng)
    return Jet(field, vars, order, terms)


def _reference_substitute(jet, images, order):
    """sum of c * prod images[v]**k over the terms of ``jet``, expanded term
    by term as plain polynomials cut at total degree ``order``."""
    target = next(iter(images.values()))
    zero = target.field.zero

    def mul(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                if sum(e) <= order:
                    out[e] = out.get(e, zero) + ca * cb
        return out

    total = {}
    for e, c in jet.coeffs.items():
        term = {(0,) * len(target.vars): c}
        for v, k in zip(jet.vars, e):
            for _ in range(k):
                term = mul(term, images[v].coeffs)
        for t, val in term.items():
            total[t] = total.get(t, zero) + val
    return {t: val for t, val in total.items() if val}


@pytest.mark.parametrize("field_name", ["Q", "Qsqrt2", "Qx"])
def test_substitute_matches_term_by_term_expansion(field_name, rng):
    field, draw = _field_sampler(field_name)
    src = ("x", "y", "z")
    f = _random_jet(field, draw, rng, src, 5)
    cases = {}
    # identity: every image is the target variable of the same name
    cases["identity"] = {v: Jet.variable(field, src, 6, v) for v in src}
    # the same names in another order in the target ring
    perm = ("z", "x", "y")
    cases["permuted"] = {v: Jet.variable(field, perm, 5, v) for v in src}
    # two images are scaled variables, one the identity
    scaled = {v: Jet.variable(field, src, 5, v) * draw(rng) for v in src}
    scaled["y"] = Jet.variable(field, src, 5, "y")
    cases["scaled"] = scaled
    # identity in x, general jets (one with a constant term) for y and z
    general = {"x": Jet.variable(field, ("x", "t"), 4, "x"),
               "y": _random_jet(field, draw, rng, ("x", "t"), 4, low=1),
               "z": _random_jet(field, draw, rng, ("x", "t"), 4)}
    cases["general"] = general
    # no image shares a name with the target: all images are products
    cases["renamed"] = {v: _random_jet(field, draw, rng, ("s", "t"), 4, low=1)
                        for v in src}
    for label, images in cases.items():
        order = min([f.order] + [g.order for g in images.values()])
        got = f.substitute(images)
        assert got.vars == next(iter(images.values())).vars, label
        assert got.order == order, label
        assert got.coeffs == _reference_substitute(f, images, order), label


def _term_map(rng, nvars, size):
    """A sparse term map of up to ``size`` terms of degree at most 4, with
    coefficients from a small set so that products cancel often."""
    coeffs = (F(1), F(-1), F(1, 2), F(-1, 2), 2, -2)
    return {tuple(rng.randint(0, 1) for _ in range(nvars)): rng.choice(coeffs)
            for _ in range(rng.randint(0, size))}


def test_rational_jet_product_matches_fraction_loop(rng=random.Random(41)):
    # the integer product over Q against a plain Fraction double loop: the
    # truncation at order, accumulation into a non-empty out, and sums that
    # cancel to zero and stay in out
    zero_sums = 0
    for _ in range(300):
        nvars = rng.randint(1, 4)
        a, b = _term_map(rng, nvars, 6), _term_map(rng, nvars, 6)
        order = rng.randint(0, 6)
        out = {e: F(c) for e, c in _term_map(rng, nvars, 4).items()}
        expect = dict(out)
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                if sum(e) <= order:
                    expect[e] = expect.get(e, F(0)) + F(ca) * F(cb)
        got = _mul_into(out, a, b, order, QQ.zero)
        assert got is out and got == expect
        assert all(type(c) is F for c in got.values())
        zero_sums += sum(1 for c in got.values() if not c)
    assert zero_sums >= 10
    # x y (1 - 1) and, against out, x^2 (1 - 1): both stay as zeros
    a, b = {(1, 0): 1, (0, 1): F(1)}, {(0, 1): F(1), (1, 0): F(-1)}
    out = {(2, 0): F(1)}
    assert _mul_into(out, a, b, 2, QQ.zero) == {
        (2, 0): 0, (1, 1): 0, (0, 2): 1}


def test_hensel_one_equation_over_sqrt2_oracle():
    """Oracle: sympy substitution of the solved series into the equation,
    whose derivative in u is 1 + sqrt2 x + 2 sqrt2 u + ..., not a constant;
    the solution has a linear part, so its powers mix all degrees."""
    K = QuadraticExtension(2)
    r2 = K.sqrt_gen
    N = 6
    e = Jet(K, ("x", "y", "u"), N,
            {(0, 0, 1): K.one, (1, 0, 1): r2, (0, 0, 2): r2,
             (1, 0, 0): r2, (2, 0, 0): K.coerce(3), (1, 1, 0): -r2,
             (0, 3, 1): K.coerce(2),
             (0, 2, 2): 1 + r2, (1, 0, 3): K.coerce(F(1, 2))})
    (phi,) = hensel_solve([e], ("u",))
    assert phi.order == N and phi.vars == ("x", "y")
    xs, ys, us = sympy.symbols("x y u")
    s2 = sympy.sqrt(2)

    def to_sympy(jet, syms):
        expr = sympy.Integer(0)
        for exps, c in jet.coeffs.items():
            term = sympy.Rational(c.a.numerator, c.a.denominator) \
                + sympy.Rational(c.b.numerator, c.b.denominator) * s2
            for sym, k in zip(syms, exps):
                term *= sym ** k
            expr += term
        return expr

    phis = to_sympy(phi, (xs, ys))
    assert phis != 0
    residual = sympy.expand(to_sympy(e, (xs, ys, us)).subs(us, phis))
    low = {}
    for term in sympy.Add.make_args(residual):
        mono = sympy.Poly(term, xs, ys).monoms()[0]
        if sum(mono) <= N:
            low[mono] = (low.get(mono, 0)
                         + term / (xs ** mono[0] * ys ** mono[1]))
    assert all(sympy.simplify(c) == 0 for c in low.values()), low


def test_hensel_order_capped_at_the_equations():
    # u = x^2 + u^3 known only to order 3 determines u only to order 3
    e = jet_from_poly(QQ, ("x", "u"), 3, {(0, 1): 1, (2, 0): -1, (0, 3): -1})
    (phi,) = hensel_solve([e], ("u",), order=6)
    assert phi.order == 3 and phi.coeffs == {(2,): 1}


def test_hensel_relift_stability_over_rational_functions(rng):
    """The solve at order N + 2, cut to N, is the solve at order N, over Q(x)
    with a Jacobian that depends on x."""
    Kx, draw = _field_sampler("Qx")
    x = Kx.gen
    N = 5
    vars3 = ("y", "z", "w")
    q1 = _random_jet(Kx, draw, rng, vars3, N + 2, low=2) \
        + Jet(Kx, vars3, N + 2, {(0, 1, 0): x + 1, (0, 0, 1): Kx.coerce(2)})
    q2 = _random_jet(Kx, draw, rng, vars3, N + 2, low=2) \
        + Jet(Kx, vars3, N + 2, {(0, 1, 0): Kx.coerce(1), (0, 0, 1): x})
    F2, G2 = hensel_solve([q1, q2], ("z", "w"), order=N + 2)
    F1, G1 = hensel_solve([q1.truncate(N), q2.truncate(N)], ("z", "w"),
                          order=N)
    assert F1.order == N and F2.order == N + 2
    assert F2.truncate(N).coeffs == F1.coeffs
    assert G2.truncate(N).coeffs == G1.coeffs
    assert F1.coeffs or G1.coeffs


def test_y_order_examples():
    Kx = RationalFunctions("x")
    s = jet_from_poly(Kx, ("y",), 8, {(2,): 3 / Kx.gen, (5,): 1})
    assert y_order(s) == 2
    zero = Jet.zero(Kx, ("y",), 8)
    o = y_order(zero)
    assert isinstance(o, InfiniteOrder) and o.truncation_order == 8


def test_y_order_multiplicative(rng):
    Kx = RationalFunctions("x")
    x = Kx.gen
    for _ in range(100):
        def rand_jet():
            v = rng.randint(0, 3)
            coeffs = {}
            for k in range(v, 7):
                c = rng.randint(-2, 2)
                if c or k == v:
                    coeffs[(k,)] = Kx.coerce(c if c else 1) * x ** rng.randint(-1, 1)
            return Jet(Kx, ("y",), 8, coeffs)

        a, b = rand_jet(), rand_jet()
        oa, ob = y_order(a), y_order(b)
        prod = y_order(a * b)
        if oa + ob <= (a * b).order:
            assert prod == oa + ob


def test_splitting_reduce_examples():
    f = jet_from_poly(QQ, ("x", "y", "z"), 8,
                      {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    r = splitting_reduce(f)
    assert r.rank == 3 and r.residual.is_zero()
    f = jet_from_poly(QQ, ("x", "y", "z"), 8, {(2, 0, 0): 1, (0, 3, 0): 1})
    r = splitting_reduce(f)
    assert r.rank == 1
    assert set(r.residual_vars) == {"y", "z"}
    assert r.residual.valuation() == 3
    with pytest.raises(ValueError):
        splitting_reduce(jet_from_poly(QQ, ("x", "y"), 8, {(1, 0): 1}))


def test_splitting_involutive_on_split_germs(rng):
    # x1^2 + ... + xr^2 + g(rest) comes back as (r, g)
    g = {(0, 4): 2, (3, 0): 1, (1, 3): -1}
    f = jet_from_poly(QQ, ("x", "y", "z"), 8,
                      {(2, 0, 0): 1, **{(0, *e): c for e, c in g.items()}})
    r = splitting_reduce(f)
    assert r.rank == 1
    assert r.residual.coeffs == jet_from_poly(QQ, ("y", "z"), 8, g).coeffs


def test_splitting_surface_germ_with_A2_behavior():
    # x4^2 - 2x(y+d)x4 - y^3 eliminated to a 3-variable germ: A2 leading part
    # (the hypersurface shape of the [32] model near its cusp point)
    d = F(1)
    f = jet_from_poly(QQ, ("u", "x", "y"), 8,
                      {(2, 0, 0): 1, (1, 1, 1): -2, (1, 1, 0): -2 * d,
                       (0, 0, 3): -1})
    r = splitting_reduce(f)
    assert r.rank in (1, 2)
    assert r.residual.valuation() == 3


def test_splitting_without_square_terms():
    # xy + xz^2 + z^3: the Hessian has no diagonal entry, so the eliminated
    # pair is {x, y} through the off-diagonal minor; critical set x = 0,
    # y = -z^2, residual z^3
    f = jet_from_poly(QQ, ("x", "y", "z"), 8,
                      {(1, 1, 0): 1, (1, 0, 2): 1, (0, 0, 3): 1})
    r = splitting_reduce(f)
    assert r.rank == 2 and r.residual_vars == ("z",)
    assert r.residual.coeffs == {(3,): 1}
    assert r.residual.order == f.order


def test_splitting_D4_residual_cubic():
    # x^2 + 2xy^2 + y^3 + z^3: the critical set is x = -y^2, residual
    # y^3 - y^4 + z^3, whose cubic part has no repeated factor
    f = jet_from_poly(QQ, ("x", "y", "z"), 8,
                      {(2, 0, 0): 1, (1, 2, 0): 2, (0, 3, 0): 1, (0, 0, 3): 1})
    r = splitting_reduce(f)
    assert r.rank == 1 and r.residual_vars == ("y", "z")
    assert r.residual.coeffs == {(3, 0): 1, (4, 0): -1, (0, 3): 1}
    assert r.residual.order == f.order
    cubic = [r.residual.coefficient((3 - k, k)) for k in range(4)]
    derivative = [k * c for k, c in enumerate(cubic)][1:]
    assert len(pgcd(cubic, derivative)) == 1


def test_splitting_residual_exact_to_truncation_order():
    # x^2 + 2x g(y) + y^3 with g = y^2 + ... + y^7: the critical set is
    # x = -g, reached only through degree 7, and the residual y^3 - g^2
    # must be exact through degree 8 although phi is solved to order 4
    g = {(1, k): 2 for k in range(2, 8)}
    f = jet_from_poly(QQ, ("x", "y"), 8, {(2, 0): 1, (0, 3): 1, **g})
    r = splitting_reduce(f)
    assert r.rank == 1 and r.residual.order == 8
    assert r.residual.coeffs == {(3,): 1, (4,): -1, (5,): -2, (6,): -3,
                                 (7,): -4, (8,): -5}


def test_splitting_over_quadratic_extension():
    # (x + sqrt2 y)^2 + sqrt2 y^3: critical set x = -sqrt2 y
    K = QuadraticExtension(2)
    r2 = K.sqrt_gen
    f = jet_from_poly(K, ("x", "y"), 8,
                      {(2, 0): 1, (1, 1): 2 * r2, (0, 2): 2, (0, 3): r2})
    r = splitting_reduce(f)
    assert r.rank == 1 and r.residual_vars == ("y",)
    assert r.residual.coeffs == {(3,): r2}
    assert r.residual.order == f.order


def test_splitting_needs_order_three():
    # at order 2 the derivatives are known only to order 1, too little to
    # solve for the critical set; a nondegenerate germ needs no solve
    with pytest.raises(OrderTooSmall, match="order 2 < 3"):
        splitting_reduce(jet_from_poly(QQ, ("x", "y"), 2, {(2, 0): 1}))
    morse = jet_from_poly(QQ, ("x", "y"), 2, {(2, 0): 1, (1, 1): 1})
    assert splitting_reduce(morse).rank == 2


def test_square_oracle_resultant():
    """Oracle: vanishing-order of Res_y(h, h_y) separates the germ types."""
    x, y = sympy.symbols("x y")
    for expr, order in ((y ** 2 - x ** 3, 3), (y ** 2 - x ** 2, 2),
                        (y ** 2 - x ** 4, 4)):
        res = sympy.resultant(expr, sympy.diff(expr, y), y)
        poly = sympy.Poly(res, x)
        assert min(sum(m) for m in poly.monoms()) == order
    sq = sympy.expand((y + x ** 2) ** 2)
    assert sympy.resultant(sq, sympy.diff(sq, y), y) == 0


# --------------------------------------------------------------------------
# any number of equations, and the integer path over Q against the generic one


def test_hensel_three_equations_explicit_solution():
    """u, v, w = phi(x) is the only solution of three equations built from
    D = (u - phi_1, v - phi_2, w - phi_3) with a dense Jacobian at 0."""
    N = 6
    x = Jet.variable(QQ, V4, N, "x")
    phis = [x + 2 * x * x, -(x * x) + x * x * x * F(1, 3), 3 * x - x ** 3]
    D = [Jet.variable(QQ, V4, N, v) - p for v, p in zip(V4[1:], phis)]
    eqs = [D[0] + 2 * D[1] - D[2] + D[0] * D[1] + x * D[2],
           D[1] + D[2] * (1 + x) + D[0] * D[0],
           2 * D[0] - D[2] + x * D[1] * D[2]]
    sol = hensel_solve(eqs, V4[1:])
    for got, phi in zip(sol, phis):
        assert got.vars == ("x",) and got.order == N
        assert got.coeffs == {e[:1]: c for e, c in phi.coeffs.items()}


def test_splitting_four_variables_hessian_rank_three():
    """f = u^T S u + (b . u) t^2 + t^3 with S nonsingular has the critical
    set u = -S^-1 b t^2 / 2 and the residual t^3 - (b^T S^-1 b / 4) t^4."""
    N = 8
    S = [[1, F(1, 2), 0], [F(1, 2), 1, F(1, 2)], [0, F(1, 2), 2]]
    f = jet_from_poly(QQ, V4, N, {
        (2, 0, 0, 0): 1, (1, 1, 0, 0): 1, (0, 2, 0, 0): 1, (0, 1, 1, 0): 1,
        (0, 0, 2, 0): 2, (1, 0, 0, 2): 1, (0, 1, 0, 2): 1, (0, 0, 1, 2): 1,
        (0, 0, 0, 3): 1})
    Sinv = sympy.Matrix(S).inv()
    c = sum(Sinv)
    split = splitting_reduce(f)
    assert split.rank == 3 and split.residual_vars == ("w",)
    assert split.residual.coeffs == {(3,): 1,
                                     (4,): -F(int(c.p), int(c.q)) / 4}
    assert c != 0


K2 = QuadraticExtension(2)


def _into_sqrt2(jet):
    return jet.map_coefficients(K2, K2.coerce)


def _back_to_q(jet):
    return jet.map_coefficients(QQ, QQ.coerce)


def _random_system(rng, n, order):
    """n equations in 4 - n base and n solve variables (the last ones),
    vanishing at 0, with a random invertible linear part in the solve
    variables and random rational terms of degree 1 to ``order`` in all."""
    draw = _field_sampler("Q")[1]
    while True:
        J = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if sympy.Matrix(J).det():
            break
    eqs = []
    for i in range(n):
        f = _random_jet(QQ, draw, rng, V4, order, low=2)
        linear = {tuple(int(k == 4 - n + j) for k in range(4)): J[i][j]
                  for j in range(n)}
        linear[(1, 0, 0, 0)] = draw(rng)
        eqs.append(f + Jet(QQ, V4, order, linear))
    return eqs, V4[4 - n:]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hensel_over_q_matches_generic_loop(n, rng):
    for _ in range(3):
        eqs, solve_vars = _random_system(rng, n, 5)
        got = hensel_solve(eqs, solve_vars)
        generic = hensel_solve([_into_sqrt2(e) for e in eqs], solve_vars)
        assert [g.coeffs for g in got] == \
            [_back_to_q(g).coeffs for g in generic]
        assert all(type(c) is F for g in got for c in g.coeffs.values())


def test_substitute_over_q_matches_generic_loop(rng):
    draw = _field_sampler("Q")[1]
    for _ in range(5):
        f = _random_jet(QQ, draw, rng, ("x", "y", "z"), 5)
        images = {"x": Jet.variable(QQ, ("x", "t"), 5, "x"),
                  "y": _random_jet(QQ, draw, rng, ("x", "t"), 5, low=1),
                  "z": _random_jet(QQ, draw, rng, ("x", "t"), 4)}
        got = f.substitute(images)
        generic = _into_sqrt2(f).substitute(
            {v: _into_sqrt2(g) for v, g in images.items()})
        assert got.order == generic.order == 4
        assert got.coeffs == _back_to_q(generic).coeffs


def test_germs_over_q_match_generic_loop(census_congruences):
    """exact_germ, and splitting_reduce on it at orders 3, 6 and 12, at the
    rational singular points of the census surfaces (the default forms and
    random.Random(1) copies of [5], [11111] and [11(12)]), against the same
    computations at the point taken into Q(sqrt 2)."""
    from segrecusp.pencil import default_instance
    from segrecusp.surface import ProjectivePoint, SurfaceInstance, exact_germ

    points = 0
    for symbol in ("[5]", "[11111]", "[11(12)]"):
        form = default_instance(symbol)
        for pencil in (form, form.congruent(census_congruences[symbol])):
            surface = SurfaceInstance(pencil)
            for p in surface.singular_points():
                if p.field != QQ:
                    continue
                points += 1
                germ = exact_germ(surface, p)
                generic = exact_germ(surface, ProjectivePoint.make(K2, p.coords))
                assert germ.coeffs == _back_to_q(generic).coeffs
                for order in (3, 6, 12):
                    split = splitting_reduce(germ.truncate(order))
                    split2 = splitting_reduce(generic.truncate(order))
                    assert split.rank == split2.rank
                    assert split.residual_vars == split2.residual_vars
                    assert split.residual.coeffs == \
                        _back_to_q(split2.residual).coeffs
    assert points == 4


def _evaluate(f, w):
    """The polynomial of a jet at the point w."""
    out = f.field.zero
    for e, c in f.coeffs.items():
        for x, n in zip(w, e):
            c = c * x ** n
        out = out + c
    return out


def test_exact_germ_is_the_surface_on_its_chart(census_congruences):
    """At every singular point of the 16 default forms, their random.Random(1)
    copies and the diagonal [1(11)(11)] pencil (points over Q(sqrt -1)), and
    at a few rational w in W: x = p + u v1 + w with u = -M(w, w)/2 lies on the
    smooth member M, and the other quadric O has O(x) = f(w) exactly.  The
    germ is a polynomial of degree <= 4: truncated at 4 it is f at 8."""
    from segrecusp.linalg import gram_matrix
    from segrecusp.pencil import TABLE1_SYMBOLS, QuadricPencil, default_instance
    from segrecusp.surface import SurfaceInstance, _isotropic_chart, exact_germ

    def diag(*entries):
        return [[F(x) if i == j else F(0) for j in range(5)]
                for i, x in enumerate(entries)]

    pencils = []
    for symbol in map(str, TABLE1_SYMBOLS):
        form = default_instance(symbol)
        pencils += [form, form.congruent(census_congruences[symbol])]
    pencils.append(QuadricPencil(diag(1, 1, 1, 1, 1), diag(1, 1, 2, 2, 3)))
    ws = [(1, 0, 0), (0, 1, -2), (3, -1, 2), (F(1, 2), F(-2, 3), 5)]
    fields = []
    for pencil in pencils:
        surface = SurfaceInstance(pencil)
        for p in surface.singular_points():
            field = p.field
            k, (p0, v1, *W) = _isotropic_chart(surface, p)
            M, O = pencil.coerced(field)[k], pencil.coerced(field)[1 - k]
            f = exact_germ(surface, p)
            assert f.truncate(4).coeffs == f.truncate(8).coeffs
            for w in ws:
                w = [field.coerce(c) for c in w]
                wv = [sum(c * b[j] for c, b in zip(w, W)) for j in range(5)]
                u = -gram_matrix(field, M, [wv])[0][0] / 2
                x = [a + u * b + c for a, b, c in zip(p0, v1, wv)]
                assert not gram_matrix(field, M, [x])[0][0]
                assert gram_matrix(field, O, [x])[0][0] == _evaluate(f, w)
            fields.append(field)
    assert len(fields) == 60
    assert QuadraticExtension(-1) in fields


def test_germ_built_once_per_point(monkeypatch):
    """The default [5]'s A4 is not settled at order 3: the germ is built
    once and only classify_germ runs again, at orders 3 and 6."""
    from segrecusp import surface as surface_module
    from segrecusp.pencil import default_instance

    built, orders = [], []
    exact_germ = surface_module.exact_germ
    classify_germ = surface_module.classify_germ
    monkeypatch.setattr(surface_module, "exact_germ",
                        lambda s, p: built.append(p) or exact_germ(s, p))
    monkeypatch.setattr(surface_module, "classify_germ",
                        lambda f: orders.append(f.order) or classify_germ(f))
    surface = surface_module.SurfaceInstance(default_instance("[5]"))
    assert surface.singularity_multiset() == ["A4"]
    assert len(built) == 1 and orders == [3, 6]

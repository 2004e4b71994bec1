"""Jet arithmetic, Newton lifting, vanishing orders, squares, splitting.

Expected values tagged as derived in the design notes are recomputed here
through independent routes (sympy substitution, resultants) before being
asserted against the jet pipeline.
"""

import random
from fractions import Fraction as F

import pytest
import sympy

from segrecusp.errors import (OrderTooSmall, SingularJacobian,
                              TruncationInsufficient)
from segrecusp.fields import QQ, QuadraticExtension, RationalFunctions, pgcd
from segrecusp.jets import (MAX_ORDER, START_ORDER, InfiniteOrder, Jet,
                            escalate, hensel_solve_pair, jet_from_poly,
                            splitting_reduce, try_extract_square, y_order)

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
    Fj, Gj = hensel_solve_pair(q1, q2, ("z", "w"))
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
    Fj, Gj = hensel_solve_pair(q1, q2, ("z", "w"))
    assert Fj.coeffs == {(2,): Kx.coerce(F(a - c, b - a)) / x}
    assert Gj.coeffs == {(2,): Kx.coerce(F(c - b, b - a))}


def test_hensel_errors():
    q1 = poly4(4, {(0, 0, 0, 0): 1, (0, 0, 1, 0): 1})
    q2 = poly4(4, {(0, 0, 0, 1): 1})
    with pytest.raises(SingularJacobian):
        hensel_solve_pair(q1, q2, ("z", "w"))
    q1 = poly4(4, {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1})  # rank-1 Jacobian block
    q2 = poly4(4, {(0, 0, 1, 0): 2, (0, 0, 0, 1): 2})
    with pytest.raises(SingularJacobian):
        hensel_solve_pair(q1, q2, ("z", "w"))
    with pytest.raises(OrderTooSmall):
        hensel_solve_pair(poly4(1, {(0, 0, 1, 0): 1}),
                          poly4(1, {(0, 0, 0, 1): 1}), ("z", "w"), order=1)


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
        Fj, Gj = hensel_solve_pair(q1, q2, ("z", "w"))
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
    F2, G2 = hensel_solve_pair(q1, q2, ("z", "w"), order=N + 2)
    F1, G1 = hensel_solve_pair(q1.truncate(N), q2.truncate(N), ("z", "w"),
                               order=N)
    assert F2.truncate(N).coeffs == F1.coeffs
    assert G2.truncate(N).coeffs == G1.coeffs


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


def test_try_extract_square():
    f = jet_from_poly(QQ, ("x", "y"), 8, {(0, 1): 1, (2, 0): 1})
    res = try_extract_square(f * f)
    assert res is not None
    u, s = res
    assert u.constant_term() == 1 and s.coeffs == f.coeffs
    cusp = jet_from_poly(QQ, ("x", "y"), 8, {(0, 2): 1, (3, 0): -1})
    assert try_extract_square(cusp) is None
    tac = jet_from_poly(QQ, ("x", "y"), 8, {(0, 2): 1, (4, 0): -1})
    assert try_extract_square(tac) is None
    # unit times square with a nontrivial unit
    unit = jet_from_poly(QQ, ("x", "y"), 8, {(0, 0): 2, (1, 0): 1})
    res = try_extract_square(unit * f * f)
    assert res is not None
    u, s = res
    assert ((u * s * s) - (unit * f * f)).is_zero()


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
    g = jet_from_poly(QQ, ("x", "y", "z"), 8, {(0, 0, 4): 2, (0, 3, 0): 1,
                                               (0, 1, 3): -1})
    f = jet_from_poly(QQ, ("x", "y", "z"), 8, {(2, 0, 0): 1}) + g
    r = splitting_reduce(f)
    assert r.rank == 1
    assert r.residual.coeffs == g.drop_vars(["x"]).coeffs


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

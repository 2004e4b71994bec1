import random
from fractions import Fraction as F

import pytest

from segrecusp.errors import FieldError, RootFieldUnsupported, TowerUnsupported
from segrecusp.fields import (QQ, QuadraticExtension, RatFuncElem,
                              RationalFunctions, field_with_sqrt,
                              fraction_sqrt, padd, parse_rational, pderiv,
                              pdivmod, pgcd, pmul, quadext_sqrt,
                              quadratic_roots, squarefree_split)


def test_parse_and_format_rationals():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational(-2) == F(-2)
    assert QQ.fmt(F(5, 3)) == "5/3"
    assert QQ.fmt(F(7)) == "7"
    with pytest.raises(FieldError):
        parse_rational(0.5)


@pytest.mark.parametrize("value", [True, False])
def test_parse_rational_rejects_booleans(value):
    with pytest.raises(FieldError):
        parse_rational(value)


def test_fraction_sqrt_and_squarefree():
    assert fraction_sqrt(F(49, 9)) == F(7, 3)
    assert fraction_sqrt(F(2)) is None
    d, r = squarefree_split(F(18))
    assert d == 2 and r * r * d == 18
    d, r = squarefree_split(F(-4, 9))
    assert d == -1 and r * r * d == F(-4, 9)


def test_field_with_sqrt_routes():
    fld, root = field_with_sqrt(F(25, 4))
    assert fld == QQ and root == F(5, 2)
    fld, root = field_with_sqrt(F(-3))
    assert isinstance(fld, QuadraticExtension) and fld.d == -3
    assert root * root == -3


def test_quadratic_roots_fields_and_multiplicities():
    # (u - 2v)(u + 3v): two rational roots
    assert quadratic_roots(F(1), F(1), F(-6)) == [
        (QQ, (F(1), F(1, 2)), 1), (QQ, (F(1), F(-1, 3)), 1)]
    assert quadratic_roots(F(1), F(-4), F(4)) == [(QQ, (F(1), F(1, 2)), 2)]
    # a = 0: the root (1 : 0), double when b = 0 too
    assert quadratic_roots(F(0), F(2), F(3)) == [
        (QQ, (F(1), F(0)), 1), (QQ, (F(1), F(-2, 3)), 1)]
    assert quadratic_roots(F(0), F(0), F(5)) == [(QQ, (F(1), F(0)), 2)]
    assert quadratic_roots(F(0), F(0), F(0)) is None
    # u^2 - 2v^2 over Q needs sqrt(2); inside Q(sqrt(2)) it splits there
    E = QuadraticExtension(2)
    roots = quadratic_roots(F(1), F(0), F(-2))
    assert [fld for fld, _, _ in roots] == [E, E]
    for _, (u, v), mult in roots:
        assert mult == 1 and u * u - 2 * v * v == 0
    assert quadratic_roots(E.one, E.zero, E.coerce(-2), E)[0][0] == E
    # u^2 - (1 + sqrt(2)) v^2 would need a second extension
    with pytest.raises(RootFieldUnsupported):
        quadratic_roots(E.one, E.zero, -(1 + E.sqrt_gen), E)


def test_quadratic_extension_arithmetic():
    E = QuadraticExtension(5)
    r = E.sqrt_gen
    x = 2 + 3 * r
    assert x * x == 49 + 12 * r
    assert (x / x) == 1
    assert (1 / x) * x == E.one
    with pytest.raises(TowerUnsupported):
        _ = x + QuadraticExtension(7).sqrt_gen
    with pytest.raises(FieldError):
        QuadraticExtension(9)


def test_quadext_sqrt():
    E = QuadraticExtension(2)
    r = E.sqrt_gen
    v = (3 + r) * (3 + r)
    assert quadext_sqrt(v) in ((3 + r), -(3 + r))
    assert quadext_sqrt(E.coerce(2)) == r or quadext_sqrt(E.coerce(2)) == -r
    assert quadext_sqrt(1 + r) is None


def test_rational_functions_reduce_and_derive():
    K = RationalFunctions("x")
    x = K.gen
    e = (x * x * x - x) / (x * x - 1)
    assert e == x
    q = 1 / (x - 1)
    dq = K.derivative(q)
    assert dq == -1 / ((x - 1) * (x - 1))
    assert K.coerce("2/3") == RatFuncElem.make([F(2, 3)])
    with pytest.raises(TowerUnsupported):
        K.coerce(QuadraticExtension(2).sqrt_gen)


def test_polynomial_gcd_random_products(rng=random.Random(7)):
    r2 = QuadraticExtension(2).sqrt_gen
    # coefficients in Q, then in Q(sqrt 2); the gcd's inputs carry 0-2
    # trailing zeros, which it must ignore
    for coeff in (F, lambda n: n + rng.randint(-2, 2) * r2):
        zero = coeff(0) * 0
        for _ in range(25):
            a = tuple(coeff(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))) + (F(1),)
            b = tuple(coeff(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))) + (F(1),)
            c = tuple(coeff(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))) + (F(1),)
            ac, bc = pmul(a, c), pmul(b, c)
            g = pgcd(ac + (zero,) * rng.randint(0, 2),
                     bc + (zero,) * rng.randint(0, 2))
            # a monic common divisor of both products, divisible by c,
            # whose cofactors are coprime
            assert g[-1] == 1
            (u, ru), (v, rv) = pdivmod(ac, g), pdivmod(bc, g)
            assert not ru and not rv
            assert pgcd(u, v) == (1,)
            q, r = pdivmod(g, c)
            assert not r


def _trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def _euclid_gcd(a, b):
    """The reference gcd: Euclid's algorithm with pdivmod, made monic."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, pdivmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def _schoolbook_mul(a, b):
    """The reference product: the schoolbook loop over Fractions."""
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _random_poly(rng, degree):
    return tuple(F(rng.randint(-9, 9), rng.randint(1, 6))
                 for _ in range(degree)) + (F(rng.randint(1, 9), rng.randint(1, 6)),)


def test_rational_gcd_and_product_match_reference_loops(rng=random.Random(11)):
    # the integer kernels over Q against Euclid over Q and the schoolbook
    # product, on products with a common factor, 0-2 trailing zeros, a
    # constant argument and a zero argument
    for _ in range(60):
        a, b, c = (_random_poly(rng, rng.randint(0, 4)) for _ in range(3))
        ac, bc = pmul(a, c), pmul(b, c)
        assert ac == _schoolbook_mul(a, c) and bc == _schoolbook_mul(b, c)
        pad = (F(0),) * rng.randint(0, 2)
        assert pmul(a + pad, c) == ac
        for x, y in ((ac + pad, bc), (ac, bc + pad), (ac, c), (ac, (F(-3, 7),)),
                     ((F(5),) + pad, bc), (ac, ()), ((), bc + pad)):
            assert pgcd(x, y) == _euclid_gcd(x, y), (x, y)
        assert pgcd(ac, (F(2),)) == (F(1),)
    assert pgcd((), ()) == () and pgcd((F(0),), ()) == ()
    assert pmul((), (F(1),)) == () and pmul((F(0),), (F(2), F(1))) == ()
    # int coefficients are rationals too
    assert pmul((1, 2), (F(1, 2), 3)) == (F(1, 2), F(4), F(6))


def test_polynomial_fast_paths_match_reduced_make(rng=random.Random(12)):
    # sums, products and derivatives of two polynomials, and a constant
    # denominator, against make of the pair multiplied by a common factor h,
    # which make must cancel with a gcd
    for _ in range(40):
        p, q, h = (_random_poly(rng, rng.randint(0, 4)) for _ in range(3))
        h = h + (F(1),)                        # degree at least 1
        P, Q = RatFuncElem.make(p), RatFuncElem.make(q)
        assert P.den == Q.den == (F(1),)
        assert P + Q == RatFuncElem.make(pmul(padd(p, q), h), h)
        assert P - P == RatFuncElem.make((), h)
        assert P * Q == RatFuncElem.make(pmul(pmul(p, q), h), h)
        assert P.derivative() == RatFuncElem.make(pmul(pderiv(p), h), h)
        for d in ((F(2),), (F(-3, 4),), (F(1),)):
            assert RatFuncElem.make(p, d) == RatFuncElem.make(pmul(p, h),
                                                             pmul(d, h))
    half = RatFuncElem.make((F(1), F(3)), (F(2),))
    assert (half.num, half.den) == ((F(1, 2), F(3, 2)), (F(1),))


def _long_division(a, b):
    """The reference division: the long-division loop over Fractions."""
    a, b = _trim(a), _trim(b)
    q = [F(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1] / b[-1]
        if c:
            q[k] = c
            for j, cb in enumerate(b):
                r[k + j] -= c * cb
    return _trim(q), _trim(r)


def test_rational_division_matches_long_division(rng=random.Random(13)):
    # the integer pseudo-division over Q against the Fraction loop, on
    # non-exact and exact divisions, untrimmed operands, constant divisors,
    # dividends shorter than the divisor and a zero dividend
    exact = 0
    for _ in range(80):
        a, b = (_random_poly(rng, rng.randint(0, 6)) for _ in range(2))
        pad = (F(0),) * rng.randint(0, 2)
        for x, y in ((a, b), (a + pad, b + pad), (pmul(a, b), b),
                     (a, (F(rng.randint(1, 9), rng.randint(1, 6)),)),
                     (b[:2], a), ((), b), ((2, 0, 1), b)):
            q, r = pdivmod(x, y)
            assert (q, r) == _long_division(x, y), (x, y)
            assert all(type(c) is F for c in q + r)
            exact += not r and bool(x)
    assert exact >= 80
    with pytest.raises(ZeroDivisionError):
        pdivmod((F(1),), (F(0),))

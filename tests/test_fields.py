import random
from fractions import Fraction as F

import pytest

from segrecusp.errors import FieldError, RootFieldUnsupported, TowerUnsupported
from segrecusp.fields import (QQ, QuadraticExtension, RatFuncElem,
                              RationalFunctions, field_with_sqrt,
                              fraction_sqrt, parse_rational, pdivmod, pgcd, pmul,
                              quadext_sqrt, quadratic_roots,
                              squarefree_split)


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
            # a monic common divisor of both products, divisible by c
            assert g[-1] == 1
            assert not pdivmod(ac, g)[1] and not pdivmod(bc, g)[1]
            q, r = pdivmod(g, c)
            assert not r

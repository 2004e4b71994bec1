import math
import random
from fractions import Fraction as F

import pytest
import sympy

from segrecusp.errors import FieldError, RootFieldUnsupported, TowerUnsupported
from segrecusp.fields import (QQ, QuadExtElem, QuadraticExtension,
                              RatFuncElem, RationalFunctions, field_with_sqrt,
                              fraction_sqrt, padd, parse_rational, pderiv,
                              pdivmod, pgcd, pmul, pstr, quadext_sqrt,
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


def _reference_squarefree_split(q):
    """The squarefree split by sympy's complete factorization."""
    n = q.numerator * q.denominator
    d, root = (-1 if n < 0 else 1), 1
    for p, e in sympy.factorint(abs(n)).items():
        d, root = d * p ** (e % 2), root * p ** (e // 2)
    return d, F(root, q.denominator)


SMALL_PRIMES = list(sympy.primerange(2, 10 ** 4))


def _prime(rng, low, high):
    return sympy.nextprime(rng.randint(low, high))


def _random_rational(rng, digits):
    """A rational whose numerator times denominator has at most ``digits``
    digits, from random prime powers: small primes to random powers, and
    at most one prime or prime square above the trial bound, each put in
    the numerator or the denominator."""
    while True:
        low, high, e = rng.choice([(1, 1, 1), (10 ** 4, 10 ** 8, 1),
                                   (10 ** 8, 10 ** 20, 1),
                                   (10 ** 4, 10 ** 30, 2)])
        powers = [_prime(rng, low, high) ** e if high > 1 else 1]
        size = rng.randint(1, digits)
        while len(str(math.prod(powers))) < size:
            powers.append(rng.choice(SMALL_PRIMES) ** rng.randint(1, 5))
        if len(str(math.prod(powers))) <= digits:
            num = den = 1
            for p in set(powers):
                if rng.random() < 0.5:
                    num *= p
                else:
                    den *= p
            return F(rng.choice((1, -1)) * num, den)


def test_squarefree_split_matches_factorint(monkeypatch,
                                            rng=random.Random(37)):
    # a 73-digit Hessian discriminant of the trichotomy's point cases;
    # products p q**2 and p q of primes above the trial bound, which reach
    # sympy; and squares q**2 of such primes, which do not
    values = [F(-1580411199833465902074974464638976,
                3540789743001134628525974939620012005625)]
    values += [F(rng.choice((1, -1)) * _prime(rng, 10 ** 4, 10 ** 6)
                 * _prime(rng, 10 ** 4, 10 ** 6) ** 2) for _ in range(20)]
    values += [F(_prime(rng, 10 ** 4, 10 ** 6) ** 2, rng.choice(SMALL_PRIMES))
               for _ in range(20)]
    values += [F(_prime(rng, 10 ** 4, 10 ** 6) * _prime(rng, 10 ** 4, 10 ** 6))
               for _ in range(20)]
    values += [_random_rational(rng, 75) for _ in range(2000)]
    wants = [_reference_squarefree_split(q) for q in values]
    factored = []
    real = sympy.factorint

    def recorded(n, *args, **kwargs):
        factored.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(sympy, "factorint", recorded)
    for q, want in zip(values, wants):
        assert squarefree_split(q) == want, q
    # only a cofactor above bound**2 that is not a square reaches sympy:
    # the 40 products, then some of the random values
    assert factored[:40] == [abs(q.numerator)
                             for q in values[1:21] + values[41:61]]
    assert len(factored) > 40
    assert all(n >= 10 ** 8 and math.isqrt(n) ** 2 != n for n in factored)
    with pytest.raises(FieldError):
        squarefree_split(F(0))


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
    # the gcd and product over Q against Euclid over Q and the schoolbook
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
    # the division over Q against the Fraction loop, on non-exact and exact
    # divisions, untrimmed operands, constant divisors, dividends shorter
    # than the divisor, a zero dividend and int coefficients
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


# The Fraction-tuple Q(x) element that the integer RatFuncElem replaced,
# kept as the reference: a reduced fraction over Q with monic denominator,
# reduced with Euclid's gcd, long division and the schoolbook product above.

_ONE = (F(1),)


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def _monicize(num, den):
    if not num:
        return (), _ONE
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


class _RefRatFunc:
    def __init__(self, num, den):
        self.num, self.den = num, den

    @staticmethod
    def make(num, den=_ONE):
        num, den = _trim(F(c) for c in num), _trim(F(c) for c in den)
        if not num:
            return _RefRatFunc((), _ONE)
        g = _euclid_gcd(num, den)
        num, den = _long_division(num, g)[0], _long_division(den, g)[0]
        return _RefRatFunc(*_monicize(num, den))

    @staticmethod
    def _lift(other):
        if isinstance(other, _RefRatFunc):
            return other
        return _RefRatFunc((F(other),) if other else (), _ONE)

    def __add__(self, other):
        o = self._lift(other)
        if not self.num:
            return o
        if not o.num:
            return self
        g0 = _euclid_gcd(self.den, o.den)
        b1, d1 = _long_division(self.den, g0)[0], _long_division(o.den, g0)[0]
        t = _padd(_schoolbook_mul(self.num, d1), _schoolbook_mul(o.num, b1))
        if not t:
            return _RefRatFunc((), _ONE)
        g1 = _euclid_gcd(t, g0)
        t, g0 = _long_division(t, g1)[0], _long_division(g0, g1)[0]
        return _RefRatFunc(*_monicize(
            t, _schoolbook_mul(_schoolbook_mul(b1, d1), g0)))

    __radd__ = __add__

    def __neg__(self):
        return _RefRatFunc(tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if not self.num or not o.num:
            return _RefRatFunc((), _ONE)
        a, b, c, d = self.num, self.den, o.num, o.den
        g1, g2 = _euclid_gcd(a, d), _euclid_gcd(c, b)
        a, d = _long_division(a, g1)[0], _long_division(d, g1)[0]
        c, b = _long_division(c, g2)[0], _long_division(b, g2)[0]
        return _RefRatFunc(*_monicize(_schoolbook_mul(a, c),
                                      _schoolbook_mul(b, d)))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("zero rational function")
        return _RefRatFunc.make(self.den, self.num)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        out = _RefRatFunc(_ONE, _ONE)
        for _ in range(abs(n)):
            out = out * base
        return out

    def derivative(self):
        n = _padd(_schoolbook_mul(pderiv(self.num), self.den),
                  tuple(-c for c in _schoolbook_mul(self.num, pderiv(self.den))))
        return _RefRatFunc.make(n, _schoolbook_mul(self.den, self.den))

    def __repr__(self):
        if self.den == _ONE:
            return pstr(self.num)
        return f"({pstr(self.num)})/({pstr(self.den)})"


def _canonical_invariants(e):
    n, d = e.n, e.d
    assert type(n) is tuple and type(d) is tuple
    assert all(type(c) is int for c in n + d)
    assert d and d[-1] > 0 and (not n or n[-1])
    if not n:
        assert d == (1,)
        return
    assert math.gcd(*n, *d) == 1
    a, b = tuple(map(F, n)), tuple(map(F, d))   # Euclid over Q: coprime
    while b:
        a, b = b, _long_division(a, b)[1]
    assert len(a) == 1


def _agree(e, ref):
    _canonical_invariants(e)
    assert (e.num, e.den) == (ref.num, ref.den)
    assert all(type(c) is F for c in e.num + e.den)
    assert repr(e) == repr(ref)


def _random_ratfunc(rng):
    """A random pair with a common factor h and a common integer k, so make
    has to cancel both; sometimes a polynomial, a constant or zero."""
    p = _random_poly(rng, rng.randint(0, 3)) if rng.random() > 0.1 else ()
    p = tuple(-c for c in p) if rng.random() < 0.5 else p
    q = _random_poly(rng, rng.choice((0, 0, 1, 2, 3)))
    h = _random_poly(rng, rng.randint(0, 2))
    k = rng.choice((1, -1, 6, F(-5, 3)))
    num = tuple(k * c for c in _schoolbook_mul(p, h))
    den = tuple(k * c for c in _schoolbook_mul(q, h))
    # int coefficients where they are whole, Fractions elsewhere
    num = tuple(int(c) if c.denominator == 1 and rng.random() < 0.5 else c
                for c in num)
    return RatFuncElem.make(num, den), _RefRatFunc.make(num, den)


def test_integer_ratfunc_matches_fraction_reference(rng=random.Random(19)):
    # every operation of the integer Q(x) element against the Fraction-tuple
    # class it replaced, with operands that share factors, polynomial and
    # constant operands, zero, and int and Fraction scalars on either side
    for _ in range(150):
        (x, rx), (y, ry), (z, rz) = (_random_ratfunc(rng) for _ in range(3))
        for e, ref in ((x, rx), (y, ry)):
            _agree(e, ref)
        s = rng.choice((0, 1, -2, 7, F(0), F(3, 4), F(-5, 6)))
        cases = [(x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                 (x - x, rx - rx), (x * y + z, rx * ry + rz),
                 ((x + z) * (y - z), (rx + rz) * (ry - rz)),
                 (x + s, rx + s), (s - x, s - rx), (x * s, rx * s),
                 (s * y, s * ry), (x.derivative(), rx.derivative()),
                 (x ** 0, rx ** 0)]
        for k in (1, 2, 3):
            cases.append((x ** k, rx ** k))
        # sums and products whose cross gcds cancel: y - x shares the
        # denominator of x, and y / x has the numerator of x below
        cases += [(x + (y - x), ry), (x + (y - x), rx + (ry - rx)),
                  ((x + y) - (y + z), rx + (-rz))]
        if x:
            cases += [(x.inverse(), rx.inverse()), (y / x, ry / rx),
                      (s / x, s / rx), (x ** -2, rx ** -2),
                      (x * (y / x), ry), (x * (y / x), rx * (ry / rx)),
                      ((y / x) * (z * x), ry * rz)]
        if s:
            cases.append((x / s, rx / s))
        for e, ref in cases:
            _agree(e, ref)
            assert e == RatFuncElem.make(ref.num, ref.den)
    zero = RatFuncElem.make(())
    with pytest.raises(ZeroDivisionError):
        zero.inverse()
    with pytest.raises(ZeroDivisionError):
        _ = zero ** -1
    with pytest.raises(ZeroDivisionError):
        RatFuncElem.make((F(1),), (0, F(0)))


def test_ratfunc_constants_compare_and_hash_as_fractions(rng=random.Random(20)):
    K = RationalFunctions("x")
    for _ in range(100):
        c = F(rng.randint(-30, 30), rng.randint(1, 12))
        k = rng.choice((1, 2, -3, F(2, 7)))
        e = RatFuncElem.make((k * c,), (k,))
        _canonical_invariants(e)
        assert e == c and c == e and e == K.coerce(c)
        assert hash(e) == hash(c)
        if c.denominator == 1:
            assert e == int(c) and hash(e) == hash(int(c))
        assert e != c + 1 and e != K.gen
        assert len({e, c, K.coerce(c)}) == 1
    assert K.zero == 0 and hash(K.zero) == hash(0) and not K.zero
    assert (K.zero.n, K.zero.d) == ((), (1,))
    assert K.one == 1 and K.gen != 1 and K.gen * K.gen.inverse() == 1


def test_gcd_with_zero_of_integer_polynomial_is_rational():
    # a zero argument on either side returns the other one monic, over Q
    for args in (((2, 4), ()), ((), (3, 6)), ((F(2), 4), ())):
        g = pgcd(*args)
        assert g == (F(1, 2), F(1)) and all(type(c) is F for c in g)
    assert pgcd((), (5,)) == (F(1),) and type(pgcd((), (5,))[0]) is F


def test_quadratic_roots_of_int_coefficients_are_fractions():
    # int coefficients are taken into the field before any division, on
    # the a = 0 and double-root branches too
    assert quadratic_roots(0, 2, 4) == [
        (QQ, (F(1), F(0)), 1), (QQ, (F(1), F(-1, 2)), 1)]
    assert quadratic_roots(1, 2, 1) == [(QQ, (F(1), F(-1)), 2)]
    for a, b, c in ((0, 2, 4), (1, 2, 1), (0, 0, 5), (1, 1, -6)):
        for _, (u, v), _ in quadratic_roots(a, b, c):
            assert type(u) is F and type(v) is F


def test_quadratic_extension_divided_by_an_int_has_fraction_parts():
    # an int divisor is lifted as an int; its inverse is still exact
    K = QuadraticExtension(2)
    for e in (K.sqrt_gen, K.one + K.sqrt_gen, QuadExtElem(3, 1, 2)):
        q = e / 2
        assert q * 2 == e and type(q.a) is F and type(q.b) is F
    assert K.sqrt_gen / 2 == QuadExtElem(F(0), F(1, 2), 2)

"""Exact coefficient domains.

Everything in this package computes over one of three scalar domains:

* the rationals (``fractions.Fraction``),
* one quadratic extension Q(sqrt(d)) with d a squarefree non-square integer,
* the rational function field Q(x) in a single variable.

Towers (e.g. a quadratic extension of Q(x)) are deliberately unsupported:
operations that would need one raise :class:`~segrecusp.errors.TowerUnsupported`.

Dense univariate polynomials live here too; their gcd (:func:`pgcd`) and
division (:func:`pdivmod`) work over any of the three domains and are the
package's only ones.  Over Q, products, divisions and gcds run on integers:
:func:`pmul` convolves the operands scaled by the lcm of their denominators,
:func:`pdivmod` pseudo-divides them, and :func:`pgcd` runs a primitive
pseudo-remainder sequence over Z (Collins, JACM 14, 1967; von zur
Gathen-Gerhard, *Modern Computer Algebra*, ch. 6), which avoids the
coefficient growth of Euclid's algorithm over Q.  Over Q(sqrt(d)) and Q(x),
:func:`pgcd` is Euclid's algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy

from .errors import FieldError, RootFieldUnsupported, TowerUnsupported

Rational = Fraction


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int (not a bool), Fraction or ``"p/q"``."""
    if isinstance(value, bool):
        raise FieldError(f"cannot parse rational from {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise FieldError(f"cannot parse rational from {value!r}")


def fmt_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fraction_sqrt(q: Fraction):
    """Exact square root of a rational, or None if q is not a square."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def squarefree_split(q: Fraction):
    """Write q = r**2 * d with d a squarefree integer; returns (d, r).

    q must be nonzero.  Uses integer factorization, so it is intended for
    the moderate-size discriminants that arise from small-parameter
    instances.
    """
    if q == 0:
        raise FieldError("cannot squarefree-split zero")
    n = q.numerator * q.denominator
    sign = -1 if n < 0 else 1
    d = sign
    root = 1
    for p, e in sympy.factorint(abs(n)).items():
        p, e = int(p), int(e)
        if e % 2:
            d *= p
        root *= p ** (e // 2)
    return d, Fraction(root, q.denominator)


# --------------------------------------------------------------------------
# dense univariate polynomials, represented as tuples of coefficients in
# ascending degree order with no trailing zeros.  pdivmod, pgcd, pmul and
# pmonic work over any of the three fields, which they read from the
# coefficients; the others build RatFuncElem's numerators and denominators
# over Q


_ONE = (Fraction(1),)  # the constant polynomial 1


def _ptrim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def pconst(c) -> tuple:
    c = Fraction(c)
    return (c,) if c else ()


def pdeg(p) -> int:
    return len(p) - 1  # zero polynomial gets degree -1


def padd(a, b):
    n = max(len(a), len(b))
    return _ptrim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n))


def pneg(a):
    return tuple(-c for c in a)


def psub(a, b):
    return padd(a, pneg(b))


def _rational(*polys):
    return all(type(c) is Fraction or type(c) is int for p in polys for c in p)


def _integral(p):
    """Integer coefficients n and the lcm d of the denominators: p = n / d."""
    d = math.lcm(*(c.denominator for c in p))
    return [c.numerator * (d // c.denominator) for c in p], d


def _convolve(a, b, zero):
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def pmul(a, b):
    """Product over any of the three fields; over Q, one integer convolution
    of the operands scaled to integers."""
    if not a or not b:
        return ()
    if _rational(a, b):
        (a, da), (b, db) = _integral(a), _integral(b)
        d = da * db
        return _ptrim(Fraction(c, d) for c in _convolve(a, b, 0))
    return _ptrim(_convolve(a, b, Fraction(0)))


def pdivmod(a, b):
    """Quotient and remainder of a by b over any of the three fields.

    The coefficient field is read from the operands; untrimmed sequences
    are accepted.  Over Q one pseudo-division of the operands scaled to
    integers gives every coefficient as one fraction.
    """
    a, b = _ptrim(a), _ptrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if _rational(a, b):
        (a, da), (b, db) = _integral(a), _integral(b)
        q, r, s = _zdivmod(a, b)  # s * a = q * b + r over Z
        return (tuple(Fraction(c * db, s * da) for c in q),
                tuple(Fraction(c, s * da) for c in r))
    inv = 1 / b[-1]
    q = [inv - inv] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1] * inv
        if c:
            q[k] = c
            for j, cb in enumerate(b):
                r[k + j] -= c * cb
    return _ptrim(q), _ptrim(r)


def pderiv(a):
    return _ptrim(i * c for i, c in enumerate(a) if i >= 1)


def pgcd(a, b):
    """Monic gcd over any of the three fields.

    The coefficient field is read from the operands; untrimmed sequences
    are accepted, and gcd(0, 0) is the zero polynomial ().  Over Q a
    nonzero constant argument gives 1 at once, and otherwise the gcd comes
    from a primitive pseudo-remainder sequence over Z; over Q(sqrt(d)) and
    Q(x) it comes from Euclid's algorithm.
    """
    a, b = _ptrim(a), _ptrim(b)
    if _rational(a, b):
        if a and b:
            return _qgcd(a, b)
        return pmonic(a or b)
    while b:
        if len(a) == 1 or len(b) == 1:
            return (b[-1] / b[-1],)  # a nonzero constant gives 1
        a, b = b, pdivmod(a, b)[1]
    return pmonic(a)


def _primitive(p):
    """An integer polynomial (or row) divided by the gcd of its
    coefficients; a zero one as it is."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _zdivmod(a, b):
    """(q, r, s) with s*a = q*b + r over Z, deg r < deg b and s a nonzero
    integer, for integer coefficient lists with b nonzero and trimmed: each
    step scales the running remainder and quotient by lc(b) / g only,
    g = gcd(lc(b), the remainder's leading coefficient)."""
    r, n, lead = list(a), len(b), b[-1]
    q, s = [0] * max(len(a) - n + 1, 0), 1
    for k in range(len(a) - n, -1, -1):
        c = r.pop()
        if c:
            g = math.gcd(c, lead)
            u, t = lead // g, c // g
            if u != 1:
                r, q, s = [x * u for x in r], [x * u for x in q], s * u
            q[k] = t
            for j in range(n - 1):
                r[k + j] -= t * b[j]
    while r and not r[-1]:
        r.pop()
    return q, r, s


def _qgcd(a, b):
    """Monic gcd of two nonzero polynomials over Q, by a primitive
    pseudo-remainder sequence of the operands scaled to integers."""
    if len(a) == 1 or len(b) == 1:
        return _ONE
    a, b = _primitive(_integral(a)[0]), _primitive(_integral(b)[0])
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _zdivmod(a, b)[1]
        if not r:
            lead = b[-1]
            return tuple(Fraction(c, lead) for c in b)
        if len(r) == 1:
            return _ONE
        a, b = b, _primitive(r)


def pmonic(a):
    if not a:
        return ()
    return tuple(c / a[-1] for c in a)


def pstr(p, var="x"):
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if not c:
            continue
        if i == 0:
            parts.append(fmt_rational(c))
        else:
            head = "" if c == 1 else ("-" if c == -1 else fmt_rational(c) + "*")
            parts.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
    return " + ".join(parts).replace("+ -", "- ")


# --------------------------------------------------------------------------
# elements of Q(sqrt(d))


@dataclass(frozen=True)
class QuadExtElem:
    """``a + b*sqrt(d)`` with rational a, b and squarefree integer d."""

    a: Fraction
    b: Fraction
    d: int

    def _lift(self, other):
        if isinstance(other, QuadExtElem):
            if other.d != self.d:
                raise TowerUnsupported(
                    f"mixing sqrt({self.d}) with sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExtElem(Fraction(other), Fraction(0), self.d)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExtElem(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtElem(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExtElem(self.a * other, self.b * other, self.d)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExtElem(self.a * o.a + self.b * o.b * self.d,
                           self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("zero element of quadratic extension")
        return QuadExtElem(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        out = QuadExtElem(Fraction(1), Fraction(0), self.d)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExtElem):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a or self.b)

    def __repr__(self):
        if not self.b:
            return fmt_rational(self.a)
        s = "" if not self.a else fmt_rational(self.a) + ("+" if self.b > 0 else "")
        return f"{s}{fmt_rational(self.b)}*sqrt({self.d})"


# --------------------------------------------------------------------------
# elements of Q(x)


def _monicize(num, den):
    """Scale a reduced fraction pair so the denominator is monic."""
    if not num:
        return (), _ONE
    lead = den[-1]
    if lead == 1:
        return num, den
    return tuple(c / lead for c in num), tuple(c / lead for c in den)


@dataclass(frozen=True)
class RatFuncElem:
    """Reduced fraction of polynomials over Q; denominator monic and nonzero.

    A sum or product of two polynomials (denominator 1), a constant
    denominator and the derivative of a polynomial need no gcd.
    """

    num: tuple
    den: tuple

    @staticmethod
    def make(num, den=_ONE):
        num, den = _ptrim(Fraction(c) for c in num), _ptrim(Fraction(c) for c in den)
        if not den:
            raise ZeroDivisionError("zero denominator in rational function")
        if not num:
            return RatFuncElem((), _ONE)
        if len(den) == 1:
            c = den[0]
            return RatFuncElem(num if c == 1 else tuple(x / c for x in num), _ONE)
        g = pgcd(num, den)
        if pdeg(g) > 0:
            num, _ = pdivmod(num, g)
            den, _ = pdivmod(den, g)
        lead = den[-1]
        return RatFuncElem(tuple(c / lead for c in num), tuple(c / lead for c in den))

    def _lift(self, other):
        if isinstance(other, RatFuncElem):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFuncElem(pconst(other), _ONE)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not self.num:
            return o
        if not o.num:
            return self
        if self.den == _ONE and o.den == _ONE:
            return RatFuncElem(padd(self.num, o.num), _ONE)
        # Henrici: with both operands reduced, only small gcds are needed
        g0 = pgcd(self.den, o.den)
        if pdeg(g0) == 0:
            num = padd(pmul(self.num, o.den), pmul(o.num, self.den))
            den = pmul(self.den, o.den)
            return RatFuncElem(*_monicize(num, den))
        b1, _ = pdivmod(self.den, g0)
        d1, _ = pdivmod(o.den, g0)
        t = padd(pmul(self.num, d1), pmul(o.num, b1))
        if not t:
            return RatFuncElem((), _ONE)
        g1 = pgcd(t, g0)
        if pdeg(g1) > 0:
            t, _ = pdivmod(t, g1)
            g0, _ = pdivmod(g0, g1)
        den = pmul(pmul(b1, d1), g0)
        return RatFuncElem(*_monicize(t, den))

    __radd__ = __add__

    def __neg__(self):
        return RatFuncElem(pneg(self.num), self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return RatFuncElem((), _ONE)
        if self.den == _ONE and o.den == _ONE:
            return RatFuncElem(pmul(self.num, o.num), _ONE)
        a, b = self.num, self.den
        c, d = o.num, o.den
        g1 = pgcd(a, d)
        if pdeg(g1) > 0:
            a, _ = pdivmod(a, g1)
            d, _ = pdivmod(d, g1)
        g2 = pgcd(c, b)
        if pdeg(g2) > 0:
            c, _ = pdivmod(c, g2)
            b, _ = pdivmod(b, g2)
        return RatFuncElem(*_monicize(pmul(a, c), pmul(b, d)))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("zero rational function")
        return RatFuncElem.make(self.den, self.num)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        out = RatFuncElem(pconst(1), _ONE)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.den == _ONE and (
                self.num == pconst(other))
        if isinstance(other, RatFuncElem):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        if self.den == _ONE and len(self.num) <= 1:
            return hash(self.num[0] if self.num else Fraction(0))
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def derivative(self):
        if self.den == _ONE:
            return RatFuncElem(pderiv(self.num), _ONE)
        n = psub(pmul(pderiv(self.num), self.den), pmul(self.num, pderiv(self.den)))
        return RatFuncElem.make(n, pmul(self.den, self.den))

    def __repr__(self):
        if self.den == _ONE:
            return pstr(self.num)
        return f"({pstr(self.num)})/({pstr(self.den)})"


# --------------------------------------------------------------------------
# field descriptors


class Rationals:
    kind = "rationals"

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, QuadExtElem):
            if value.b:
                raise FieldError("irrational value coerced into Q")
            return value.a
        return parse_rational(value)

    def derivative(self, e):
        return Fraction(0)

    def fmt(self, e) -> str:
        return fmt_rational(e)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


QQ = Rationals()


class QuadraticExtension:
    """Q(sqrt(d)) for a fixed squarefree non-square integer d."""

    kind = "quadratic"

    def __init__(self, d: int):
        if d in (0, 1) or not isinstance(d, int):
            raise FieldError(f"invalid quadratic extension discriminant {d}")
        if d > 0 and math.isqrt(d) ** 2 == d:
            raise FieldError(f"{d} is a perfect square; extension is trivial")
        self.d = d
        self.zero = QuadExtElem(Fraction(0), Fraction(0), d)
        self.one = QuadExtElem(Fraction(1), Fraction(0), d)
        self.sqrt_gen = QuadExtElem(Fraction(0), Fraction(1), d)

    def coerce(self, value):
        if isinstance(value, QuadExtElem):
            if value.d != self.d:
                raise TowerUnsupported(
                    f"element of Q(sqrt({value.d})) in Q(sqrt({self.d}))")
            return value
        return QuadExtElem(parse_rational(value), Fraction(0), self.d)

    def derivative(self, e):
        return self.zero

    def fmt(self, e) -> str:
        return repr(self.coerce(e))

    def __eq__(self, other):
        return isinstance(other, QuadraticExtension) and other.d == self.d

    def __hash__(self):
        return hash(("quadratic", self.d))

    def __repr__(self):
        return f"QQ(sqrt({self.d}))"


class RationalFunctions:
    """Q(x): reduced fractions of rational-coefficient polynomials."""

    kind = "ratfunc"

    def __init__(self, var: str = "x"):
        self.var = var
        self.zero = RatFuncElem((), _ONE)
        self.one = RatFuncElem(_ONE, _ONE)
        self.gen = RatFuncElem((Fraction(0), Fraction(1)), _ONE)

    def coerce(self, value):
        if isinstance(value, RatFuncElem):
            return value
        if isinstance(value, QuadExtElem):
            raise TowerUnsupported("quadratic irrationals inside Q(x)")
        return RatFuncElem(pconst(parse_rational(value)), _ONE)

    def derivative(self, e):
        return self.coerce(e).derivative()

    def fmt(self, e) -> str:
        return repr(self.coerce(e))

    def __eq__(self, other):
        return isinstance(other, RationalFunctions) and other.var == self.var

    def __hash__(self):
        return hash(("ratfunc", self.var))

    def __repr__(self):
        return f"QQ({self.var})"


def quadext_sqrt(elem: QuadExtElem):
    """Square root of a + b*sqrt(d) inside the same extension, or None."""
    a, b, d = elem.a, elem.b, elem.d
    if not b:
        r = fraction_sqrt(a)
        if r is not None:
            return QuadExtElem(r, Fraction(0), d)
        if a != 0:
            r = fraction_sqrt(a / d)
            if r is not None:
                return QuadExtElem(Fraction(0), r, d)
        return None
    n = fraction_sqrt(a * a - b * b * d)
    if n is None:
        return None
    for sign in (1, -1):
        p2 = (a + sign * n) / 2
        p = fraction_sqrt(p2) if p2 >= 0 else None
        if p:
            return QuadExtElem(p, b / (2 * p), d)
    return None


def field_with_sqrt(disc: Fraction):
    """Smallest supported field containing sqrt(disc), plus that square root.

    Returns (QQ, r) when disc is a rational square, else
    (QuadraticExtension(d), r*sqrt_gen) with disc = r**2 * d.
    """
    disc = parse_rational(disc)
    if disc == 0:
        return QQ, Fraction(0)
    r = fraction_sqrt(disc)
    if r is not None:
        return QQ, r
    d, r = squarefree_split(disc)
    ext = QuadraticExtension(d)
    return ext, r * ext.sqrt_gen


def proj_normalize(vec):
    """Scale a projective tuple so its first nonzero entry is one."""
    for c in vec:
        if c:
            inv = 1 / c
            return tuple(x * inv for x in vec)
    raise ValueError("zero vector is not projective")


def quadratic_roots(a, b, c, field=QQ):
    """Projective roots (u : v) of a u^2 + b uv + c v^2 over ``field``.

    Returns (root field, normalized (u, v), multiplicity) triples, or None for
    the zero form.  Over Q an irrational pair of roots lives in one quadratic
    extension; inside an extension the roots must stay there, else
    RootFieldUnsupported.
    """
    if not a and not b and not c:
        return None
    if not a:
        roots = [(field, (field.one, field.zero), 1 if b else 2)]
        if b:
            roots.append((field, proj_normalize((-c, b)), 1))
        return roots
    disc = b * b - 4 * a * c
    if not disc:
        return [(field, proj_normalize((-b, 2 * a)), 2)]
    if field == QQ:
        field, root = field_with_sqrt(disc)
    else:
        root = quadext_sqrt(field.coerce(disc))
        if root is None:
            raise RootFieldUnsupported(
                "roots would need a second quadratic extension")
    mb, two_a = field.coerce(-b), field.coerce(2 * a)
    return [(field, proj_normalize((mb + root, two_a)), 1),
            (field, proj_normalize((mb - root, two_a)), 1)]

"""Exact coefficient domains.

Everything in this package computes over one of three scalar domains:

* the rationals (``fractions.Fraction``),
* one quadratic extension Q(sqrt(d)) with d a squarefree non-square integer,
* the rational function field Q(x) in a single variable.

Towers (e.g. a quadratic extension of Q(x)) are deliberately unsupported:
operations that would need one raise :class:`~segrecusp.errors.TowerUnsupported`.

Dense univariate polynomials live here too; their gcd (:func:`pgcd`) and
division (:func:`pdivmod`) work over any of the three domains and are the
package's only ones.  Each runs one loop for all three: :func:`pmul` is the
convolution, :func:`pdivmod` long division by the inverse of the divisor's
leading coefficient, and :func:`pgcd` Euclid's algorithm made monic.  Over
Q they serve only gcds of polynomials of degree at most 3.  Integer
polynomials have their own kernels, :func:`_zdivmod` (pseudo-division) and
:func:`_zgcd`, a primitive pseudo-remainder sequence over Z (Collins, JACM
14, 1967; von zur Gathen-Gerhard, *Modern Computer Algebra*, ch. 6), which
avoids the coefficient growth of Euclid's algorithm over Q.

An element n/d of Q(x) (:class:`RatFuncElem`) is a reduced pair of integer
coefficient tuples, and its arithmetic builds no ``Fraction``: the primitive
gcd from :func:`_zgcd` divides n and d exactly over Z (Gauss's lemma), and
one integer gcd over the coefficients of n and d together makes the pair
unique.

Each field descriptor also names the ring of numerators that the exact
linear algebra (:mod:`segrecusp.linalg`) and the jets
(:mod:`segrecusp.jets`) compute in, and is the only code that knows it:
``numerators`` turns a row or the values of a term map into numerators over
one denominator, ``fractions`` turns numerators over a denominator back into
field elements, and ``divexact`` is the ring's exact division.  The rings
are Z for Q; Z[sqrt(d)] for Q(sqrt(d)), held as :class:`QuadExtElem`
with integer parts, whose exact division multiplies by the conjugate and
divides by the integer norm; and Q(x) itself, each element over 1, where a
polynomial is divided by a divisor with no gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldError, RootFieldUnsupported, TowerUnsupported


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


# squarefree_split trial-divides by the primes below this bound
_TRIAL_BOUND = 10 ** 4


def _primes_below(n):
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


_TRIAL_PRIMES = _primes_below(_TRIAL_BOUND)


def squarefree_split(q: Fraction):
    """Write q = r**2 * d with d a squarefree integer; returns (d, r).

    q must be nonzero.  The integer n = num(q) den(q) is trial-divided by
    the primes below ``_TRIAL_BOUND``, stopping once p**2 exceeds the
    cofactor m.  Then m has no prime factor below the bound, so it is 1 or
    a prime when m < _TRIAL_BOUND**2, and it joins d; a square m joins r;
    only any other m is factored, by sympy's ``factorint`` (Cohen, *A
    Course in Computational Algebraic Number Theory*, ch. 8).
    """
    if q == 0:
        raise FieldError("cannot squarefree-split zero")
    n = q.numerator * q.denominator
    d, root, m = (-1 if n < 0 else 1), 1, abs(n)
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        if not m % p:
            e = 0
            while not m % p:
                m, e = m // p, e + 1
            d, root = d * p ** (e % 2), root * p ** (e // 2)
    if m < _TRIAL_BOUND ** 2:
        d *= m
    elif math.isqrt(m) ** 2 == m:
        root *= math.isqrt(m)
    else:
        from sympy import factorint
        for p, e in factorint(m).items():
            d, root = d * int(p) ** (e % 2), root * int(p) ** (e // 2)
    return d, Fraction(root, q.denominator)


# --------------------------------------------------------------------------
# dense univariate polynomials, represented as tuples of coefficients in
# ascending degree order with no trailing zeros.  pdivmod, pgcd, pmul and
# pmonic work over any of the three fields, which they read from the
# coefficients; padd and pderiv take integer coefficients too, and the
# helpers named _z... take integer coefficients only


def _ptrim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def padd(a, b):
    n = max(len(a), len(b))
    return _ptrim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n))


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


# Integer binary forms in (a, b) are their coefficient lists, ascending in a.


def _bmul(f, *forms):
    """The product of integer binary forms."""
    for g in forms:
        f = _convolve(f, g, 0)
    return f


def _bsub(f, g):
    """The difference of two integer binary forms of one degree."""
    return [x - y for x, y in zip(f, g)]


def pmul(a, b):
    """Product over any of the three fields."""
    if not a or not b:
        return ()
    return _ptrim(_convolve(a, b, Fraction(0)))


def pdivmod(a, b):
    """Quotient and remainder of a by b over any of the three fields.

    The coefficient field is read from the operands; untrimmed sequences
    are accepted, and int coefficients give ``Fraction``s.
    """
    a, b = _ptrim(a), _ptrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = Fraction(1) / b[-1]
    zero = inv - inv
    q = [zero] * max(len(a) - len(b) + 1, 0)
    r = [zero + c for c in a]
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
    """Monic gcd over any of the three fields, by Euclid's algorithm.

    The coefficient field is read from the operands; untrimmed sequences
    are accepted, gcd(0, 0) is the zero polynomial (), and a nonzero
    constant argument gives 1 at once.
    """
    a, b = _ptrim(a), _ptrim(b)
    while b:
        if len(a) == 1 or len(b) == 1:
            return pmonic(b[-1:])
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
    g = gcd(lc(b), the remainder's leading coefficient).  A primitive b with
    lc(b) > 0 that divides a over Q needs no scale: s = 1 and q is the
    exact quotient over Z (Gauss's lemma)."""
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


def _zgcd(a, b):
    """The gcd over Q of two nonzero trimmed integer polynomials as a
    primitive integer polynomial with positive leading coefficient, (1,)
    when they are coprime: the last remainder of a primitive
    pseudo-remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return (1,)
    a, b = _primitive(a), _primitive(b)
    while True:
        r = _zdivmod(a, b)[1]
        if not r:
            return tuple(b) if b[-1] > 0 else tuple(-c for c in b)
        if len(r) == 1:
            return (1,)
        a, b = b, _primitive(r)


def pmonic(a):
    """a divided by its leading coefficient; integer coefficients give
    ``Fraction``s."""
    if not a:
        return ()
    lead = Fraction(a[-1]) if type(a[-1]) is int else a[-1]
    return tuple(c / lead for c in a)


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
            # an int stays one: with integer parts, Z[sqrt(d)] stays closed
            return QuadExtElem(other, 0, self.d)
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
        n = Fraction(self.a * self.a - self.b * self.b * self.d)
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


class RatFuncElem:
    """An element n/d of Q(x), stored as its canonical pair of integer
    coefficient tuples (ascending degree): n and d coprime over Q[x], the
    coefficients of n and d together of content 1, lc(d) > 0, and zero as
    ((), (1,)).  The pair is unique, so equality is tuple equality.

    Arithmetic is integer-only.  Products convolve; sums and products
    cancel common factors with Henrici's cross gcds, so only gcds of the
    operands' parts are taken, and a polynomial operand (d constant) needs
    none.  Each gcd comes from :func:`_zgcd` and, being primitive, divides
    exactly over Z (Gauss's lemma); one ``math.gcd`` over n and d removes
    the content.  The constructor takes a canonical pair as it is;
    :meth:`make` reduces any pair of int or Fraction sequences.  ``num``
    and ``den`` give the fraction with monic denominator as ``Fraction``
    tuples, as printed.
    """

    __slots__ = ("n", "d")

    def __init__(self, n, d):
        self.n, self.d = n, d

    @staticmethod
    def make(num, den=(1,)):
        num, den = _ptrim(num), _ptrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in rational function")
        (n, a), (d, b) = _integral(num), _integral(den)
        return _canonical(*_coprime([c * b for c in n], [c * a for c in d]))

    @property
    def num(self):
        lead = self.d[-1]
        return tuple(Fraction(c, lead) for c in self.n)

    @property
    def den(self):
        lead = self.d[-1]
        return tuple(Fraction(c, lead) for c in self.d)

    @staticmethod
    def _lift(other):
        if isinstance(other, RatFuncElem):
            return other
        if isinstance(other, (int, Fraction)):
            return _constant(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not self.n:
            return o
        if not o.n:
            return self
        a, b, c, d = self.n, self.d, o.n, o.d
        if len(b) == 1 and len(d) == 1:   # polynomials: one integer lcm
            g = math.gcd(b[0], d[0])
            u, v = d[0] // g, b[0] // g
            return _canonical(padd([x * u for x in a], [x * v for x in c]),
                              (b[0] * u,))
        # Henrici: with both operands reduced, only gcds with g0 are needed
        g0 = _zgcd(b, d)
        if len(g0) > 1:
            b, d = _zdivmod(b, g0)[0], _zdivmod(d, g0)[0]
        t, g0 = _coprime(padd(_convolve(a, d, 0), _convolve(c, b, 0)), g0)
        return _canonical(t, _convolve(_convolve(b, d, 0), g0, 0))

    __radd__ = __add__

    def __neg__(self):
        return RatFuncElem(tuple(-c for c in self.n), self.d)

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
        a, b, c, d = self.n, self.d, o.n, o.d
        if not a or not c:
            return _ZERO
        if len(b) == 1 and len(d) == 1:     # polynomials: no gcd
            return _canonical(_convolve(a, c, 0), (b[0] * d[0],))
        (a, d), (c, b) = _coprime(a, d), _coprime(c, b)
        return _canonical(_convolve(a, c, 0), _convolve(b, d, 0))

    __rmul__ = __mul__

    def inverse(self):
        n, d = self.n, self.d
        if not n:
            raise ZeroDivisionError("zero rational function")
        if n[-1] < 0:
            return RatFuncElem(tuple(-c for c in d), tuple(-c for c in n))
        return RatFuncElem(d, n)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        # n**k and d**k stay coprime and of content 1 together: no reduction
        base = self if k >= 0 else self.inverse()
        n, d = (1,), (1,)
        for _ in range(abs(k)):
            n, d = _convolve(n, base.n, 0), _convolve(d, base.d, 0)
        return RatFuncElem(tuple(n), tuple(d))

    def __eq__(self, other):
        if isinstance(other, RatFuncElem):
            return self.n == other.n and self.d == other.d
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.n
            return self.n == (other.numerator,) and self.d == (other.denominator,)
        return NotImplemented

    def __hash__(self):
        if len(self.d) == 1 and len(self.n) <= 1:
            return hash(Fraction(self.n[0], self.d[0]) if self.n else 0)
        return hash((self.n, self.d))

    def __bool__(self):
        return bool(self.n)

    def derivative(self):
        n, d = self.n, self.d
        if len(d) == 1:
            return _canonical(pderiv(n), d)
        t = padd(_convolve(pderiv(n), d, 0),
                 [-c for c in _convolve(n, pderiv(d), 0)])
        return _canonical(*_coprime(t, _convolve(d, d, 0)))

    def __repr__(self):
        if len(self.d) == 1:
            return pstr(self.num)
        return f"({pstr(self.num)})/({pstr(self.den)})"


_ZERO = RatFuncElem((), (1,))


def _constant(q):
    """The constant int or Fraction q of Q(x)."""
    return RatFuncElem((q.numerator,), (q.denominator,)) if q else _ZERO


def _canonical(n, d):
    """The RatFuncElem n/d of integer polynomials coprime over Q[x], n
    trimmed and d nonzero: both divided by their common content, with the
    sign that makes lc(d) positive."""
    if not n:
        return _ZERO
    g = math.gcd(*n, *d)
    if d[-1] < 0:
        g = -g
    if g != 1:
        return RatFuncElem(tuple(c // g for c in n), tuple(c // g for c in d))
    return RatFuncElem(tuple(n), tuple(d))


def _coprime(a, b):
    """Trimmed integer polynomials a and b divided by their gcd over Q[x]."""
    if len(a) > 1 and len(b) > 1:
        g = _zgcd(a, b)
        if len(g) > 1:
            return _zdivmod(a, g)[0], _zdivmod(b, g)[0]
    return a, b


# --------------------------------------------------------------------------
# field descriptors


class Rationals:
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

    numerators = staticmethod(_integral)
    divexact = staticmethod(int.__floordiv__)

    @staticmethod
    def fractions(nums, den):
        return [Fraction(n, den) for n in nums]

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

    def numerators(self, values):
        ints, den = _integral([c for v in map(self.coerce, values)
                               for c in (v.a, v.b)])
        return [QuadExtElem(a, b, self.d)
                for a, b in zip(ints[::2], ints[1::2])], den

    def fractions(self, nums, den):
        if isinstance(den, QuadExtElem):    # n / den = n conj(den) / norm
            conj = QuadExtElem(den.a, -den.b, self.d)
            nums, den = [n * conj for n in nums], (den * conj).a
        return [QuadExtElem(Fraction(n.a, den), Fraction(n.b, den), self.d)
                for n in nums]

    def divexact(self, a, b):
        (q,) = self.fractions([a], b)       # b divides a: integer parts
        return QuadExtElem(q.a.numerator, q.b.numerator, self.d)

    def fmt(self, e) -> str:
        return repr(self.coerce(e))

    def __eq__(self, other):
        return isinstance(other, QuadraticExtension) and other.d == self.d

    def __hash__(self):
        return hash(("quadratic", self.d))

    def __repr__(self):
        return f"QQ(sqrt({self.d}))"


class RationalFunctions:
    """Q(x): reduced fractions of integer-coefficient polynomials."""

    def __init__(self, var: str = "x"):
        self.var = var
        self.zero = _ZERO
        self.one = RatFuncElem((1,), (1,))
        self.gen = RatFuncElem((0, 1), (1,))

    def coerce(self, value):
        if isinstance(value, RatFuncElem):
            return value
        if isinstance(value, QuadExtElem):
            raise TowerUnsupported("quadratic irrationals inside Q(x)")
        return _constant(parse_rational(value))

    def derivative(self, e):
        return self.coerce(e).derivative()

    @staticmethod
    def numerators(values):
        return values, 1

    def fractions(self, nums, den):
        # a rational numerator is taken into the field, never divided as a
        # number
        return nums if den == 1 else [self.coerce(n) / den for n in nums]

    def divexact(self, a, b):
        """a / b, b nonzero (b = 1 at an elimination's first step): one
        division over Z with no gcd where a and b are polynomials and b
        divides a, as in Bareiss's elimination of a polynomial matrix, else
        (two polynomial entries of a rational-function matrix too) in Q(x)."""
        if b == 1:
            return a
        a, b = self.coerce(a), self.coerce(b)
        if len(a.d) == 1 and len(b.d) == 1:
            q, r, s = _zdivmod(a.n, b.n)       # s * a.n = q * b.n + r
            if not r:
                return _canonical([c * b.d[0] for c in q], (s * a.d[0],))
        return a / b

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
    a, b, c = (field.coerce(v) for v in (a, b, c))
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

"""Truncated multivariate power series (jets) with exact coefficients.

A :class:`Jet` stores a sparse map from exponent vectors to nonzero field
elements, together with the truncation order up to which its coefficients are
guaranteed exact.  Arithmetic tracks that guarantee: multiplying a jet known
to order 8 by one of valuation 2 yields coefficients trusted to order 10.
Products run on the field's ring of numerators (:mod:`segrecusp.fields`):
a term map is held as numerators over one denominator, scaled once when it
is formed (integers over Q, Z[sqrt(d)] over Q(sqrt(d)), and over Q(x) the
coefficients themselves over 1), products are summed per exponent over the
lcm of their denominators, and each output coefficient is built once.

On top of the ring operations this module provides the local-analysis
primitives used throughout the package: implicit solving of any number of
equations (degree by degree, with no Newton iteration), vanishing orders,
and the splitting of a germ into a nondegenerate quadratic part plus a
residual in the corank variables, obtained by eliminating the critical set
in the nondegenerate directions with the same implicit solve.  Whether a
germ is a square is not a jet question here: a doubled conic is confirmed
by an exact rank test (:mod:`segrecusp.cusplocus`), never to an order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import add

from .errors import OrderTooSmall, SingularJacobian, TruncationInsufficient
from .linalg import mat_inv, mat_rank

# A finite vanishing order read off a jet is exact, so a computation whose
# order is not fixed starts low and doubles only while the answer is not
# settled (A_k is (k+1)-determined: the order needed follows the germ).
START_ORDER = 3
MAX_ORDER = 32


def escalate(compute, start=START_ORDER):
    """``compute(order)`` from ``start``, doubling the order (up to
    ``MAX_ORDER``) while it raises :class:`TruncationInsufficient`; at the
    cap the error is re-raised."""
    order = start
    while True:
        try:
            return compute(order)
        except TruncationInsufficient:
            if order >= MAX_ORDER:
                raise
            order = min(2 * order, MAX_ORDER)


def _exp_add(a, b):
    return tuple(map(add, a, b))


def _group_terms(coeffs, key_idx, rest_idx):
    """The terms of ``coeffs`` grouped by their exponents at the positions
    ``key_idx``: {key: {exponents at rest_idx: coefficient}}."""
    groups = {}
    for e, c in coeffs.items():
        key = tuple(e[i] for i in key_idx)
        groups.setdefault(key, {})[tuple(e[i] for i in rest_idx)] = c
    return groups


def _lower(k):
    """(j, k - e_j) for j the last nonzero position of the exponent ``k``."""
    j = max(i for i, n in enumerate(k) if n)
    return j, k[:j] + (k[j] - 1,) + k[j + 1:]


def _mul_into(out, a, b, order, zero):
    """Add the product of the term maps ``a`` and ``b`` into ``out``, keeping
    total degree at most ``order``; returns ``out`` (zero sums stay in it).
    The callers pass maps of numerators (see :func:`_scaled`) and ``zero``
    = 0, so over Q the loop runs on ``int``."""
    b_terms = [(eb, sum(eb), cb) for eb, cb in b.items()]
    for ea, ca in a.items():
        room = order - sum(ea)
        for eb, db, cb in b_terms:
            if db <= room:
                # room == order: ea is the constant term
                e = eb if room == order else tuple(map(add, ea, eb))
                out[e] = out.get(e, zero) + ca * cb
    return out


def _scaled(terms, field):
    """A term map as (numerators, denominator) in the ring of numerators of
    ``field`` (:mod:`segrecusp.fields`): the map itself where its values
    are their own numerators."""
    values = terms.values()
    nums, den = field.numerators(values)
    return (terms if nums is values else dict(zip(terms, nums))), den


def _unscaled(scaled, field):
    """The term map of a scaled one."""
    terms, den = scaled
    values = terms.values()
    out = field.fractions(values, den)
    return terms if out is values else dict(zip(terms, out))


def _sum_products(pairs, order, field):
    """The sum of the products of the scaled term maps in ``pairs``, kept to
    total degree ``order``, as one scaled map: each product is summed over
    the lcm of the products' denominators, one operand taking the quotient
    as a factor (zero sums stay, as in :func:`_mul_into`)."""
    den = math.lcm(*[da * db for (a, da), (b, db) in pairs if a and b])
    out = {}
    for (a, da), (b, db) in pairs:
        if a and b:
            if da * db != den:
                s = den // (da * db)
                if len(a) > len(b):
                    a, b = b, a
                a = {e: s * c for e, c in a.items()}
            _mul_into(out, a, b, order, 0)
    return out, den


class Jet:
    """Power series in up to four variables truncated at a total degree."""

    __slots__ = ("field", "vars", "order", "coeffs")

    def __init__(self, field, vars, order, coeffs=None):
        if not 1 <= len(vars) <= 4:
            raise ValueError(f"jets support 1-4 variables, got {vars!r}")
        self.field = field
        self.vars = tuple(vars)
        self.order = int(order)
        clean = {}
        if coeffs:
            for exps, c in coeffs.items():
                if sum(exps) <= self.order and c:
                    clean[exps] = c
        self.coeffs = clean

    # ------------------------------------------------------------ builders

    @classmethod
    def zero(cls, field, vars, order):
        return cls(field, vars, order)

    @classmethod
    def constant(cls, field, vars, order, value):
        value = field.coerce(value)
        e0 = (0,) * len(vars)
        return cls(field, vars, order, {e0: value} if value else {})

    @classmethod
    def variable(cls, field, vars, order, name):
        i = tuple(vars).index(name)
        e = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(field, vars, order, {e: field.one})

    def clone(self, coeffs, order=None):
        return Jet(self.field, self.vars, self.order if order is None else order,
                   coeffs)

    # ------------------------------------------------------------- queries

    def valuation(self):
        """Minimal total degree of a nonzero term, or None for the zero jet."""
        if not self.coeffs:
            return None
        return min(sum(e) for e in self.coeffs)

    def _val_bound(self):
        v = self.valuation()
        return self.order + 1 if v is None else v

    def is_zero(self):
        return not self.coeffs

    def constant_term(self):
        return self.coeffs.get((0,) * len(self.vars), self.field.zero)

    def coefficient(self, exps):
        return self.coeffs.get(tuple(exps), self.field.zero)

    def homogeneous_part(self, degree):
        return {e: c for e, c in self.coeffs.items() if sum(e) == degree}

    def order_in(self, name):
        """Minimal exponent of ``name`` over nonzero terms (None if zero jet)."""
        i = self.vars.index(name)
        return min((e[i] for e in self.coeffs), default=None)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            if not other:
                return self.is_zero()
            return self.coeffs == {(0,) * len(self.vars): self.field.coerce(other)}
        return (self.field == other.field and self.vars == other.vars
                and self.coeffs == other.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return f"Jet(0; O({self.order + 1}))"
        parts = []
        for e in sorted(self.coeffs, key=lambda e: (sum(e), e)):
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for v, k in zip(self.vars, e) if k)
            c = self.field.fmt(self.coeffs[e])
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts) + f" + O({self.order + 1})"

    # ---------------------------------------------------------- arithmetic

    def _check_compatible(self, other):
        if self.field != other.field or self.vars != other.vars:
            raise ValueError("jets over different rings")

    def __add__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(self.field, self.vars, self.order, other)
        self._check_compatible(other)
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, self.field.zero) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return self.clone(out, order)

    __radd__ = __add__

    def __neg__(self):
        return self.clone({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(self.field, self.vars, self.order, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = self.field.coerce(other)
            if not c:
                return self.clone({})
            return self.clone({e: v * c for e, v in self.coeffs.items()})
        self._check_compatible(other)
        order = min(self.order + other._val_bound(), other.order + self._val_bound())
        if not (self.coeffs and other.coeffs):
            return self.clone({}, order)
        (a, da), (b, db) = (_scaled(self.coeffs, self.field),
                            _scaled(other.coeffs, self.field))
        product = _mul_into({}, a, b, order, 0), da * db
        return self.clone(_unscaled(product, self.field), order)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = Jet.constant(self.field, self.vars, self.order, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self):
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.constant_term()
        if not c0:
            raise ZeroDivisionError("jet with zero constant term has no inverse")
        inv0 = self.field.one / c0
        nvars = len(self.vars)
        e0 = (0,) * nvars
        out = {e0: inv0}
        by_degree = {}
        for e, c in self.coeffs.items():
            if e != e0:
                by_degree.setdefault(sum(e), []).append((e, c))
        for d in range(1, self.order + 1):
            layer = {}
            for dd, terms in by_degree.items():
                if dd > d:
                    continue
                for e, c in terms:
                    for e2, c2 in list(out.items()):
                        if sum(e2) == d - dd:
                            e3 = _exp_add(e, e2)
                            layer[e3] = layer.get(e3, self.field.zero) + c * c2
            for e, c in layer.items():
                if sum(e) == d and c:
                    out[e] = -inv0 * c
        return self.clone(out)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.inverse()
        return self * (self.field.one / self.field.coerce(other))

    # -------------------------------------------------------------- calculus

    def derivative(self, name):
        """Partial derivative with respect to a jet variable."""
        i = self.vars.index(name)
        out = {}
        for e, c in self.coeffs.items():
            if e[i]:
                e2 = tuple(k - 1 if j == i else k for j, k in enumerate(e))
                out[e2] = c * e[i]
        return self.clone(out, self.order - 1)

    def coefficient_derivative(self):
        """Derivative through the coefficient field (d/dx over Q(x))."""
        out = {}
        for e, c in self.coeffs.items():
            dc = self.field.derivative(c)
            if dc:
                out[e] = dc
        return self.clone(out)

    # --------------------------------------------------------- reshaping

    def truncate(self, order):
        return Jet(self.field, self.vars, min(order, self.order), self.coeffs)

    def map_coefficients(self, field, fn):
        return Jet(field, self.vars, self.order,
                   {e: fn(c) for e, c in self.coeffs.items()})

    def substitute(self, images):
        """Substitute every variable by a jet (all images over one target ring).

        Images of variables that merely rename/embed must be supplied too.
        An image equal to the target variable of the same name only shifts
        exponents.  The terms are grouped by their exponents in the other
        variables, and each group costs one product with the (memoised)
        product of their images' powers.  The images, their powers and the
        groups are scaled to numerators once, when formed, and the result
        is one sum of products of numerators.  The result is exact
        to min(self.order, image orders).
        """
        target = next(iter(images.values()))
        field, tvars = target.field, target.vars
        order = min([self.order] + [g.order for g in images.values()])
        shifted, moving = [], []
        for i, v in enumerate(self.vars):
            if v in tvars and images[v].coeffs == {
                    tuple(int(t == v) for t in tvars): field.one}:
                shifted.append(i)
            else:
                moving.append(i)
        slots = [tvars.index(self.vars[i]) for i in shifted]
        gens = [_scaled(images[self.vars[i]].truncate(order).coeffs, field)
                for i in moving]
        powers = {(0,) * len(moving): _scaled(
            {(0,) * len(tvars): field.one}, field)}

        def power(k):
            if k not in powers:
                j, prev = _lower(k)
                powers[k] = _sum_products([(power(prev), gens[j])], order,
                                          field)
            return powers[k]

        pairs = []
        for k, terms in _group_terms(self.coeffs, moving, shifted).items():
            poly = {}
            for rest, c in terms.items():
                e = [0] * len(tvars)
                for slot, n in zip(slots, rest):
                    e[slot] = n
                poly[tuple(e)] = c
            pairs.append((_scaled(poly, field), power(k)))
        return Jet(field, tvars, order,
                   _unscaled(_sum_products(pairs, order, field), field))


# --------------------------------------------------------------------------
# polynomial entry point


def jet_from_poly(field, vars, order, terms):
    """Build a jet from {exponent tuple: coefficient} polynomial data."""
    return Jet(field, vars, order,
               {tuple(e): field.coerce(c) for e, c in terms.items()})


# --------------------------------------------------------------------------
# vanishing orders


@dataclass(frozen=True)
class InfiniteOrder:
    """Vanishing order beyond the truncation cap; possibly not truly infinite."""

    truncation_order: int

    def __eq__(self, other):
        return isinstance(other, InfiniteOrder)

    def __hash__(self):
        return hash("InfiniteOrder")

    def __repr__(self):
        return f"INFINITE(beyond order {self.truncation_order})"


def y_order(jet: Jet, name=None):
    """Minimal vanishing order of a jet along {name = 0}.

    Returns the least exponent of ``name`` carried by a nonzero coefficient,
    or :class:`InfiniteOrder` when the jet is identically zero to its
    truncation order (a truncation caveat, not a proof of vanishing).
    """
    if name is None:
        if len(jet.vars) != 1:
            raise ValueError("specify the variable for a multivariate jet")
        name = jet.vars[0]
    k = jet.order_in(name)
    if k is None:
        return InfiniteOrder(jet.order)
    return k


# --------------------------------------------------------------------------
# binary quadratics


@dataclass(frozen=True)
class BinaryQuadratic:
    """a*lam**2 + b*lam*mu + c*mu**2 with scalar or jet coefficients."""

    a: object
    b: object
    c: object

    def discriminant(self):
        return self.b * self.b - 4 * (self.a * self.c)

    def coefficients(self):
        return (self.a, self.b, self.c)


# --------------------------------------------------------------------------
# implicit functions


def hensel_solve(equations, solve_vars, order=None):
    """Solve ``equations == 0`` for ``solve_vars`` as jets in the other variables.

    The equations, one per solve variable, are jets in base + solve
    variables, vanishing at the origin, whose Jacobian J0 with respect to
    the solve variables is invertible at the origin.  Returns one jet per
    solve variable, in base variables, exact modulo total degree
    ``order + 1``; ``order`` defaults to, and is capped at, the least order
    of the equations, beyond which the solution is not determined.

    The solution phi is found degree by degree, with no Newton iteration
    (a relaxed solve: J. van der Hoeven, "Relax, but don't be too lazy",
    J. Symbolic Comput. 34, 2002).  Written as sum_k P_k(base) u^k, an
    equation's degree-d part at u = phi is J0 phi_d + R_d, where R_d
    involves phi only below degree d, so phi_d = -J0^{-1} R_d, with J0
    inverted once by one row reduction.  Each power phi^k (|k| >= 2) is
    extended by its degree-d part at every step.  Every part is held as
    numerators over one denominator (see :func:`_sum_products`), and each
    output coefficient is built once.
    """
    eqs = list(equations)
    known = min(e.order for e in eqs)
    order = known if order is None else min(order, known)
    if order < 2:
        raise OrderTooSmall(f"truncation order {order} < 2")
    n = len(eqs)
    if n != len(solve_vars):
        raise ValueError("hensel_solve needs one equation per solve variable")
    field = eqs[0].field
    all_vars = eqs[0].vars
    solve_idx = [all_vars.index(v) for v in solve_vars]
    base_idx = [i for i, v in enumerate(all_vars) if v not in solve_vars]
    base_vars = tuple(all_vars[i] for i in base_idx)
    b0 = (0,) * len(base_vars)
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for e in eqs:
        if e.constant_term():
            raise SingularJacobian("equation does not vanish at the origin")

    # P[i][k][m]: degree-m part of the coefficient of u^k in equation i,
    # without the constant of a linear u^k, which is the Jacobian J0
    P = []
    for e in eqs:
        by_k = {}
        for k, terms in _group_terms(e.coeffs, solve_idx, base_idx).items():
            for a, c in terms.items():
                by_k.setdefault(k, {}).setdefault(sum(a), {})[a] = c
        P.append(by_k)
    J0 = [[P[i].get(u, {}).pop(0, {}).get(b0, field.zero) for u in units]
          for i in range(n)]
    try:
        J0inv = mat_inv(field, J0)
    except ZeroDivisionError:
        raise SingularJacobian(
            "Jacobian in the solve variables is singular at 0") from None
    P = [{k: {m: _scaled(Pm, field) for m, Pm in parts.items()}
          for k, parts in by_k.items()} for by_k in P]
    # the nonzero entries of each row of -J0^{-1}, as constant term maps
    inv = [[(i, _scaled({b0: -c}, field)) for i, c in enumerate(row) if c]
           for row in J0inv]

    # powers[k][d]: degree-d part of phi^k; phi^(e_j) is phi_j itself, and
    # phi^k for |k| >= 2 extends phi^(k - e_j) by phi_j (see _lower)
    phi = [[({}, 1)] for _ in range(n)]
    powers = {(0,) * n: [_scaled({b0: field.one}, field)]}
    powers.update(zip(units, phi))
    links = {}
    for by_k in P:
        for k in by_k:
            while sum(k) >= 2 and k not in links:
                links[k] = _lower(k)
                powers[k] = [({}, 1)]
                k = links[k][1]
    steps = [(powers[k], j, powers[prev]) for k, (j, prev) in links.items()]
    for d in range(1, order + 1):
        for pk, j, prev in steps:
            pk.append(_sum_products([(prev[d - b], phi[j][b])
                                     for b in range(1, d)], order, field))
        R = [_sum_products([(Pm, powers[k][d - m])
                            for k, parts in by_k.items()
                            for m, Pm in parts.items()
                            if 0 <= d - m < len(powers[k])], order, field)
             for by_k in P]
        for j in range(n):
            phi[j].append(_sum_products([(w, R[i]) for i, w in inv[j]],
                                        order, field))
    return tuple(Jet(field, base_vars, order,
                     {e: c for part in f
                      for e, c in _unscaled(part, field).items()})
                 for f in phi)


# --------------------------------------------------------------------------
# formal splitting (Morse reduction)


@dataclass
class SplitResult:
    rank: int
    residual: Jet
    residual_vars: tuple


def _quadratic_matrix(f: Jet):
    n = len(f.vars)
    H = [[f.field.zero] * n for _ in range(n)]
    for e, c in f.homogeneous_part(2).items():
        idx = [i for i, k in enumerate(e) for _ in range(k)]
        i, j = idx[0], idx[1]
        if i == j:
            H[i][i] = c + c
        else:
            H[i][j] = H[i][j] + c
            H[j][i] = H[j][i] + c
    return H


def splitting_reduce(f: Jet):
    """Split a germ (no constant or linear part) into squares plus a residual.

    Returns the Hessian rank r at the origin and the residual germ in the
    remaining (corank-many) variables, equivalent to f up to formal
    coordinate change through the truncation order.  By the splitting lemma
    f(u, v) ~ Q(u) + f(phi(v), v), where u are r variables whose principal
    Hessian minor is nonsingular and u = phi(v) is the critical set
    df/du = 0, solved by one :func:`hensel_solve` to half the truncation
    order, in any number of variables.
    """
    if f.constant_term() or f.homogeneous_part(1):
        raise ValueError("germ must have no constant or linear part")
    field = f.field
    H = _quadratic_matrix(f)
    n = len(f.vars)
    rank = mat_rank(field, H)
    if rank == n:
        return SplitResult(rank=rank, residual_vars=(),
                           residual=Jet.zero(field, f.vars[:1], f.order))
    if rank == 0:
        return SplitResult(rank=0, residual=f, residual_vars=f.vars)
    if f.order < 3:
        raise OrderTooSmall(
            f"truncation order {f.order} < 3 leaves no critical set to solve")
    # a symmetric matrix of rank r has a nonsingular r x r principal minor
    S = next(S for S in combinations(range(n), rank)
             if mat_rank(field, [[H[i][j] for j in S] for i in S]) == rank)
    solve_vars = tuple(f.vars[i] for i in S)
    rest = tuple(v for v in f.vars if v not in solve_vars)
    # The residual keeps order f.order although phi is solved only to order
    # k = f.order // 2: the true critical set is phi + delta with
    # val(delta) >= k + 1, and df/du(phi) vanishes below degree k + 1 too,
    # so f(phi + delta) - f(phi) = df/du(phi) delta + O(delta^2) starts at
    # degree 2k + 2 > f.order.
    phi = hensel_solve([f.derivative(v) for v in solve_vars], solve_vars,
                       order=max(2, f.order // 2))
    images = {v: Jet.variable(field, rest, f.order, v) for v in rest}
    images.update((v, Jet(field, rest, f.order, g.coeffs))
                  for v, g in zip(solve_vars, phi))
    return SplitResult(rank=rank, residual=f.substitute(images),
                       residual_vars=rest)

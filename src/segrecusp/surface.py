"""Geometry of a concrete Segre quartic surface.

Builds on a validated pencil: exact singular points with their ADE types,
tangent planes and adapted charts, exact rational point sampling, and the
double-conic hyperplane N p of a rank-3 member N.  Line enumeration lives in
:mod:`segrecusp.lines`.

The germ of S at a singular point is exact: on one chart per point, built
from an isotropic direction of a member smooth there, S is the graph of
that member's quadratic equation, and the other quadric restricted to it
is a polynomial of degree at most 4 (:func:`exact_germ`).  The classifier
builds it once and escalates only the splitting of it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, combinations, product

from .errors import (NonIsolatedSingularity, NotOnSurface, PointNotOnLine,
                     PointSingular, RetryExhausted, TruncationInsufficient,
                     UnsupportedSingularity)
from .fields import (QQ, QuadExtElem, RationalFunctions, _canonical, _ptrim,
                     pgcd, proj_normalize, quadratic_roots)
from .jets import MAX_ORDER, Jet, escalate, hensel_solve, splitting_reduce
from .linalg import (_dot, _images, _supports, gram_matrix, gram_numerators,
                     identity, mat_inv, mat_rank, mat_vec, nullspace,
                     scaled_gram, scaled_mat_vec, upper_gram_numerators)
from .pencil import QuadricPencil, second_intersection


# --------------------------------------------------------------------------
# points and ADE labels


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of CP4 with exact coordinates, stored normalized."""

    field: object
    coords: tuple

    @staticmethod
    def make(field, coords):
        coords = tuple(field.coerce(c) for c in coords)
        if not any(coords):
            raise ValueError("projective point needs a nonzero coordinate")
        return ProjectivePoint(field, proj_normalize(coords))

    @property
    def is_rational(self):
        return self.field == QQ

    def as_float(self):
        return [_to_complex(c) for c in self.coords]

    def __repr__(self):
        return "(" + " : ".join(self.field.fmt(c) for c in self.coords) + ")"


def _to_complex(c):
    if isinstance(c, Fraction):
        return complex(c)
    if isinstance(c, QuadExtElem):
        root = math.sqrt(abs(c.d))
        r = complex(root) if c.d > 0 else complex(0, root)
        return complex(c.a) + complex(c.b) * r
    raise TypeError(f"cannot convert {c!r} to complex")


@dataclass(frozen=True)
class ADEClass:
    family: str
    index: int

    def __post_init__(self):
        if (self.family, self.index) not in (
                ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5)):
            raise UnsupportedSingularity(
                f"{self.family}{self.index} cannot occur on a Segre surface")

    def __str__(self):
        return f"{self.family}{self.index}"


# --------------------------------------------------------------------------
# the surface


class SurfaceInstance:
    """A Segre surface cut out by a validated pencil, plus cached geometry."""

    def __init__(self, pencil: QuadricPencil, seed=0):
        self.pencil = pencil
        self.seed = seed
        self.point_source = None   # optional exact parameterization
        self.lines = None          # filled by segrecusp.lines.enumerate_lines
        self._singular = None
        self._strategies = None

    # ---------------------------------------------------------- singularities

    def singular_points(self):
        """Exact singular points (without classification)."""
        return [p for p, _ in self.singularities()]

    def singularities(self):
        """List of (point, ADEClass), computed once."""
        if self._singular is None:
            pts = _singular_points_exact(self.pencil)
            self._singular = [(p, classify_singularity(self, p)) for p in pts]
        return self._singular

    def sampling_strategies(self):
        """The cones that exact point sampling sweeps, computed once: a
        (member, kernel point, isotropic seed, member numerators) for each
        rank-3 or rank-4 member whose vertex holds a rational singular
        point and whose cone has a rational smooth point; the numerators
        are the member matrix's, scaled once for
        :func:`~segrecusp.linalg.scaled_gram`."""
        if self._strategies is None:
            sing, strategies = self.singular_points(), []
            for member in self.pencil.rank_drop_members():
                if member.rank not in (3, 4):
                    continue
                vertex = [p for p in sing
                          if p.is_rational and _in_kernel(member, p)]
                if not vertex:
                    continue
                M = self.pencil.member(*member.root)
                seed_vec = _isotropic_seed(M, sing)
                if seed_vec is not None:
                    strategies.append((member, vertex[0], seed_vec,
                                       QQ.numerators(sum(M, []))))
            self._strategies = strategies
        return self._strategies

    def singularity_multiset(self):
        return sorted(str(ade) for _, ade in self.singularities())

    # --------------------------------------------------------------- helpers

    def gradient_rows(self, point):
        """The gradient rows [P p; Q p] of a point p and its field, formed
        once on the numerators of p and of P and Q: each row is M p times
        a positive rational, so its kernel and the test p . (M p) = 0 are
        those of M p."""
        field = point.field
        support, _ = _supports(field, [point.coords])
        return [_images(m, support)[0]
                for m, _ in self.pencil.numerators(field)], field

    def on_surface(self, point):
        return _on_surface(point, self.gradient_rows(point)[0])

    def _surface_gradient_rows(self, point):
        """The gradient rows of a point p of S (else :class:`NotOnSurface`)."""
        rows, _ = self.gradient_rows(point)
        if not _on_surface(point, rows):
            raise NotOnSurface(f"{point} is not on the surface")
        return rows

    def is_smooth_at(self, point):
        return _pivots(self._surface_gradient_rows(point)) is not None

    def tangent_frame(self, point):
        """The tangent plane at a smooth point p of S, read off the gradient
        rows [P p; Q p] on integers: (tangent, rows, pivots, field).

        ``rows`` are the integer gradient rows of :meth:`gradient_rows`,
        whose kernel is T_pS, and ``pivots`` the two pivot columns (c, c')
        of their reduced row echelon form (:func:`_pivots`; else
        :class:`PointSingular`).  With m(i, j) the 2 x 2 minor of the rows
        at columns i and j, the kernel basis v_f, one per free column f
        (Cohen, GTM 138, section 2.3), has 1 at f, -m(f, c')/m(c, c') at c
        and -m(c, f)/m(c, c') at c' (Cramer's rule), each entry one
        fraction, so it spans T_pS as ``rref_kernel`` of the reduced rows
        would.  ``tangent`` is p followed by the v_f other than v_f*, f* the
        last free column with p_f != 0.  The unit vectors at the pivot
        columns complete ``tangent`` to a basis of the space.
        """
        field = point.field
        rows = self._surface_gradient_rows(point)
        pivots = _pivots(rows)
        if pivots is None:
            raise PointSingular(f"{point} must be smooth")
        (r, s), (c, c2) = rows, pivots
        coords = list(point.coords)
        free = [f for f in range(5) if f not in pivots]
        last = max(i for i, f in enumerate(free) if coords[f])
        tangent = [coords]
        for f in free[:last] + free[last + 1:]:
            v = [field.zero] * 5
            v[f] = field.one
            v[c], v[c2] = field.fractions(
                [r[c2] * s[f] - r[f] * s[c2], r[f] * s[c] - r[c] * s[f]],
                r[c] * s[c2] - r[c2] * s[c])
            tangent.append(v)
        return tangent, rows, pivots, field


def _on_surface(point, rows):
    """Whether p . (M p) = 0 for both gradient rows, read on the numerators
    of p."""
    v, _ = point.field.numerators(point.coords)
    return not any(_dot(v, row) for row in rows)


def _pivots(rows):
    """The pivot columns of the reduced row echelon form of two rows r, s,
    or None if their rank is below 2: the first column c where one row is
    nonzero and the first column c' after it with r_c s_c' != r_c' s_c.
    Where every such minor vanishes, each column is a multiple of column c,
    so the rank is below 2."""
    r, s = rows
    c = next((k for k in range(5) if r[k] or s[k]), None)
    if c is None:
        return None
    c2 = next((k for k in range(c + 1, 5) if r[c] * s[k] - r[k] * s[c]), None)
    return None if c2 is None else (c, c2)


def _restricted_conic_points(pencil, v1, v2):
    """Exact points of S on the kernel line spanned by v1, v2."""
    # both quadrics restrict proportionally on the kernel; use a nonzero one
    for M in reversed(pencil.numerators(QQ)):
        (a, b), (_, c) = scaled_gram(QQ, M, [v1, v2])
        if a or b or c:
            break
    else:
        raise NonIsolatedSingularity(
            "a kernel line lies on the surface: singular locus is a curve")
    points = []
    for field, (s, t), _ in quadratic_roots(a, 2 * b, c):
        coords = [field.coerce(v1[i]) * s + field.coerce(v2[i]) * t
                  for i in range(5)]
        points.append(ProjectivePoint.make(field, coords))
    return points


def _singular_points_exact(pencil: QuadricPencil):
    """Sing(S) as kernel points of degenerate members lying on S."""
    points = []
    for member in pencil.rank_drop_members():
        if member.rank <= 2:
            raise NonIsolatedSingularity(
                f"member of rank {member.rank}: not a Segre surface")
        if member.rank == 4:
            v = member.kernel[0]
            if all(not gram_numerators(QQ, M, [v])[0][0][0]
                   for M in pencil.numerators(QQ)):
                points.append(ProjectivePoint.make(QQ, v))
        else:
            points.extend(_restricted_conic_points(pencil, *member.kernel))
    unique = []
    for p in points:
        if p not in unique:
            unique.append(p)
    return sorted(unique, key=lambda p: tuple(str(c) for c in p.coords))


# Newton starts of the numeric singular sweep, split between the two
# orderings of the pencil generators
SWEEP_STARTS = 60


def singular_sweep_numeric(surface, seed=0):
    """Random Newton sweep on the rank-drop system, cross-checked exactly.

    Solves (A - lam*B) x = 0 with an affine normalization from
    :data:`SWEEP_STARTS` random starts (both orderings of the pencil
    generators), keeps kernel directions lying
    on the surface, and compares them with the exact singular set.  Returns
    (matched, unresolved); unresolved hits are reported, never added.
    """
    import numpy as np

    rng = np.random.default_rng(seed + 1)
    P = np.array([[float(c) for c in row] for row in surface.pencil.P])
    Q = np.array([[float(c) for c in row] for row in surface.pencil.Q])
    exact = [np.array([complex(x) for x in p.as_float()])
             for p in surface.singular_points()]

    hits = []
    for A, B in ((P, Q), (Q, P)):
        for _ in range(SWEEP_STARTS // 2):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            lam = rng.standard_normal() + 1j * rng.standard_normal()
            a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            for _ in range(60):
                M = A - lam * B
                r = np.concatenate((M @ x, [a @ x - 1.0]))
                J = np.zeros((6, 6), dtype=complex)
                J[:5, :5] = M
                J[:5, 5] = -(B @ x)
                J[5, :5] = a
                try:
                    step = np.linalg.solve(J, -r)
                except np.linalg.LinAlgError:
                    break
                x = x + step[:5]
                lam = lam + step[5]
                if np.linalg.norm(step) < 1e-13:
                    break
            if not np.isfinite(x).all():
                continue
            xn = x / np.linalg.norm(x)
            member_resid = np.linalg.norm((A - lam * B) @ xn)
            on_surface = abs(xn @ P @ xn) + abs(xn @ Q @ xn)
            if member_resid < 1e-8 and on_surface < 1e-8:
                hits.append(xn)
    matched, unresolved = [], []
    for h in hits:
        ok = any(abs(np.vdot(e / np.linalg.norm(e), h)) > 1 - 1e-6
                 for e in exact)
        (matched if ok else unresolved).append(h)
    distinct = []
    for h in unresolved:
        if all(abs(abs(np.vdot(h, d)) - 1) > 1e-6 for d in distinct):
            distinct.append(h)
    return matched, distinct


# --------------------------------------------------------------------------
# exact germs and ADE classification


def _isotropic_chart(surface, point):
    """(k, C): k the index in (P, Q) of a member M smooth at p, Q before P,
    and C = [p, v1, W] the columns of one chart at p, over the field of p.

    With i the first nonzero entry of Mp and v = e_i / (Mp)_i, M(p, v) = 1,
    so v1 = v - M(v, v)/2 p is M-isotropic with M(p, v1) = 1, and
    W = ker[Mp; Mv1] has dimension 3.  On x = p + u v1 + w, w in W,
    M(x) = 2u + M(w, w).
    """
    field, p = point.field, list(point.coords)
    scaled = surface.pencil.numerators(field)
    # a member is smooth at p when its gradient Mp is nonzero
    for k in (1, 0):
        Mp = scaled_mat_vec(field, scaled[k], p)
        if any(Mp):
            break
    else:
        raise UnsupportedSingularity(
            "both quadrics are singular at the point: not a hypersurface germ")
    M = surface.pencil.coerced(field)[k]
    i = next(j for j, c in enumerate(Mp) if c)
    v = [field.zero] * 5
    v[i] = field.one / Mp[i]
    half = M[i][i] * v[i] * v[i] / 2          # M(v, v)/2
    v1 = [a - half * b for a, b in zip(v, p)]
    Mv1 = scaled_mat_vec(field, scaled[k], v1)
    return k, [p, v1] + nullspace(field, [Mp, Mv1])


def exact_germ(surface, point):
    """The germ (S, p) as an exact polynomial f of degree <= 4 in the three
    coordinates of W, over the field of p.

    On the chart of :func:`_isotropic_chart`, S is {u = -M(w, w)/2,
    f(w) = 0}, f(w) being the other quadric O at that u:

        f(w) = 2 O(p, w) + O(w, w) - (O(p, v1) + O(v1, w)) M(w, w)
               + O(v1, v1) M(w, w)^2 / 4,

    where O(p, w) = 0 at a singular point, Op being parallel to Mp.  Both
    quadrics are read off the Gram matrices on C = [p, v1, W]
    (:func:`chart_quadrics`).  f is a polynomial, exact to every order, so
    its jet carries :data:`~segrecusp.jets.MAX_ORDER`.
    """
    k, columns = _isotropic_chart(surface, point)
    field, names = point.field, ("u", "w1", "w2", "w3")
    jets = chart_quadrics(surface.pencil, field, columns, names, MAX_ORDER)
    images = {w: Jet.variable(field, names[1:], MAX_ORDER, w)
              for w in names[1:]}
    # the member's jet is 2u + M(w, w)
    images["u"] = Jet(field, names[1:], MAX_ORDER,
                      {e[1:]: -c / 2 for e, c in jets[k].coeffs.items()
                       if not e[0]})
    return jets[1 - k].substitute(images)


def _binary_cubic_double_root(coeffs, field):
    """Analyze a binary cubic c0*u^3 + c1*u^2 v + c2*u v^2 + c3*v^3.

    Returns ('distinct', None), ('double', direction) or ('triple', direction),
    the direction being the projective zero (u, v) of the repeated factor.
    """
    c0, c1, c2, c3 = coeffs
    # dehomogenize with v = 1: p(t) = c0 t^3 + c1 t^2 + c2 t + c3
    p = [c3, c2, c1, c0]
    while p and not p[-1]:
        p.pop()
    inf_mult = 3 - (len(p) - 1)
    if inf_mult >= 2:
        # factor v^2 or v^3
        return ("triple" if inf_mult == 3 else "double", (field.one, field.zero))
    dp = [p[i] * i for i in range(1, len(p))]
    g = pgcd(p, dp)
    if len(g) <= 1:
        return ("distinct", None)
    if len(g) == 2:
        t0 = -g[0] / g[1]
        return ("double", (t0, field.one))
    # gcd of degree 2: triple rational root
    # p = c (t - t0)^3, so t0 = -p[2]/(3 p[3]) when deg 3
    t0 = -g[1] / (2 * g[2])
    return ("triple", (t0, field.one))


def classify_germ(f: Jet) -> ADEClass:
    """ADE type of a 3-variable hypersurface germ (A1..A4, D4, D5 only)."""
    split = splitting_reduce(f)
    corank = len(f.vars) - split.rank
    res = split.residual
    if corank == 0:
        return ADEClass("A", 1)
    if corank == 1:
        v = res.valuation()
        if v is None:
            raise TruncationInsufficient(
                f"residual vanishes to order {res.order}")
        if v > 5:
            raise UnsupportedSingularity(f"corank 1 residual of order {v}")
        return ADEClass("A", v - 1)
    if corank == 2:
        v = res.valuation()
        if v is None:
            raise TruncationInsufficient(
                f"residual vanishes to order {res.order}")
        if v != 3:
            raise UnsupportedSingularity(
                f"corank 2 residual with valuation {v}")
        cubic = res.homogeneous_part(3)
        coeffs = [res.field.zero] * 4
        for e, c in cubic.items():
            coeffs[e[1]] = c
        kind, direction = _binary_cubic_double_root(coeffs, res.field)
        if kind == "distinct":
            return ADEClass("D", 4)
        if kind == "triple":
            raise UnsupportedSingularity("cubic with a triple factor (E type)")
        # restrict to the zero line of the double factor
        t_field = res.field
        tvar = Jet.variable(t_field, ("t",), res.order, "t")
        images = {res.vars[0]: tvar * direction[0], res.vars[1]: tvar * direction[1]}
        restricted = res.substitute(images)
        w = restricted.valuation()
        if w is None:
            raise TruncationInsufficient(
                f"restriction vanishes to order {restricted.order}")
        if w + 1 not in (4, 5):
            raise UnsupportedSingularity(f"D-series index {w + 1}")
        return ADEClass("D", w + 1)
    raise UnsupportedSingularity(f"corank {corank} germ")


def classify_singularity(surface, point) -> ADEClass:
    """ADE class of a singular point: its germ (:func:`exact_germ`) is
    built once, and only the splitting escalates, :func:`classify_germ`
    running on the germ truncated at the least order that settles it (see
    :func:`segrecusp.jets.escalate`)."""
    germ = exact_germ(surface, point)
    return escalate(lambda n: classify_germ(germ.truncate(n)))


# --------------------------------------------------------------------------
# adapted charts


def chart_quadrics(pencil, field, columns, names, order):
    """The two quadrics of S on the chart X = c_0 + t_1 c_1 + ... + t_k c_k.

    With t_0 = 1 and G = C^T M C, the restriction of a quadric M is
    sum_{a <= b} (2 - delta_ab) G_ab t_a t_b, so the jets in ``names`` (to
    total degree ``order``) are read off the Gram matrices with scalar
    products only.  ``columns`` lie over ``field``, the constant column first.
    With one name fewer than chart directions, t_1 is the line parameter x of
    Q(x) and each coefficient is a polynomial of degree at most 2 in x
    (the chart then lies over Q).

    Both quadrics are read in one pass over the upper triangles a <= b of
    their Gram matrices, formed on integers
    (:func:`~segrecusp.linalg.upper_gram_numerators`), G = N / d: each
    coefficient is an integer polynomial over d, taken into Q(x) by
    :func:`~segrecusp.fields._canonical`, or into the field with one
    ``fractions`` call per jet.  Each (a, b) gives its own term: a monomial
    in ``names`` and, over Q(x), a power of x.
    """
    fold = len(columns) - 1 - len(names)      # 1: t_1 is folded into Q(x)
    units = [tuple(int(i == j) for i in range(len(names)))
             for j in range(len(names))]
    # exponent over ``names`` and power of x of each chart coordinate t_a
    exps = [(0,) * len(names)] * (1 + fold) + units
    xdeg = [0, fold] + [0] * (len(columns) - 2)
    jets = []
    for N, d in upper_gram_numerators(field, pencil.numerators(field),
                                      columns):
        polys = {}
        for (a, b), g in N.items():
            e = tuple(i + j for i, j in zip(exps[a], exps[b]))
            polys.setdefault(e, [0, 0, 0])[xdeg[a] + xdeg[b]] = \
                (2 - (a == b)) * g
        if fold:
            jets.append(Jet(RationalFunctions("x"), names, order,
                            {e: _canonical(_ptrim(p), (d,))
                             for e, p in polys.items()}))
        else:
            jets.append(Jet(field, names, order, dict(zip(
                polys, field.fractions([p[0] for p in polys.values()], d)))))
    return tuple(jets)


@dataclass
class AdaptedChart:
    """Exact linear chart: X = c0 + x c1 + y c2 + z c3 + w c4.

    The base point is c0, the tangent plane maps to {z = w = 0}, and a
    line the chart is aligned to (:func:`adapted_chart`) to {y = z = w = 0}.
    """

    surface: SurfaceInstance
    field: object
    columns: list            # five 5-vectors over field
    base_point: ProjectivePoint

    VAR_NAMES = ("x", "y", "z", "w")

    @cached_property
    def _quadrics(self):
        # degree 2: read off the Gram matrices once, whatever the order
        return chart_quadrics(self.surface.pencil, self.field, self.columns,
                              self.VAR_NAMES, 2)

    def chart_jets(self, order):
        """The two quadrics as jets in (x, y, z, w) centered at the base point."""
        return tuple(q.clone(q.coeffs, order) for q in self._quadrics)

    @cached_property
    def _line_quadrics(self):
        # as _quadrics, with x folded into Q(x)
        return chart_quadrics(self.surface.pencil, self.field, self.columns,
                              self.VAR_NAMES[1:], 2)

    def line_jets(self, order):
        """The two quadrics as jets in (y, z, w) over Q(x), x the parameter
        of the aligned rational line."""
        return tuple(q.clone(q.coeffs, order) for q in self._line_quadrics)

    def solve_graph(self, order):
        """F, G with the surface locally {z = F(x,y), w = G(x,y)}."""
        q1, q2 = self.chart_jets(order)
        return hensel_solve([q1, q2], ("z", "w"), order=order)

    def hyperplane_from_dual(self, lam, mu):
        """The hyperplane with section germ lam*F + mu*G (5 covector entries)."""
        field = self.field
        A = [[self.columns[j][i] for j in range(5)] for i in range(5)]
        Ainv = mat_inv(field, A)
        lam, mu = field.coerce(lam), field.coerce(mu)
        return tuple(Ainv[3][i] * lam + Ainv[4][i] * mu for i in range(5))

    def dual_coords(self, hyperplane):
        """(lam, mu) of a hyperplane containing the tangent plane."""
        field = self.field
        h = [field.coerce(c) for c in hyperplane]
        for i in range(3):
            if sum(h[k] * self.columns[i][k] for k in range(5)):
                return None
        lam = sum(h[k] * self.columns[3][k] for k in range(5))
        mu = sum(h[k] * self.columns[4][k] for k in range(5))
        return (lam, mu)


def adapted_chart(surface, point, line=None) -> AdaptedChart:
    """Chart at a smooth point; optionally align a line to {y = z = w = 0}.

    The columns are a basis of the tangent plane, p first, then the unit
    vectors at the pivot columns of the gradient rows, all from
    :meth:`SurfaceInstance.tangent_frame`.  With a line, the tangent basis
    is p, the first spanning vector d of the line and the first other
    tangent vector t that are independent, read off the 3 x 3 determinant of
    their coordinates at the free columns.  There t is a unit vector, so
    the determinant is, up to sign, the 2 x 2 minor of p and d at the two
    free columns other than t's.  The line's tangent-plane test and that
    minor are read on the numerators of p and of the span.
    """
    tangent, rows, pivots, field = surface.tangent_frame(point)
    if line is not None:
        if line.exactness != "exact":
            raise PointNotOnLine("chart alignment needs an exact line")
        if not line.contains(point):
            raise PointNotOnLine(f"{point} is not on the line")
        span = line.span_over(field)
        nums = [field.numerators(d)[0] for d in span]
        if any(_dot(row, d) for row in rows for d in nums):
            raise PointNotOnLine(f"line is not inside the tangent plane at "
                                 f"{point}")
        free = [c for c in range(5) if c not in pivots]
        p, pn = tangent[0], field.numerators(tangent[0])[0]

        def independent(d, t):
            i, j = (f for f in free if not t[f])
            return pn[i] * d[j] - pn[j] * d[i]

        tangent = [p, *next((d, t) for d, dn in zip(span, nums)
                            for t in tangent[1:] if independent(dn, t))]
    units = identity(field, 5)
    return AdaptedChart(surface=surface, field=field,
                        columns=tangent + [units[j] for j in pivots],
                        base_point=point)


# --------------------------------------------------------------------------
# exact rational points via cones over singular points


def _isotropic_seed(M, surface_points=()):
    """A rational point on the member quadric M that is smooth on it.

    Kernel vectors are the cone's vertex and cannot seed the stereographic
    sweep; any other singular point of the surface lies on every member and
    works, otherwise small coordinate combinations are scanned.
    """
    units = identity(QQ, 5)
    scales = (1, -1, 2, -2)
    # generated as they are tried: most calls stop at an early candidate
    candidates = chain(
        (list(p.coords) for p in surface_points if p.is_rational), units,
        ([a + s * b for a, b in zip(units[i], units[j])]
         for i, j in combinations(range(5), 2) for s in scales),
        ([c1 * a + s * b + t * c
          for a, b, c in zip(units[i], units[j], units[k])]
         for i, j, k in combinations(range(5), 3)
         for c1, s, t in product((1, 2), scales, scales)))
    # the vertex is ker M: the vectors with M v = 0
    return next((v for v in candidates if not gram_matrix(QQ, M, [v])[0][0]
                 and any(mat_vec(QQ, M, v))), None)


def sample_rational_points(surface, count, rng=None, avoid=None,
                           max_attempts=4000):
    """Exact smooth rational points on the surface: the base points of
    :func:`sample_charts`."""
    return [chart.base_point for chart in sample_charts(
        surface, count, rng=rng, avoid=avoid, max_attempts=max_attempts)]


def sample_charts(surface, count, rng=None, avoid=None, max_attempts=4000):
    """Adapted charts at exact smooth rational points on the surface, drawn
    from a dense family.

    Uses the attached parameterization when the surface has one, otherwise
    sweeps lines through a singular point inside a degenerate member's cone.
    ``avoid`` is a predicate rejecting unwanted points (e.g. on a line).  A
    candidate it passes is kept when its chart builds: the rank test of the
    gradient rows in :meth:`SurfaceInstance.tangent_frame` is the
    smoothness test (:class:`PointSingular`).  Both constructions put every
    candidate on S, so one off S is an error (:class:`NotOnSurface`).
    """
    rng = rng or random.Random(surface.seed)
    out = []

    def accept(p):
        if (p is None or any(chart.base_point == p for chart in out)
                or avoid is not None and avoid(p)):
            return
        try:
            out.append(adapted_chart(surface, p))
        except PointSingular:
            pass

    if surface.point_source is not None:
        for _ in range(max_attempts):
            if len(out) >= count:
                return out
            accept(surface.point_source(rng))
        raise RetryExhausted("parameterized point sampling exhausted attempts")

    strategies = surface.sampling_strategies()
    if not strategies:
        raise RetryExhausted(
            "no exact point strategy: surface has no usable singular cone "
            "and no parameterization")
    P, Q = surface.pencil.numerators(QQ)
    for _ in range(max_attempts):
        if len(out) >= count:
            return out
        _, s_pt, seed_vec, M = strategies[rng.randrange(len(strategies))]
        w = [Fraction(rng.randint(-9, 9)) for _ in range(5)]
        G = scaled_gram(QQ, M, [seed_vec, w])
        if not G[1][1]:
            continue
        d = second_intersection(G, seed_vec, w)
        if not any(d):
            continue
        s = list(s_pt.coords)
        (_, bp), (_, qp_d) = scaled_gram(QQ, P, [s, d])
        (_, bq), (_, qq_d) = scaled_gram(QQ, Q, [s, d])
        if qq_d:
            tau = -2 * bq / qq_d
        elif qp_d:
            tau = -2 * bp / qp_d
        else:
            continue
        if not tau:
            continue
        coords = [s[k] + tau * d[k] for k in range(5)]
        if not any(coords):
            continue
        p = ProjectivePoint.make(QQ, coords)
        accept(p)
    if len(out) < count:
        raise RetryExhausted(
            f"found only {len(out)} of {count} rational points")
    return out


def _in_kernel(member, point):
    vecs = member.kernel + [list(point.coords)]
    return mat_rank(QQ, vecs) == len(member.kernel)


# --------------------------------------------------------------------------
# double-conic hyperplanes from rank-3 members


def double_conic_hyperplane(surface, member, point):
    """The hyperplane N p of the rank-3 member N at a smooth point p of S,
    normalized, over the field of p: its section is a doubled conic
    through p, which :class:`~segrecusp.cusplocus.HessianAtPoint` reads as
    c = 3.  A point off S is a :class:`NotOnSurface` error and a singular
    point a :class:`PointSingular` one.

    *Proof.*  N is a cone over a smooth conic whose vertex is the line
    V = ker N.  V meets S only in singular points (there N x = 0 makes
    P x and Q x dependent), so at a smooth p, N p is nonzero, and the
    hyperplane N p is the cone's tangent hyperplane along the plane
    Pi = <V, p>: N restricted to it has rank 1, Pi counted twice.  S is
    cut on N p by that double plane and one other member, so S ∩ N p =
    2 (Pi ∩ S), a doubled conic through p (Dolgachev, *Classical
    Algebraic Geometry*, CUP 2012, ch. 8).
    """
    if member.rank != 3:
        raise ValueError("member must have rank 3")
    if not surface.is_smooth_at(point):
        raise PointSingular(f"{point} must be smooth")
    N = surface.pencil.member(*member.root)
    return proj_normalize(mat_vec(point.field, N, list(point.coords)))

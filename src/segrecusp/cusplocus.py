"""The cuspidal-locus data of a Segre surface.

For a smooth point p and local graph presentation z = F(x,y), w = G(x,y),
the hyperplanes through the tangent plane T_pS form a pencil (lam : mu), and
the section by such a hyperplane has a non-nodal singularity at p exactly
when the binary quadratic

    Hess(F) lam^2 + (F_xx G_yy + G_xx F_yy - 2 F_xy G_xy) lam mu + Hess(G) mu^2

vanishes.  At a point this module reads that form, the class of each
root section and, at a point of a line, the tacnodal hyperplane off one
integer Gram block N of the two quadrics on the chart columns, with no jets
(:class:`HessianAtPoint`): the tacnodal (lam : mu) is the root of N's entry
A(c_1, c_2), c_1 along the line, and it degenerates where N's entry
A(c_1, u) vanishes at that root.  Along lines it computes the form as jets
over Q(x), and derives the divisor multiplicities and branch data of the
induced double covering.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (CrossCheckMismatch, HyperplaneNotTangent, NoDoubleRoot,
                     NonGenericPoint, NotOnSurface, PointNotOnLine,
                     PointSingular, RootFieldUnsupported, SegreCuspError,
                     SingularJacobian, TowerUnsupported,
                     TruncationInsufficient)
from .fields import QQ, _bmul, _bsub, _integral, _zdivmod, quadratic_roots
from .jets import (BinaryQuadratic, InfiniteOrder, Jet, escalate,
                   hensel_solve, splitting_reduce, y_order)
from .linalg import gram_numerators, nullspace, solve_linear
from .surface import AdaptedChart, ProjectivePoint, adapted_chart


# --------------------------------------------------------------------------
# the Hessian form at a point


def _hessian_form(fxx, fxy, fyy, gxx, gxy, gyy):
    """(Hess F, K, Hess G) from the second derivatives of F and G."""
    return (fxx * fyy - fxy * fxy,
            fxx * gyy + gxx * fyy - 2 * fxy * gxy,
            gxx * gyy - gxy * gxy)


# A binary form of degree n in (lam, mu) is the list of its n + 1 integer
# coefficients, ascending in lam: g[i] multiplies lam^i mu^(n - i).


def _vanishes(f, g):
    """Whether the binary form g vanishes at the roots of f, f irreducible
    over Q of degree 1 or 2 (or a multiple of one): f divides g, since g
    vanishes at one root of f only if the minimal polynomial f divides it.
    f = c mu divides g when g's lam^n coefficient is 0; any other f divides
    g when f(t, 1) divides g(t, 1), one pseudo-remainder over Z."""
    if not f[-1]:
        return not g[-1]
    return not _zdivmod(g, f)[1]


def _linear_form(lam, mu):
    """The integer linear form that vanishes at the rational (lam : mu)."""
    (l, m), _ = _integral((lam, mu))
    return [-l, m]


class HessianAtPoint:
    """The Hessian form at a chart's base point p, and the class of the
    section by each hyperplane through T_pS, from the Gram matrices
    G_M = C^T M C of M = P, Q on the chart columns c_0 = p, ..., c_4, over
    Z: the chart must lie over Q (else :class:`RootFieldUnsupported`).

    **Form.**  L = 2 [[G_P(0,3), G_P(0,4)], [G_Q(0,3), G_Q(0,4)]] is the
    Jacobian of the chart quadrics in (z, w), so the graph's second-order
    part is (F_2, G_2) = -L^-1 (q_P, q_Q), q_M the (c_1, c_2) block of G_M
    as a quadratic form.  A column c_j not tangent at p (a linear part
    (F_j, G_j) of the graph) is read as c_j + F_j c_3 + G_j c_4.  Each G_M
    is formed once, on integers (:func:`gram_numerators`; again only after
    such a correction), and its denominator is dropped: -L^-1 (q_P, q_Q)
    does not see it, and neither do the ranks below.  So the second
    derivatives are integers over delta = det(L/2) (the coefficients of
    the member A below on c_1, c_2), and the form is an integer form over
    delta^2.

    **Sections.**  H of (lam : mu) is spanned by p, c_1, c_2 and
    u = mu c_3 - lam c_4.  The member A = alpha P + beta Q with A(p, u) = 0
    has p in the kernel of A|_H, so, B(p, u) being nonzero,
    det (A + tB)|_H = -t^2 B(p, u)^2 Hess(A + tB) vanishes at t = 0 to
    order k = 2 + the multiplicity of (lam : mu) as a root of the form,
    and A|_H has corank c = 4 - the rank of the Gram matrix N of A on
    (c_1, c_2, u).  S ∩ H is the base curve of the pencil on H, of Segre
    symbol weight k on c blocks at A; by the classification of pencils of
    quadrics in P^3 its germ at p is a node for k = 2, an ordinary cusp
    for (k, c) = (3, 1), a tacnode for (4, 1) (a twisted cubic and a
    tangent line) and (3, 2) (two conics tangent at p), and a doubled
    conic where A|_H has rank at most 1.  Any other (k, c) reads ``Other``.

    **Orbits.**  N's entries are integer binary forms in (lam, mu) of
    degree 1 to 3, built once.  Its rank at (lam : mu) is read at once for
    every root of an irreducible form f over Z (a Galois orbit): f divides
    a form g iff g vanishes at one root of f, so the determinant, each 2 x
    2 minor and each entry is tested with one pseudo-remainder over Z
    (:func:`_vanishes`), each as a whole.  A rational (lam : mu) is the
    orbit of its linear form (:func:`_linear_form`); a conjugate pair of
    Hessian roots needs no Q(sqrt d).

    **Along a line.**  Where c_1 spans a line through p, the line lies on
    S iff A(c_1, c_1) = 0 for every member, and the graph is
    (F, G) = y (f, g).  The tacnodal hyperplane (lam : mu) = (g_x : -f_x)
    is the root of N's entry A(c_1, c_2), a linear form [a_0, a_1] whose
    coefficients are delta (G_xy, F_xy): (lam, mu) = (a_0, -a_1) / delta.
    The residual restriction lam f + mu g has a double root at p unless it
    degenerates to a higher one, which happens where N's entry A(c_1, u)
    vanishes at that root (:func:`tacnodal_hyperplane_on_line`).
    """

    def __init__(self, point, chart):
        if chart.field != QQ:
            raise RootFieldUnsupported(
                f"section classes need a chart over Q, not {chart.field}")
        self.point, self.chart = point, chart
        scaled = chart.surface.pencil.numerators(QQ)
        grams = [gram_numerators(QQ, M, chart.columns)[0] for M in scaled]
        # G_M(0, j) = c_j . M p
        (_, p1, p2, p3, p4), (_, q1, q2, q3, q4) = (g[0] for g in grams)
        delta = p3 * q4 - p4 * q3
        if not delta:
            raise SingularJacobian(
                "Jacobian in the solve variables is singular at 0")
        if p1 or p2 or q1 or q2:
            c0, c1, c2, c3, c4 = chart.columns
            tangent = []
            for c, gp, gq in ((c1, p1, q1), (c2, p2, q2)):
                # -2 L^-1 (gp, gq) = -(q4 gp - p4 gq, p3 gq - q3 gp) / delta
                slope = [Fraction(p4 * gq - q4 * gp, delta),
                         Fraction(q3 * gp - p3 * gq, delta)]
                tangent.append([a + slope[0] * b + slope[1] * d
                                for a, b, d in zip(c, c3, c4)])
            grams = [gram_numerators(QQ, M, [c0, *tangent, c3, c4])[0]
                     for M in scaled]
        (gP, p3, p4), (gQ, q3, q4) = (
            ([row[1:] for row in g[1:]], g[0][3], g[0][4]) for g in grams)
        self._delta = delta = p3 * q4 - p4 * q3

        def member(i, j):
            # A_ij = alpha G_P(i, j) + beta G_Q(i, j), alpha = q3 mu - q4 lam
            # and beta = p4 lam - p3 mu
            return [q3 * gP[i][j] - p3 * gQ[i][j], p4 * gQ[i][j] - q4 * gP[i][j]]

        def with_u(i):
            # A(c_i, u) = mu A_i2 - lam A_i3
            x, y = member(i, 2), member(i, 3)
            return [x[0], x[1] - y[0], -y[1]]

        n00, n01, n11 = member(0, 0), member(0, 1), member(1, 1)
        x, y, z = member(2, 2), member(2, 3), member(3, 3)
        # A(u, u) = mu^2 A_22 - 2 lam mu A_23 + lam^2 A_33
        self._block = (n00, n01, with_u(0), n11, with_u(1),
                       [x[0], x[1] - 2 * y[0], z[0] - 2 * y[1], z[1]])
        # the second derivatives -2 L^-1 (G_P(i, j), G_Q(i, j)) of (F, G)
        # are the lam and the mu coefficients of A_ij over delta
        form = _hessian_form(n00[1], n01[1], n11[1], n00[0], n01[0], n11[0])
        self.form = BinaryQuadratic(
            *(Fraction(x, delta * delta) for x in form))
        self.discriminant = self.form.discriminant()
        g = math.gcd(*form) or 1
        self._form = [x // g for x in reversed(form)]

    @property
    def has_two_distinct_roots(self):
        return bool(self.discriminant)

    @cached_property
    def roots(self):
        """[(field, (lam, mu), multiplicity)] from :func:`quadratic_roots`,
        computed when first read."""
        return quadratic_roots(*self.form.coefficients(), self.chart.field) or []

    @cached_property
    def _minors(self):
        """N's 2 x 2 minors M_00, M_01, M_02, M_11, M_12, M_22 (rows and
        columns i and j deleted; N is symmetric)."""
        n00, n01, n02, n11, n12, n22 = self._block
        return (_bsub(_bmul(n11, n22), _bmul(n12, n12)),
                _bsub(_bmul(n01, n22), _bmul(n12, n02)),
                _bsub(_bmul(n01, n12), _bmul(n11, n02)),
                _bsub(_bmul(n00, n22), _bmul(n02, n02)),
                _bsub(_bmul(n00, n12), _bmul(n01, n02)),
                _bsub(_bmul(n00, n11), _bmul(n01, n01)))

    @cached_property
    def _det(self):
        n00, n01, n02 = self._block[:3]
        m00, m01, m02 = self._minors[:3]
        return [a - b + c for a, b, c in
                zip(_bmul(n00, m00), _bmul(n01, m01), _bmul(n02, m02))]

    def rank_at(self, f):
        """The rank of N at the roots of f (see :func:`_vanishes`)."""
        if not _vanishes(f, self._det):
            return 3
        if not all(_vanishes(f, m) for m in self._minors):
            return 2
        return 0 if all(_vanishes(f, e) for e in self._block) else 1

    def root_orbits(self):
        """The Galois orbits over Q of the form's roots, in the order of
        :attr:`roots`: (f, n), f the integer form of the orbit, irreducible
        over Q, and n the number of roots that :attr:`roots` lists in it.
        Rational roots are told from a conjugate pair by ``math.isqrt`` of
        the discriminant."""
        c, b, a = self._form
        if not (a or b or c):
            return []
        if not a:
            # the root (1 : 0), then (-c : b)
            return [([1, 0], 1)] + ([([c, b], 1)] if b else [])
        disc = b * b - 4 * a * c
        s = math.isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
            return [(self._form, 2)]
        # the roots (-b + s : 2a) and (-b - s : 2a)
        return [([b - s, 2 * a], 1)] + ([([b + s, 2 * a], 1)] if s else [])

    def section_invariants(self, f):
        """(k, c) of the sections by the hyperplanes of the roots of f, an
        integer binary form irreducible over Q (:meth:`root_orbits`,
        :func:`_linear_form`); k is ``math.inf`` where the form is zero."""
        form = self._form
        c, b, a = form
        multiplicity = (0 if not _vanishes(f, form)
                        else 1 if b * b - 4 * a * c
                        else 2 if a or b or c else math.inf)
        return 2 + multiplicity, 4 - self.rank_at(f)

    def section_class(self, f):
        k, c = self.section_invariants(f)
        if c >= 3:
            return SectionGermClass("PerfectSquare", detail="double conic")
        if k == 2:
            return SectionGermClass("A1_node")
        if (k, c) == (3, 1):
            return SectionGermClass("A2_cusp")
        if (k, c) in ((4, 1), (3, 2)):
            return SectionGermClass("A3_tacnode")
        return SectionGermClass("Other", detail=f"(k, c) = ({k}, {c})")


def hessian_form_at(surface, point, chart=None) -> HessianAtPoint:
    """The binary quadratic detecting non-nodal sections at a smooth point,
    read off Gram entries with no graph solve (:class:`HessianAtPoint`).
    The point must lie over Q (else :class:`RootFieldUnsupported`)."""
    if chart is None:
        chart = adapted_chart(surface, point)
    return HessianAtPoint(point, chart)


# --------------------------------------------------------------------------
# section germ classification


@dataclass(frozen=True)
class SectionGermClass:
    kind: str                     # Smooth | A1_node | A2_cusp | A3_tacnode |
    detail: str = ""              # Other | PerfectSquare

    def __str__(self):
        return self.kind


def classify_plane_germ(h: Jet) -> SectionGermClass:
    """Classify a plane-curve germ h(x, y) with vanishing 1-jet.

    A germ zero to its truncation order, or whose residual vanishes to it,
    reads ``Other``, and its detail says so: a higher order may change it.
    A jet never reads ``PerfectSquare``: a square u s**2 has Hessian rank
    at most 1 and a residual zero to every order.  The section classes of
    this module come from :class:`HessianAtPoint`; this reading of a jet is
    their reference in the tests.
    """
    h = h - Jet(h.field, h.vars, h.order,
                {e: c for e, c in h.coeffs.items() if sum(e) <= 1})
    if h.is_zero():
        return SectionGermClass("Other", detail="zero to truncation order")
    split = splitting_reduce(h)
    if split.rank == 2:
        return SectionGermClass("A1_node")
    if split.rank == 1:
        v = split.residual.valuation()
        if v is None:
            return SectionGermClass(
                "Other",
                detail=f"residual vanishes to order {split.residual.order}")
        if v == 3:
            return SectionGermClass("A2_cusp")
        if v == 4:
            return SectionGermClass("A3_tacnode")
        return SectionGermClass("Other", detail=f"A{v - 1} residual")
    return SectionGermClass("Other", detail="corank 2 plane germ")


def classify_section_germ(surface, point, hyperplane) -> SectionGermClass:
    """Classify the germ at ``point`` of the section by ``hyperplane``.

    A hyperplane through the point but not its tangent plane cuts a smooth
    germ.  Otherwise the class is read off exactly, with no graph solve,
    from the order k at which det((A + tB)|_H) vanishes and the corank c of
    A|_H, A the member singular at the point (:class:`HessianAtPoint`), so
    only at a point over Q (else :class:`RootFieldUnsupported`).
    """
    chart = adapted_chart(surface, point)
    duals = chart.dual_coords(hyperplane)
    if duals is None:
        h = [chart.field.coerce(c) for c in hyperplane]
        if sum(h[k] * chart.columns[0][k] for k in range(5)):
            raise HyperplaneNotTangent("hyperplane misses the point")
        return SectionGermClass("Smooth")
    # dual_coords reads (lam, mu) in the chart's field
    return HessianAtPoint(point, chart).section_class(_linear_form(*duals))


# --------------------------------------------------------------------------
# the trichotomy at a generic point


@dataclass
class PointCase:
    case: str                      # CaseI | CaseII | CaseIII
    root_classes: tuple
    hessian: HessianAtPoint


def point_case(surface, point, chart=None) -> PointCase:
    """Classify both Hessian-root sections at a smooth point off all lines,
    on ``chart`` (by default :func:`adapted_chart` at the point).

    The form and the root classes are read off one set of Gram entries,
    exactly, over Z and with no graph solve (:class:`HessianAtPoint`): a
    simple root cuts an ordinary cusp where the member A singular at p
    restricts to its hyperplane H with corank 1, and a doubled conic where
    A|_H has rank at most 1.  A degenerate form or any other class makes
    the point not generic.  Each Galois orbit of roots is classified once
    (:meth:`HessianAtPoint.root_orbits`): for an irreducible factor f of the
    form over Z, f divides a form g iff g vanishes at one root of f, so one
    reading serves both roots of a conjugate pair, with no Q(sqrt d).  The
    classes keep the order of :attr:`HessianAtPoint.roots`.
    """
    hess = hessian_form_at(surface, point, chart)
    if not hess.has_two_distinct_roots:
        raise NonGenericPoint(
            f"Hessian form at {point} is degenerate; the point is not generic")
    classes = tuple(cls for f, n in hess.root_orbits()
                    for cls in [hess.section_class(f)] * n)
    kinds = sorted(c.kind for c in classes)
    squares = kinds.count("PerfectSquare")
    if squares == 2:
        case = "CaseI"
    elif squares == 1 and "A2_cusp" in kinds:
        case = "CaseII"
    elif kinds == ["A2_cusp", "A2_cusp"]:
        case = "CaseIII"
    else:
        # e.g. a tacnodal section: the point sits on a special curve
        raise NonGenericPoint(
            f"root classification {kinds} at {point} is not generic")
    return PointCase(case=case, root_classes=classes, hessian=hess)


def sample_point_cases(surface, count, rng=None):
    """Point cases (see :func:`point_case`) at ``count`` generic rational
    points, each on the chart that sampled it (:func:`sample_charts`),
    resampling the occasional hit on a special curve."""
    from .surface import sample_charts

    rng = rng or random.Random(surface.seed + 3)
    out = []
    seen = set()
    for _ in range(8 * count + 16):
        if len(out) >= count:
            return out
        (chart,) = sample_charts(surface, 1, rng=rng,
                                 avoid=lambda q: _on_any_line(surface, q)
                                 or q in seen)
        p = chart.base_point
        seen.add(p)
        try:
            out.append((p, point_case(surface, p, chart)))
        except NonGenericPoint:
            continue
    raise SegreCuspError(f"found only {len(out)} of {count} generic points")


# --------------------------------------------------------------------------
# the Hessian form along a line (jets over Q(x))


@dataclass
class HessianAlongLine:
    line: object
    chart: AdaptedChart
    form: BinaryQuadratic            # coefficients are jets in y over Q(x)
    coefficient_orders: tuple        # y-orders of (Hess F, K, Hess G)
    m: int                           # multiplicity of pi_1^{-1}(l) in D_1
    disc_order: int
    branch_mult: int
    F: Jet
    G: Jet


def line_chart(surface, line):
    """Chart over Q(x) aligned to an exact rational line.

    Sends the line to {y = z = w = 0} with x the line parameter; the base
    point (at x = 0) is the first smooth one of a fixed list on the line,
    with the tangent plane at it mapped to {z = w = 0}.  A singular base
    point costs one rank test of its integer gradient rows
    (:meth:`~segrecusp.surface.SurfaceInstance.tangent_frame`).  A base
    point off S, or a line leaving the tangent plane at a smooth one, shows
    that the line is not on S (:class:`NotOnSurface`, naming the line).
    The graph of S over (x, y) is then solvable along the line: at x = 0
    the Jacobian in (z, w) is the minor of the gradient rows at their
    pivot columns, so its determinant is not identically zero.
    """
    if line.field() != QQ:
        raise TowerUnsupported("line chart needs a rational line")
    a, b = line.span_over(QQ)
    for t in (0, 1, 2, 3, 5, 7, -1, -2, 11, 13, -3, 4, 6, 8, 9, 10, -5, 12,
              -7, 15):
        base = ProjectivePoint.make(QQ, [ai + t * bi for ai, bi in zip(a, b)])
        try:
            return adapted_chart(surface, base, line)
        except PointSingular:
            continue
        except (NotOnSurface, PointNotOnLine) as exc:
            raise NotOnSurface(f"{line} is not on the surface: {exc}") from None
    raise SegreCuspError(f"no smooth base point found on {line}")


def line_report(surface, line, chart=None) -> HessianAlongLine:
    """Hessian data along an exact line: the D_1 multiplicity m, the
    discriminant order, and the branch multiplicity disc_order - 2m.

    Solved from :data:`segrecusp.jets.START_ORDER`, escalating as
    :func:`segrecusp.jets.escalate` does; the order used is ``rep.F.order``.
    """
    if chart is None:
        chart = line_chart(surface, line)
    return escalate(lambda n: _line_report_at_order(line, chart, n))


def _line_graph(chart, order):
    """F, G over Q(x) with S = {z = F(x, y), w = G(x, y)} along the line
    aligned by ``chart``."""
    return hensel_solve(list(chart.line_jets(order)), ("z", "w"), order=order)


def _line_report_at_order(line, chart, order):
    F, G = _line_graph(chart, order)

    def split_derivs(J):
        Jx = J.coefficient_derivative()
        return (Jx.coefficient_derivative(), Jx.derivative("y"),
                J.derivative("y").derivative("y"))

    a, b, c = _hessian_form(*split_derivs(F), *split_derivs(G))
    orders = tuple(y_order(j, "y") for j in (a, b, c))
    m = _line_multiplicity(orders)
    disc = b * b - 4 * (a * c)
    d_ord = y_order(disc, "y")
    if isinstance(d_ord, InfiniteOrder):
        raise TruncationInsufficient(
            f"discriminant vanishes to order {d_ord.truncation_order} along the line")
    branch = d_ord - 2 * m
    if branch < 0:
        raise CrossCheckMismatch(
            f"discriminant order {d_ord} below twice the coefficient order {m}")
    return HessianAlongLine(line=line, chart=chart,
                            form=BinaryQuadratic(a, b, c),
                            coefficient_orders=orders, m=m,
                            disc_order=d_ord, branch_mult=branch, F=F, G=G)


def section_line_multiple(rep, hyperplane):
    """How many times the section by a hyperplane H through the line of
    the line report ``rep`` contains that line, exact over Q(x): in the
    line chart, where H.c0 = H.c1 = 0, the section is (H.c2) y + (H.c3) F
    + (H.c4) G, and the multiple is its y-order.  Read off ``rep``'s graph,
    escalating while the section is zero to truncation."""
    dots = [sum(Fraction(hk) * ck for hk, ck in zip(hyperplane, col))
            for col in rep.chart.columns]
    if dots[0] or dots[1]:
        raise SegreCuspError("hyperplane does not contain the line")

    def at_order(n):
        F, G = ((rep.F, rep.G) if n == rep.F.order
                else _line_graph(rep.chart, n))
        y = Jet.variable(F.field, ("y",), n, "y")
        k = y_order(y * dots[2] + F * dots[3] + G * dots[4], "y")
        if isinstance(k, InfiniteOrder):
            raise TruncationInsufficient(
                f"section vanishes to order {n} along the line")
        return k

    return escalate(at_order, rep.F.order)


def _line_multiplicity(orders):
    """m = the least y-order of (Hess F, K, Hess G), read only where settled.

    A coefficient that is zero to its truncation order k is only known to
    vanish to order k + 1 or more, so the least finite order is taken as m
    only when it is at most k; otherwise the caller raises the order.
    """
    finite = [o for o in orders if not isinstance(o, InfiniteOrder)]
    if not finite:
        raise TruncationInsufficient(
            "all Hessian coefficients vanish to their truncation order along "
            "the line")
    m = min(finite)
    for o in orders:
        if isinstance(o, InfiniteOrder) and m > o.truncation_order:
            raise TruncationInsufficient(
                f"m = {m} exceeds the order {o.truncation_order} to which a "
                "Hessian coefficient is known to vanish")
    return m


# --------------------------------------------------------------------------
# tacnodal hyperplanes along a line


def tacnodal_hyperplane_on_line(surface, line, point):
    """The unique tangent-direction hyperplane along a line at a point.

    Writes F = y f, G = y g in the line-aligned chart at the point; the
    residual intersection with the line of the section by (lam : mu) is the
    root set of (lam f + mu g)(x, 0).  Returns the hyperplane whose
    restriction has a double root at x = 0, with the class of its section
    germ (a tacnode for generic points), all read off the Gram block N of
    :class:`HessianAtPoint`, with no graph solve, so only at a point over Q
    (else :class:`RootFieldUnsupported`): (lam : mu) is the root of N's
    entry A(c_1, c_2), and the double root degenerates to a higher one
    where N's entry A(c_1, u) vanishes at that root.
    """
    chart = adapted_chart(surface, point, line)
    hess = HessianAtPoint(point, chart)
    on_line, direction, along_u = hess._block[:3]
    if any(on_line):
        raise SegreCuspError("graph functions do not vanish on the line")
    if not any(direction):
        raise NoDoubleRoot("restriction to the line is degenerate at the point")
    if _vanishes(direction, along_u):
        raise NoDoubleRoot("double root degenerates to higher order")
    a0, a1 = direction
    lam, mu = Fraction(a0, hess._delta), Fraction(-a1, hess._delta)
    return (chart.hyperplane_from_dual(lam, mu), hess.section_class(direction),
            (lam, mu), chart)


def dual_plane_conic_fit(hyperplanes, line):
    """Fit a conic in the dual plane l* through five hyperplanes, check six.

    Hyperplanes containing the line form a CP2 inside the dual CP4; returns
    (conic coefficients in a basis of that plane, residuals on all inputs).
    """
    a, b = line.span_over(QQ)
    rows = [a, b]
    basis = nullspace(QQ, rows)  # covectors vanishing on the line
    if len(basis) != 3:
        raise CrossCheckMismatch(f"{line} does not span a line")
    coords = []
    for h in hyperplanes:
        sol = _express_in_basis(h, basis)
        coords.append(sol)
    monomials = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]

    def mono_row(c):
        return [c[i] * c[j] for i, j in monomials]

    system = [mono_row(c) for c in coords[:5]]
    kernel = nullspace(QQ, system)
    if not kernel:
        raise SegreCuspError("five hyperplanes do not determine a conic")
    conic = kernel[0]
    residuals = [sum(q * m for q, m in zip(conic, mono_row(c))) for c in coords]
    return conic, residuals


def _express_in_basis(h, basis):
    M = [[basis[j][i] for j in range(3)] for i in range(5)]
    sol = solve_linear(QQ, M, [Fraction(c) for c in h])
    if sol is None:
        raise SegreCuspError("hyperplane does not contain the line")
    return sol


# --------------------------------------------------------------------------
# branch scan and summary


@dataclass
class LineBranchRecord:
    line: object
    exact: bool
    m: object = None
    disc_order: object = None
    branch_mult: object = None
    coefficient_orders: tuple = ()
    order_used: object = None     # truncation order of an exact report
    evidence: dict = dc_field(default_factory=dict)


@dataclass
class BranchReport:
    records: list
    offline_points_checked: int
    offline_all_two_roots: bool
    anomalies: list = dc_field(default_factory=list)


def line_branch_record(surface, line) -> LineBranchRecord:
    """The branch data of one line: exact from :func:`line_report` on an
    exact rational line, whose errors propagate, and numeric evidence
    (:func:`numeric_line_branch_evidence`) on any other line."""
    if line.exactness == "exact" and line.field() == QQ:
        rep = line_report(surface, line)
        return LineBranchRecord(
            line=line, exact=True, m=rep.m, disc_order=rep.disc_order,
            branch_mult=rep.branch_mult,
            coefficient_orders=rep.coefficient_orders,
            order_used=rep.F.order)
    return _numeric_record(surface, line)


def _numeric_record(surface, line):
    ev = numeric_line_branch_evidence(surface, line)
    return LineBranchRecord(
        line=line, exact=False, m=ev.get("m_estimate"),
        disc_order=ev.get("disc_order_estimate"),
        branch_mult=ev.get("branch_estimate"), evidence=ev)


def branch_scan(surface, offline_points=10) -> BranchReport:
    """Per-line branch data (:func:`line_branch_record`; an exact report
    that fails is an anomaly, and its line gets numeric evidence) plus a
    no-off-line-branching spot check."""
    from .lines import enumerate_lines
    from .surface import sample_charts

    if surface.lines is None:
        enumerate_lines(surface)
    records = []
    anomalies = []
    for line in surface.lines:
        try:
            records.append(line_branch_record(surface, line))
        except SegreCuspError as exc:
            anomalies.append(f"exact report failed on {line}: {exc}")
            records.append(_numeric_record(surface, line))

    ok = True
    checked = 0
    if offline_points:
        try:
            charts = sample_charts(
                surface, offline_points,
                avoid=lambda p: _on_any_line(surface, p))
        except SegreCuspError as exc:
            charts = []
            anomalies.append(f"off-line sampling unavailable: {exc}")
        for chart in charts:
            p = chart.base_point
            hess = hessian_form_at(surface, p, chart)
            checked += 1
            if not hess.has_two_distinct_roots:
                ok = False
                anomalies.append(f"double Hessian root off lines at {p}")
    return BranchReport(records=records, offline_points_checked=checked,
                        offline_all_two_roots=ok, anomalies=anomalies)


def _on_any_line(surface, point):
    """Whether the point lies on a known line: exactly, from the line's
    equations (:meth:`LineOnSurface.contains`), for an exact line; to 1e-7
    in floating point for a numeric one."""
    if not surface.lines:
        return False
    coords = None      # the point in floating point, made at a numeric line
    for line in surface.lines:
        if line.exactness != "exact":
            coords = coords or point.as_float()
            if line.contains_point_float(coords, tol=1e-7):
                return True
        elif line.contains(point):
            return True
    return False


# transversal offsets from the line at which numeric evidence is sampled
EVIDENCE_DELTAS = (1e-3, 5e-4, 2.5e-4)


def numeric_line_branch_evidence(surface, line):
    """Residual-level branch data for a line without an exact chart.

    Evaluates the three Hessian coefficients and their discriminant at
    surface points approached transversally to the line (offsets
    :data:`EVIDENCE_DELTAS`); the log-slope of the discriminant against the
    offset estimates its vanishing order.  Numeric evidence only, never an
    exact claim: its status is "inconsistent" where the samples' rounded
    slopes disagree or the estimates give d < 2m, which no exact report
    allows.
    """
    P = np.array([[float(c) for c in row] for row in surface.pencil.P])
    Q = np.array([[float(c) for c in row] for row in surface.pencil.Q])
    M = line.as_matrix_float()
    out = {"deltas": list(EVIDENCE_DELTAS)}
    samples = []
    for t in (0.3, 0.7):
        base = M[0] + t * M[1]
        base = base / np.linalg.norm(base)
        frame = _numeric_frame(P, Q, base, M)
        if frame is None:
            continue
        disc_vals, coeff_vals = [], []
        for d in EVIDENCE_DELTAS:
            pt = _project_to_surface(P, Q, base + d * frame[1], frame)
            if pt is None:
                break
            abc = _numeric_hessian(P, Q, pt, frame)
            if abc is None:
                break
            a, b, c = abc
            disc_vals.append(abs(b * b - 4 * a * c))
            coeff_vals.append(max(abs(a), abs(b), abs(c)))
        if len(disc_vals) == len(EVIDENCE_DELTAS):
            samples.append((coeff_vals, disc_vals))
    if not samples:
        out["status"] = "no numeric samples"
        return out
    m_slopes, disc_slopes = [], []
    for coeff_vals, disc_vals in samples:
        m_slopes.append(_log_slope(EVIDENCE_DELTAS, coeff_vals))
        disc_slopes.append(_log_slope(EVIDENCE_DELTAS, disc_vals))
    m_est = max(int(round(float(np.median(m_slopes)))), 0)
    d_est = max(int(round(float(np.median(disc_slopes)))), 0)
    agree = all(len({round(float(s)) for s in slopes}) == 1
                for slopes in (m_slopes, disc_slopes))
    out.update({
        "m_estimate": m_est,
        "disc_order_estimate": d_est,
        "branch_estimate": max(d_est - 2 * m_est, 0),
        "m_slopes": [float(s) for s in m_slopes],
        "disc_slopes": [float(s) for s in disc_slopes],
        "status": "ok" if agree and d_est >= 2 * m_est else "inconsistent",
    })
    return out


def _log_slope(deltas, values):
    xs = np.log(np.array(deltas, dtype=float))
    ys = np.log(np.maximum(np.array(values, dtype=float), 1e-300))
    A = np.vstack([xs, np.ones_like(xs)]).T
    slope, _ = np.linalg.lstsq(A, ys, rcond=None)[0]
    return slope


def _numeric_frame(P, Q, base, M):
    """Frame (c1 along the line, c2 tangent transverse, c3, c4 normal)."""
    gp, gq = P @ base, Q @ base
    rows = np.vstack([gp, gq])
    _, sv, vh = np.linalg.svd(rows)
    if sv[-1] < 1e-10:
        return None  # singular point of the surface
    tangent = vh[2:].conj()  # 3-dim: contains base and the line direction
    c1 = M[1] - (M[1] @ base.conj()) * base
    c1 = c1 / np.linalg.norm(c1)
    # transverse tangent direction: inside tangent, orthogonal to base, c1
    block = np.vstack([base, c1])
    best = None
    for v in tangent:
        w = v - block.T @ (block.conj() @ v)
        if np.linalg.norm(w) > (1e-6 if best is None else np.linalg.norm(best[1])):
            best = (v, w)
    if best is None:
        return None
    c2 = best[1] / np.linalg.norm(best[1])
    # normal directions paired invertibly with the gradients under the
    # complex-bilinear form: conjugated gradients do exactly that
    c3 = np.conj(gp) / np.linalg.norm(gp)
    c4 = np.conj(gq) / np.linalg.norm(gq)
    full = np.vstack([base, c1, c2, c3, c4])
    if abs(np.linalg.det(full)) < 1e-10:
        return None
    return base, c2, c1, c3, c4


def _project_to_surface(P, Q, x0, frame):
    base, c2, c1, c3, c4 = frame
    x = x0.copy()
    for _ in range(40):
        f = np.array([x @ P @ x, x @ Q @ x])
        if max(abs(f)) < 1e-14 * (np.linalg.norm(x) ** 2):
            return x
        J = np.array([[2 * (P @ x) @ c3, 2 * (P @ x) @ c4],
                      [2 * (Q @ x) @ c3, 2 * (Q @ x) @ c4]])
        try:
            dz = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            return None
        x = x + dz[0] * c3 + dz[1] * c4
    return None


def _numeric_hessian(P, Q, pt, frame):
    """Hessian-form coefficients at a numeric surface point, fixed frame."""
    _, c2, c1, c3, c4 = frame
    cs = {"x": c1, "y": c2, "z": c3, "w": c4}

    def bf(M, u, v):
        return u @ M @ v

    J = np.array([[2 * bf(P, pt, c3), 2 * bf(P, pt, c4)],
                  [2 * bf(Q, pt, c3), 2 * bf(Q, pt, c4)]])
    try:
        Jinv = np.linalg.inv(J)
    except np.linalg.LinAlgError:
        return None
    first = {}
    for name in ("x", "y"):
        rhs = -2 * np.array([bf(P, pt, cs[name]), bf(Q, pt, cs[name])])
        first[name] = Jinv @ rhs
    X = {name: cs[name] + first[name][0] * c3 + first[name][1] * c4
         for name in ("x", "y")}
    second = {}
    for pair in (("x", "x"), ("x", "y"), ("y", "y")):
        rhs = -np.array([2 * bf(P, X[pair[0]], X[pair[1]]),
                         2 * bf(Q, X[pair[0]], X[pair[1]])])
        second[pair] = Jinv @ rhs
    (fxx, gxx), (fxy, gxy), (fyy, gyy) = second.values()
    return _hessian_form(fxx, fxy, fyy, gxx, gxy, gyy)


# --------------------------------------------------------------------------
# summary


CASE_BY_COUNT = {2: "Empty", 1: "BirationalToS", 0: "DoubleCoverOfS"}
CASE_FOR_SUMMARY = {"Empty": "CaseI", "BirationalToS": "CaseII",
                    "DoubleCoverOfS": "CaseIII"}


@dataclass
class CuspLocusSummary:
    classification: str
    double_conic_pencils: int
    point_cases: list
    cross_checked: bool


def cusp_locus_summary(surface, sample_points=None):
    """Empty / birational-to-S / double-cover classification of the locus.

    Based on the double-conic pencil count from the Segre symbol, optionally
    cross-checked against the point trichotomy at supplied sample points.
    """
    count = surface.pencil.double_conic_pencil_count()
    summary = CASE_BY_COUNT[count]
    cases = []
    if sample_points:
        expected = CASE_FOR_SUMMARY[summary]
        for p in sample_points:
            pc = point_case(surface, p)
            cases.append(pc.case)
            if pc.case != expected:
                raise CrossCheckMismatch(
                    f"symbol predicts {expected} but {p} gives {pc.case}")
    return CuspLocusSummary(classification=summary,
                            double_conic_pencils=count,
                            point_cases=cases,
                            cross_checked=bool(sample_points))

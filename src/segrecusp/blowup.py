"""Smooth Segre quartics from five plane points, with rational structure.

Blowing up five rational points of the plane (no three collinear) and
embedding anticanonically by the cubics through them yields a smooth
intersection of two quadrics in CP4 with dense rational points and sixteen
exact rational lines: the five exceptional curves, the ten lines through
point pairs, and the conic through all five.  These fixtures drive every
construction that needs exact points or an exact line missing the singular
locus.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (CrossCheckMismatch, IrrationalEigenvalue, RetryExhausted,
                     SegreCuspError)
from .fields import QQ
from .jets import Jet
from .lines import LineOnSurface, line_contained_exact
from .linalg import (complete_basis, gram_matrix, mat_inv, mat_vec,
                     nullspace, sym_matrix, transpose)
from .pencil import QuadricPencil, second_intersection
from .surface import ProjectivePoint, SurfaceInstance

PLANE_VARS = ("u", "v", "w")
CUBIC_MONOMIALS = [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)]
SEXTIC_MONOMIALS = [(i, j, 6 - i - j) for i in range(7) for j in range(7 - i)]


def _eval_mono(mono, pt):
    u, v, w = pt
    return (u ** mono[0]) * (v ** mono[1]) * (w ** mono[2])


def _eval_poly(p, pt):
    """The polynomial of the jet ``p`` at a plane point."""
    return sum((c * _eval_mono(e, pt) for e, c in p.coeffs.items()),
               start=Fraction(0))


@dataclass
class PlaneModel:
    points: list                  # five plane points (u, v, w), w = 1
    # five cubics through the points, as jets over Q in (u, v, w) exact to
    # degree 3: a product of two is exact to degree 6
    cubics: list
    pencil: QuadricPencil

    def map_point(self, pt):
        coords = [_eval_poly(c, pt) for c in self.cubics]
        if not any(coords):
            return None
        return ProjectivePoint.make(QQ, coords)

    def map_gradient(self, base_idx, direction):
        pt = self.points[base_idx]
        coords = [sum((d * _eval_poly(c.derivative(name), pt)
                       for d, name in zip(direction, PLANE_VARS)),
                      start=Fraction(0)) for c in self.cubics]
        if not any(coords):
            return None
        return ProjectivePoint.make(QQ, coords)


def _cubics_through(points):
    rows = []
    for pt in points:
        rows.append([_eval_mono(m, pt) for m in CUBIC_MONOMIALS])
    basis = nullspace(QQ, rows)
    if len(basis) != 5:
        raise SegreCuspError("points are not in general position for cubics")
    return [Jet(QQ, PLANE_VARS, 3, dict(zip(CUBIC_MONOMIALS, vec)))
            for vec in basis]


def _quadric_relations(cubics):
    pairs = [(i, j) for i in range(5) for j in range(i, 5)]
    cols = []
    for i, j in pairs:
        prod = cubics[i] * cubics[j]
        cols.append([prod.coefficient(m) for m in SEXTIC_MONOMIALS])
    rows = [[cols[k][r] for k in range(len(pairs))]
            for r in range(len(SEXTIC_MONOMIALS))]
    kernel = nullspace(QQ, rows)
    if len(kernel) != 2:
        raise SegreCuspError("parameterization does not satisfy exactly two quadrics")
    return QuadricPencil(*(sym_matrix(5, dict(zip(pairs, vec)))
                           for vec in kernel))


def _general_position(points):
    for tri in itertools.combinations(points, 3):
        det = (tri[0][0] * (tri[1][1] - tri[2][1])
               - tri[0][1] * (tri[1][0] - tri[2][0])
               + (tri[1][0] * tri[2][1] - tri[2][0] * tri[1][1]))
        if det == 0:
            return False
    return len(set(points)) == 5


def plane_model(points) -> PlaneModel:
    points = [tuple(Fraction(c) for c in p) for p in points]
    if not _general_position(points):
        raise SegreCuspError("five points with three collinear or repeated")
    cubics = _cubics_through(points)
    pencil = _quadric_relations(cubics)
    return PlaneModel(points=points, cubics=cubics, pencil=pencil)


def _conic_through(points):
    monos = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    rows = [[_eval_mono(m, p) for m in monos] for p in points]
    kernel = nullspace(QQ, rows)
    if len(kernel) != 1:
        raise CrossCheckMismatch("five points do not fix one conic")
    # the index pair (i, j) of each monomial X_i X_j
    pairs = [tuple(t for t, e in enumerate(m) for _ in range(e)) for m in monos]
    return sym_matrix(3, dict(zip(pairs, kernel[0])))


def model_lines(model: PlaneModel):
    """The sixteen exact lines: exceptional, pair lines, and the conic image."""
    lines = []
    pencil = model.pencil

    def add(p_a, p_b):
        if p_a is None or p_b is None:
            raise SegreCuspError("degenerate line sample")
        line = LineOnSurface(p_a, p_b, "exact")
        if not line_contained_exact(pencil, p_a, p_b):
            raise SegreCuspError("computed span is not on the surface")
        lines.append(line)

    for i in range(5):
        add(model.map_gradient(i, (1, 0, 0)), model.map_gradient(i, (0, 1, 0)))
    for i, j in itertools.combinations(range(5), 2):
        a, b = model.points[i], model.points[j]
        samples = []
        for t in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 5),
                  Fraction(3, 7)):
            pt = tuple(ai + t * (bi - ai) for ai, bi in zip(a, b))
            img = model.map_point(pt)
            if img is not None:
                samples.append(img)
            if len(samples) == 2:
                break
        add(*samples)
    # the conic through all five points, parameterized from the first
    C = _conic_through(model.points)
    base = list(model.points[0])
    others = complete_basis(QQ, [base], 3)[1:]
    samples = []
    for t in (Fraction(1), Fraction(2), Fraction(3), Fraction(5), Fraction(-1),
              Fraction(7), Fraction(-2)):
        d = [others[0][k] + t * others[1][k] for k in range(3)]
        G = gram_matrix(QQ, C, [base, d])
        pt = tuple(second_intersection(G, base, d))
        if not any(pt):
            continue
        if tuple(Fraction(x) for x in pt) in [tuple(p) for p in model.points]:
            continue
        img = model.map_point(pt)
        if img is not None and all(img != s.point_a for s in lines):
            samples.append(img)
        if len(samples) == 2:
            break
    add(*samples)
    if len(lines) != 16:
        raise CrossCheckMismatch(f"{len(lines)} lines on the plane model, not 16")
    return lines


def smooth_segre_instance(seed=0) -> SurfaceInstance:
    """A smooth Segre surface with rational parameterization and exact lines."""
    rng = random.Random(seed)
    base = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 3, 1)]
    for attempt in range(60):
        pts = base if attempt == 0 else \
            [(rng.randint(-6, 6), rng.randint(-6, 6), 1) for _ in range(5)]
        try:
            model = plane_model(pts)
            model.pencil.segre_symbol()      # rational eigenvalues required
            lines = model_lines(model)
        except (SegreCuspError, IrrationalEigenvalue):
            continue
        inst = SurfaceInstance(model.pencil, seed=seed)
        if inst.singular_points():
            continue

        def source(rng_, model=model):
            for _ in range(50):
                pt = (Fraction(rng_.randint(-40, 40), rng_.randint(1, 17)),
                      Fraction(rng_.randint(-40, 40), rng_.randint(1, 17)),
                      Fraction(1))
                p = model.map_point(pt)
                if p is not None:
                    return p
            return None

        inst.point_source = source
        inst.lines = lines
        inst.model = model
        return inst
    raise RetryExhausted("no smooth rational model found")


def surface_through_line(seed=0) -> SurfaceInstance:
    """A pencil of quadrics vanishing on the coordinate line {X2=X3=X4=0}.

    Built by moving a rational line of a smooth model into coordinate
    position, so the line misses the (empty) singular locus and the quadrics
    carry no X0^2, X0*X1 or X1^2 monomials.
    """
    rng = random.Random(seed ^ 0x5EED)
    for _ in range(60):
        inst = smooth_segre_instance(seed=rng.randrange(10 ** 6))
        line = inst.lines[rng.randrange(len(inst.lines))]
        a, b = line.span_over(QQ)
        A = transpose(complete_basis(QQ, [a, b], 5))   # columns a, b, ...
        new_pencil = inst.pencil.congruent(A)
        for M in (new_pencil.P, new_pencil.Q):
            if M[0][0] or M[0][1] or M[1][1]:
                raise CrossCheckMismatch("the moved line is not span(e0, e1)")
        out = SurfaceInstance(new_pencil, seed=seed)
        if out.singular_points():
            continue
        Ainv = mat_inv(QQ, A)
        model = inst.model

        def source(rng_, model=model, Ainv=Ainv):
            for _ in range(50):
                pt = (Fraction(rng_.randint(-40, 40), rng_.randint(1, 17)),
                      Fraction(rng_.randint(-40, 40), rng_.randint(1, 17)),
                      Fraction(1))
                p = model.map_point(pt)
                if p is not None:
                    return ProjectivePoint.make(QQ, mat_vec(QQ, Ainv, p.coords))
            return None

        def move_line(l):
            pa = ProjectivePoint.make(QQ, mat_vec(QQ, Ainv, l.point_a.coords))
            pb = ProjectivePoint.make(QQ, mat_vec(QQ, Ainv, l.point_b.coords))
            return LineOnSurface(pa, pb, "exact")

        out.point_source = source
        out.lines = [move_line(l) for l in inst.lines]
        out.distinguished_line = move_line(line)
        # a 5-point smoothness sample along the line, plus exact containment
        e0 = ProjectivePoint.make(QQ, [1, 0, 0, 0, 0])
        e1 = ProjectivePoint.make(QQ, [0, 1, 0, 0, 0])
        if not line_contained_exact(new_pencil, e0, e1):
            raise CrossCheckMismatch("span(e0, e1) is not on the moved surface")
        for t in (0, 1, 2, 3, 5):
            pt = ProjectivePoint.make(QQ, [1, t, 0, 0, 0])
            if not out.is_smooth_at(pt):
                raise CrossCheckMismatch(f"{pt} on the line is singular")
        return out
    raise RetryExhausted("no line-through fixture found")

"""Smooth Segre quartics from five plane points, with rational structure.

Blowing up five rational points of the plane (no three collinear) and
embedding anticanonically by the cubics through them yields a smooth
intersection of two quadrics in CP4 with dense rational points.  The plane
model is the point source; the sixteen lines come from the census,
:func:`segrecusp.lines.enumerate_lines`, which finds them all exact over Q
(the five exceptional curves, the ten lines through point pairs and the
conic through all five).  These fixtures drive every construction that
needs exact points or an exact line missing the singular locus.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CrossCheckMismatch, RetryExhausted, SegreCuspError
from .fields import QQ
from .jets import Jet
from .lines import enumerate_lines
from .linalg import (complete_basis, mat_inv, mat_vec, nullspace, sym_matrix,
                     transpose)
from .pencil import QuadricPencil
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


def _exact_census(inst):
    """Run the census on a fixture surface, which must give sixteen exact
    lines over Q and no warning."""
    census = enumerate_lines(inst)
    if census.warnings or len(census.lines) != 16 or not all(
            l.exactness == "exact" and l.field() == QQ for l in census.lines):
        raise CrossCheckMismatch(
            f"census of a fixture surface: {len(census.lines)} lines, "
            f"warnings {census.warnings}")


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
        except SegreCuspError:
            continue
        inst = SurfaceInstance(model.pencil, seed=seed)
        if inst.singular_points():
            continue
        _exact_census(inst)

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
        inst.model = model
        return inst
    raise RetryExhausted("no smooth rational model found")


def surface_through_line(seed=0) -> SurfaceInstance:
    """A pencil of quadrics vanishing on the coordinate line {X2=X3=X4=0}.

    Built by moving a rational line of a smooth model into coordinate
    position, so the line misses the (empty) singular locus and the quadrics
    carry no X0^2, X0*X1 or X1^2 monomials.  The lines are the census of the
    moved pencil, and ``distinguished_line`` is the one through e0 and e1.
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

        def source(rng_, model_source=inst.point_source, Ainv=Ainv):
            p = model_source(rng_)
            if p is None:
                return None
            return ProjectivePoint.make(QQ, mat_vec(QQ, Ainv, p.coords))

        out.point_source = source
        _exact_census(out)
        e0 = ProjectivePoint.make(QQ, [1, 0, 0, 0, 0])
        e1 = ProjectivePoint.make(QQ, [0, 1, 0, 0, 0])
        out.distinguished_line = next(
            l for l in out.lines if l.contains(e0) and l.contains(e1))
        # a 5-point smoothness sample along the line
        for t in (0, 1, 2, 3, 5):
            pt = ProjectivePoint.make(QQ, [1, t, 0, 0, 0])
            if not out.is_smooth_at(pt):
                raise CrossCheckMismatch(f"{pt} on the line is singular")
        return out
    raise RetryExhausted("no line-through fixture found")

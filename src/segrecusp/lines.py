"""Lines on a Segre surface: exact scans and numeric enumeration.

Exact lines come from the coordinate scan and from solving the through-a-
singular-point system by factorization; the full census is completed by a
batched Newton search with random complex restarts over Grassmannian charts,
deduplicated on normalized Pluecker coordinates.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import TowerUnsupported
from .fields import QQ, field_with_sqrt, quadext_sqrt
from .jets import pgcd_list
from .linalg import mat_rank, nullspace
from .pencil import bform, qform
from .surface import ProjectivePoint


@dataclass
class LineOnSurface:
    """A line of CP4 on the surface, exact (two exact spanning points) or
    numeric (complex spanning vectors with a residual certificate)."""

    point_a: object
    point_b: object
    exactness: str                    # "exact" | "numeric"
    residual_bound: float = 0.0
    incident_singularities: tuple = ()

    @property
    def n_incident(self):
        return len(self.incident_singularities)

    def span_over(self, field):
        if self.exactness != "exact":
            raise ValueError("numeric line has no exact span")
        return ([field.coerce(c) for c in self.point_a.coords],
                [field.coerce(c) for c in self.point_b.coords])

    def field(self):
        for p in (self.point_a, self.point_b):
            if p.field != QQ:
                return p.field
        return QQ

    def as_matrix_float(self):
        if self.exactness == "exact":
            return np.array([self.point_a.as_float(), self.point_b.as_float()])
        return np.array([self.point_a, self.point_b])

    def plucker_float(self):
        return plucker_normalized(self.as_matrix_float())

    def contains_point_float(self, coords, tol=1e-8):
        M = self.as_matrix_float()
        q, _ = np.linalg.qr(M.T)
        v = np.array(coords, dtype=complex)
        v = v / np.linalg.norm(v)
        resid = v - q @ (q.conj().T @ v)
        return np.linalg.norm(resid) < tol

    def __repr__(self):
        tag = self.exactness
        return f"Line[{tag}]({self.point_a}, {self.point_b})"


def plucker_normalized(M):
    """Pluecker vector of a 2x5 matrix, scaled by its largest entry."""
    p = np.array([M[0, i] * M[1, j] - M[0, j] * M[1, i]
                  for i in range(5) for j in range(i + 1, 5)])
    k = int(np.argmax(np.abs(p)))
    return p / p[k]


def line_contained_exact(pencil, a, b):
    """Exact containment of the span of two points in both quadrics."""
    field = a.field if a.field != QQ else b.field
    va = [field.coerce(c) for c in a.coords]
    vb = [field.coerce(c) for c in b.coords]
    for M in (pencil.P, pencil.Q):
        Mf = [[field.coerce(c) for c in row] for row in M]
        if qform(Mf, va) or qform(Mf, vb) or bform(Mf, va, vb):
            return False
    return True


def coordinate_lines(pencil):
    """All coordinate lines span(e_i, e_j) lying on the surface."""
    found = []
    for i, j in itertools.combinations(range(5), 2):
        ok = all(M[i][i] == 0 and M[j][j] == 0 and M[i][j] == 0
                 for M in (pencil.P, pencil.Q))
        if ok:
            ei = [Fraction(int(k == i)) for k in range(5)]
            ej = [Fraction(int(k == j)) for k in range(5)]
            found.append((ProjectivePoint.make(QQ, ei),
                          ProjectivePoint.make(QQ, ej)))
    return found


def _through_point_forms(pencil, s_point):
    """Quotient setup for lines through a singular point.

    Returns (reduced, forms, k): representatives of the admissible direction
    space modulo the point, and the two restricted quadratic forms in k
    quotient coordinates.
    """
    if s_point.field != QQ:
        return None, None, 0
    s = [Fraction(c) for c in s_point.coords]
    rows = []
    for M in (pencil.P, pencil.Q):
        row = [sum(M[i][j] * s[j] for j in range(5)) for i in range(5)]
        if any(row):
            rows.append(row)
    V = nullspace(QQ, rows) if rows else [[Fraction(int(k == j)) for k in range(5)]
                                          for j in range(5)]
    reduced = []
    for v in V:
        if mat_rank(QQ, reduced + [s, v]) == len(reduced) + 2:
            reduced.append(v)
    k = len(reduced)
    if k == 0 or k > 3:
        return None, None, k
    # the two quadrics restricted to representatives of V/<s>, as forms in
    # the quotient coordinates (q is constant on cosets of s there)
    forms = []
    for M in (pencil.P, pencil.Q):
        f = {}
        for i in range(k):
            for j in range(i, k):
                c = qform(M, reduced[i]) if i == j \
                    else 2 * bform(M, reduced[i], reduced[j])
                if c:
                    f[(i, j)] = c
        forms.append(f)
    return reduced, forms, k


def lines_through_singular_point(pencil, s_point):
    """Exact lines on S through a singular point, where the system factors
    over Q or one quadratic extension.  Returns (lines, fully_resolved)."""
    reduced, forms, k = _through_point_forms(pencil, s_point)
    if forms is None:
        return [], k == 0
    directions, resolved = _common_zeros_of_two_conics(forms, k)
    lines = []
    for d_field, d in directions:
        coords = [sum((d[i] * d_field.coerce(reduced[i][t]) for i in range(k)),
                      start=d_field.zero) for t in range(5)]
        if not any(coords):
            continue
        p2 = ProjectivePoint.make(d_field, coords)
        if line_contained_exact(pencil, s_point, p2):
            lines.append((s_point, p2))
    return lines, resolved


def count_lines_through_singular_point(pencil, s_point):
    """Exact number of distinct complex lines on S through a singular point.

    Counts distinct common zeros of the two restricted conics: rational-root
    data comes from the exact factorization of their resultant; the lift
    count per root of each irreducible factor is certified numerically (the
    roots in question are simple).  Returns None when unavailable.
    """
    import sympy

    reduced, forms, k = _through_point_forms(pencil, s_point)
    if forms is None:
        return 0 if k == 0 else None
    if k == 2:
        lists = [[f.get((0, 0), Fraction(0)), f.get((0, 1), Fraction(0)),
                  f.get((1, 1), Fraction(0))] for f in forms]
        count = 1 if (lists[0][2] == 0 and lists[1][2] == 0) else 0
        g = pgcd_list(lists[0], lists[1], QQ)
        if len(g) > 1:
            gs = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                             for c in reversed(g)], sympy.Symbol("_t"))
            count += sum(f.degree() for f, _ in gs.factor_list()[1])
        return count
    a, b, c = sympy.symbols("a b c")
    xs = (a, b, c)
    polys = []
    for f in forms:
        expr = sympy.Integer(0)
        for (i, j), coeff in f.items():
            expr += sympy.Rational(coeff.numerator, coeff.denominator) * xs[i] * xs[j]
        polys.append(sympy.expand(expr))
    res = sympy.expand(sympy.resultant(polys[0], polys[1], c))
    if res == 0:
        return None
    count = 0
    # common zero in the plane c-direction, missed by the c-resultant
    if all(f.get((2, 2), Fraction(0)) == 0 for f in forms):
        count += 1
    p1 = sympy.lambdify((a, b, c), polys[0], "numpy")
    p2 = sympy.lambdify((a, b, c), polys[1], "numpy")
    for fac, _mult in sympy.factor_list(res, a, b)[1]:
        fp = sympy.Poly(fac, a, b)
        deg = fp.total_degree()
        if deg == 0:
            continue
        roots_ab = _numeric_form_roots(fp, a, b)
        lifts = []
        try:
            for ra, rb in roots_ab:
                lifts.append(len(_common_c_roots(p1, p2, polys, ra, rb, a, b, c)))
        except ArithmeticError:
            return None
        if lifts and max(lifts) != min(lifts):
            # Galois-conjugate roots must lift equally; numerical trouble
            return None
        count += deg * (lifts[0] if lifts else 0)
    return count


def _numeric_form_roots(fp, a, b):
    """Numeric projective roots (a, b) of a binary form (simple roots)."""
    import numpy as np

    coeffs = {m: complex(co) for m, co in zip(fp.monoms(), fp.coeffs())}
    deg = fp.total_degree()
    dense = [coeffs.get((deg - i, i), 0.0) for i in range(deg + 1)]
    # roots of sum dense[i] t^(deg-i) with t = a/b ... treat as poly in a with b=1
    poly = np.array(dense, dtype=complex)  # descending in a
    roots = []
    nz = np.nonzero(np.abs(poly) > 1e-14)[0]
    lead = nz[0]
    for _ in range(lead):
        roots.append((1.0 + 0j, 0.0 + 0j))  # roots at b = 0
    finite = np.roots(poly[lead:]) if len(poly[lead:]) > 1 else []
    for r in finite:
        roots.append((r, 1.0 + 0j))
    return roots


def _common_c_roots(p1, p2, polys, ra, rb, a, b, c, tol=1e-6):
    """Distinct common roots in c of the two conics at a fixed (a, b)."""
    import numpy as np
    import sympy

    cs = []
    for poly in polys:
        pc = sympy.Poly(poly, c)
        dense = [complex(sympy.lambdify((a, b), co, "numpy")(ra, rb))
                 for co in pc.all_coeffs()]
        cs.append(np.array(dense, dtype=complex))
    scale = max(1.0, abs(ra), abs(rb)) ** 2
    vanish = [bool(np.all(np.abs(d) < 1e-9 * scale)) for d in cs]
    if all(vanish):
        raise ArithmeticError("conic pair vanishes on a whole direction line")
    if any(vanish):
        d = cs[1] if vanish[0] else cs[0]
        candidates = list(np.roots(d)) if len(d) > 1 else []
    else:
        candidates = [r for r in (np.roots(cs[0]) if len(cs[0]) > 1 else [])
                      if abs(np.polyval(cs[1], r))
                      < tol * scale * max(1.0, abs(r)) ** 2]
    out = []
    for r in candidates:
        if all(abs(r - o) > 1e-5 * max(1.0, abs(r)) for o in out):
            out.append(r)
    return out


def _common_zeros_of_two_conics(forms, k):
    """Common projective zeros of two quadratic forms in k (2 or 3) variables.

    Returns (zeros, fully_resolved); zeros are (field, coords) pairs over Q
    or one quadratic extension.  Factors the system exactly and reports
    resolved=False when an irreducible factor of degree > 2 remains.
    """
    if k == 2:
        # dehomogenize along (1, t): p(t) = f(1, t)
        lists = [[f.get((0, 0), Fraction(0)), f.get((0, 1), Fraction(0)),
                  f.get((1, 1), Fraction(0))] for f in forms]
        zeros = []
        if lists[0][2] == 0 and lists[1][2] == 0:
            zeros.append((QQ, (Fraction(0), Fraction(1))))
        g = pgcd_list(lists[0], lists[1], QQ)
        for rfield, t in _poly_roots_one_ext(g):
            zeros.append((rfield, (rfield.one, t)))
        return zeros, True
    assert k == 3
    # resultant of the two ternary conics with respect to the last variable
    import sympy

    a, b, c = sympy.symbols("a b c")
    xs = (a, b, c)
    polys = []
    for f in forms:
        expr = sympy.Integer(0)
        for (i, j), coeff in f.items():
            expr += sympy.Rational(coeff.numerator, coeff.denominator) * xs[i] * xs[j]
        polys.append(sympy.expand(expr))
    res = sympy.resultant(polys[0], polys[1], c)
    res = sympy.Poly(sympy.expand(res), a, b)
    if res.is_zero:
        return [], False  # common component; cannot happen on a valid surface
    zeros, resolved = [], True
    seen = set()
    for fac, _mult in sympy.factor_list(res.as_expr(), a, b)[1]:
        fp = sympy.Poly(fac, a, b)
        deg = fp.total_degree()
        if deg == 0:
            continue
        roots = []
        if deg == 1:
            cf = {m: co for m, co in zip(fp.monoms(), fp.coeffs())}
            ca = cf.get((1, 0), 0)
            cb = cf.get((0, 1), 0)
            roots.append((QQ, (Fraction(str(-cb)), Fraction(str(ca)))))
        elif deg == 2:
            roots.extend(_binary_quadratic_roots_sympy(fp))
        else:
            resolved = False
            continue
        for rfield, (ra, rb) in roots:
            key = (repr(rfield), str(ra), str(rb))
            if key in seen:
                continue
            seen.add(key)
            zeros.extend(_lift_c(forms, rfield, ra, rb))
    return zeros, resolved


def _binary_quadratic_roots_sympy(fp):
    """Projective roots (u, v) of a sympy binary quadratic over Q or Q(sqrt(d))."""
    cf = {m: co for m, co in zip(fp.monoms(), fp.coeffs())}
    A = Fraction(str(cf.get((2, 0), 0)))
    B = Fraction(str(cf.get((1, 1), 0)))
    C = Fraction(str(cf.get((0, 2), 0)))
    return _quadratic_form_roots(A, B, C)


def _quadratic_form_roots(A, B, C):
    """Projective zeros (u, v) of A u^2 + B uv + C v^2."""
    if not A:
        out = [(QQ, (Fraction(1), Fraction(0)))]
        if B:
            out.append((QQ, (Fraction(-C), Fraction(B))))
        return out
    out = []
    for rfield, t in _poly_roots_one_ext([C, B, A]):
        out.append((rfield, (t, rfield.one)))
    return out


def _poly_roots_one_ext(g):
    """Roots of a rational polynomial of degree <= 2, allowing one sqrt.

    Returns (field, value) pairs; an empty list for constants."""
    g = list(g)
    while g and not g[-1]:
        g.pop()
    if len(g) <= 1:
        return []
    if len(g) == 2:
        return [(QQ, Fraction(-g[0]) / Fraction(g[1]))]
    C, B, A = g[0], g[1], g[2]
    disc = B * B - 4 * A * C
    fld, root = field_with_sqrt(disc)
    if fld == QQ:
        if root:
            return [(QQ, (-B + root) / (2 * A)), (QQ, (-B - root) / (2 * A))]
        return [(QQ, Fraction(-B) / (2 * A))]
    mb = fld.coerce(-B)
    twoa = fld.coerce(2 * A)
    return [(fld, (mb + root) / twoa), (fld, (mb - root) / twoa)]


def _lift_c(forms, rfield, ra, rb):
    """Given (a : b), solve the two conics for the last coordinate c."""
    lists = []
    for f in forms:
        c2 = rfield.coerce(f.get((2, 2), Fraction(0)))
        c1 = (rfield.coerce(f.get((0, 2), Fraction(0))) * ra
              + rfield.coerce(f.get((1, 2), Fraction(0))) * rb)
        c0 = (rfield.coerce(f.get((0, 0), Fraction(0))) * ra * ra
              + rfield.coerce(f.get((0, 1), Fraction(0))) * ra * rb
              + rfield.coerce(f.get((1, 1), Fraction(0))) * rb * rb)
        lists.append([c0, c1, c2])
    g = pgcd_list(lists[0], lists[1], rfield)
    out = []
    if not g:
        # both restrictions vanish identically: a pencil of candidate
        # directions, impossible for a finite line count; leave to numerics
        return out
    deg = len(g) - 1
    if deg == 0:
        return []
    if deg == 1:
        out.append((rfield, (ra, rb, -g[0] / g[1])))
        return out
    # quadratic in c: extend once over Q; within an extension only square
    # roots staying in the same field are allowed (no towers)
    if rfield == QQ:
        for fld, val in _poly_roots_one_ext([Fraction(x) for x in g]):
            out.append((fld, (fld.coerce(ra), fld.coerce(rb), val)))
    else:
        A, B, C = g[2], g[1], g[0]
        root = quadext_sqrt(B * B - 4 * A * C)
        if root is not None:
            for sign in (1, -1):
                val = (-B + sign * root) / (2 * A)
                out.append((rfield, (ra, rb, val)))
    return out


# --------------------------------------------------------------------------
# numeric enumeration


@dataclass
class LineCensus:
    lines: list
    counts: tuple                 # (n0, n1, n2) by singular incidence
    residual_bound: float
    warnings: list = dc_field(default_factory=list)


def proj_distance(p, q):
    """Projective (Fubini-Study style) distance of two Pluecker vectors."""
    num = abs(np.vdot(p, q))
    den = np.linalg.norm(p) * np.linalg.norm(q)
    return float(np.sqrt(max(0.0, 1.0 - (num / den) ** 2)))


def _point_line_distance(coords, M):
    q, _ = np.linalg.qr(M.T)
    v = np.array(coords, dtype=complex)
    v = v / np.linalg.norm(v)
    return float(np.linalg.norm(v - q @ (q.conj().T @ v)))


def enumerate_lines(surface, seed=None, starts_per_chart=500,
                    newton_tol=1e-10, dedup=1e-6):
    """Complete line census: exact scans merged with numeric Newton restarts.

    Lines through a singular point can be multiple solutions of the
    containment system, so plain Newton leaves ill-conditioned clusters
    there; the exact per-point line counts (from the factorization of the
    through-point system) steer an adaptive clustering of those candidates.
    Counts are partitioned by the number of incident singular points.
    """
    pencil = surface.pencil
    seed = surface.seed if seed is None else seed
    warnings = []

    exact_pairs = list(coordinate_lines(pencil))
    sing_points = surface.singular_points()
    expected = {}
    for idx, s in enumerate(sing_points):
        found, resolved = lines_through_singular_point(pencil, s)
        for a, b in found:
            exact_pairs.append((a, b))
        n = count_lines_through_singular_point(pencil, s)
        if n is None:
            warnings.append(f"count of lines through {s} not certified")
        expected[idx] = n

    exact_lines = []
    for a, b in exact_pairs:
        cand = LineOnSurface(a, b, "exact")
        if all(proj_distance(cand.plucker_float(), e.plucker_float()) > dedup
               for e in exact_lines):
            exact_lines.append(cand)
    for line in exact_lines:
        inc = _exact_incidences(pencil, line, sing_points)
        line.incident_singularities = tuple(inc)

    candidates = _newton_line_search(pencil, seed, starts_per_chart, newton_tol)
    sing_float = [np.array(p.as_float()) for p in sing_points]

    # drop candidates duplicating exact lines; split the rest by whether they
    # pass near a singular point (multiple Fano points cluster there)
    clean, near = [], {i: [] for i in range(len(sing_points))}
    exact_pl = [e.plucker_float() for e in exact_lines]
    for M, resid in candidates:
        p = plucker_normalized(M)
        if any(proj_distance(p, ep) < 1e-4 for ep in exact_pl):
            continue
        hit = [i for i, sv in enumerate(sing_float)
               if _point_line_distance(sv, M) < 1e-2]
        if hit:
            for i in hit:
                near[i].append((M, resid, p, tuple(sorted(hit))))
        else:
            clean.append((M, resid, p))

    merged = list(exact_lines)
    max_resid = 0.0

    # clean candidates converge quadratically; dedup at the nominal radius
    for M, resid, p in sorted(clean, key=lambda t: t[1]):
        if all(proj_distance(p, e.plucker_float()) > dedup for e in merged):
            line = LineOnSurface(tuple(M[0]), tuple(M[1]), "numeric",
                                 residual_bound=resid)
            line.incident_singularities = ()
            merged.append(line)
            max_resid = max(max_resid, resid)

    # through-singularity candidates: cluster adaptively until the exact
    # count for that singular point is realized
    for i, group in near.items():
        if not group:
            continue
        already = [l for l in merged
                   if _point_line_distance(sing_float[i],
                                           l.as_matrix_float()) < 1e-4]
        want = expected.get(i)
        remaining = None if want is None else want - len(already)
        group = sorted(group, key=lambda t: t[1])
        chosen = _adaptive_clusters(group, merged, remaining, dedup)
        for M, resid, p, hit in chosen:
            line = LineOnSurface(tuple(M[0]), tuple(M[1]), "numeric",
                                 residual_bound=resid)
            line.incident_singularities = tuple(sing_points[j] for j in hit)
            merged.append(line)
            max_resid = max(max_resid, resid)
        if remaining is not None and len(chosen) < remaining:
            warnings.append(
                f"only {len(already) + len(chosen)} of {want} lines through "
                f"singular point {i} found (lower bound)")

    counts = [0, 0, 0]
    for line in merged:
        counts[min(line.n_incident, 2)] += 1
    merged.sort(key=lambda l: tuple(np.round(l.plucker_float(), 6)
                                    .view(float).tolist()))
    surface.lines = merged
    return LineCensus(lines=merged, counts=tuple(counts),
                      residual_bound=max_resid, warnings=warnings)


def _adaptive_clusters(group, merged, remaining, dedup):
    """Greedy best-residual clustering, coarsened until the count fits.

    Lines through a singular point are multiple roots of the containment
    system, so their Newton basins are wide; the exact through-point count
    decides how far the clustering may coarsen.
    """
    if remaining is not None and remaining <= 0:
        return []
    radii = [dedup, 1e-5, 1e-4, 1e-3, 1e-2, 3e-2, 1e-1, 0.3]
    reps = []
    for radius in radii:
        reps = []
        for M, resid, p, hit in group:
            if any(proj_distance(p, e.plucker_float()) < radius for e in merged):
                continue
            if all(proj_distance(p, rp[2]) > radius for rp in reps):
                reps.append((M, resid, p, hit))
        if remaining is None or len(reps) <= remaining:
            return reps
    return reps[:remaining] if remaining is not None else reps


def _exact_incidences(pencil, line, singular_points):
    out = []
    for s in singular_points:
        field = line.field() if s.field == QQ else s.field
        try:
            va, vb = line.span_over(field)
            vs = [field.coerce(c) for c in s.coords]
        except TowerUnsupported:
            if line.contains_point_float(s.as_float()):
                out.append(s)
            continue
        if mat_rank(field, [va, vb, vs]) == 2:
            out.append(s)
    return out


def _newton_line_search(pencil, seed, starts_per_chart, newton_tol):
    """Batched Newton on the 6-equation containment system, per chart."""
    rng = np.random.default_rng(seed)
    Pf = np.array([[float(c) for c in row] for row in pencil.P])
    Qf = np.array([[float(c) for c in row] for row in pencil.Q])
    results = []
    for pivots in itertools.combinations(range(5), 2):
        free = [k for k in range(5) if k not in pivots]
        z = (rng.standard_normal((starts_per_chart, 6))
             + 1j * rng.standard_normal((starts_per_chart, 6)))

        def assemble(z):
            B = z.shape[0]
            A1 = np.zeros((B, 5), dtype=complex)
            A2 = np.zeros((B, 5), dtype=complex)
            A1[:, pivots[0]] = 1.0
            A2[:, pivots[1]] = 1.0
            A1[:, free] = z[:, :3]
            A2[:, free] = z[:, 3:]
            return A1, A2

        def system(z):
            A1, A2 = assemble(z)
            F = np.empty((z.shape[0], 6), dtype=complex)
            J = np.zeros((z.shape[0], 6, 6), dtype=complex)
            for m, M in enumerate((Pf, Qf)):
                MA1 = A1 @ M
                MA2 = A2 @ M
                F[:, 3 * m + 0] = np.sum(MA1 * A1, axis=1)
                F[:, 3 * m + 1] = np.sum(MA1 * A2, axis=1)
                F[:, 3 * m + 2] = np.sum(MA2 * A2, axis=1)
                J[:, 3 * m + 0, :3] = 2 * MA1[:, free]
                J[:, 3 * m + 1, :3] = MA2[:, free]
                J[:, 3 * m + 1, 3:] = MA1[:, free]
                J[:, 3 * m + 2, 3:] = 2 * MA2[:, free]
            return A1, A2, F, J

        for _ in range(40):
            _, _, F, J = system(z)
            try:
                step = np.linalg.solve(J, F[..., None])[..., 0]
            except np.linalg.LinAlgError:
                # kick exactly-singular members off the degenerate locus
                z = z + 1e-8 * (rng.standard_normal(z.shape)
                                + 1j * rng.standard_normal(z.shape))
                continue
            z = z - step
            bad = (~np.isfinite(z).all(axis=1)) | (np.abs(z).max(axis=1) > 1e8)
            if bad.any():
                z[bad] = (rng.standard_normal((int(bad.sum()), 6))
                          + 1j * rng.standard_normal((int(bad.sum()), 6)))
        A1, A2, F, _ = system(z)
        # residual of the containment equations on unit-norm spanning rows
        n1 = np.linalg.norm(A1, axis=1)
        n2 = np.linalg.norm(A2, axis=1)
        scale = np.stack([n1 * n1, n1 * n2, n2 * n2,
                          n1 * n1, n1 * n2, n2 * n2], axis=1)
        rel = np.abs(F) / scale
        good = (rel.max(axis=1) < newton_tol) & np.isfinite(z).all(axis=1)
        for idx in np.where(good)[0]:
            M2 = np.vstack([A1[idx] / n1[idx], A2[idx] / n2[idx]])
            resid = float(rel[idx].max())
            results.append((M2, resid))
    return results

#!/usr/bin/env python3
"""The tacnodal family over a line missing the singular locus.

Along such a line the discriminant of the Hessian form vanishes
identically, so at every point of the line the form has a double root: a
unique hyperplane whose section is the line plus a rational normal cubic
tangent to it (a tacnode).  Sweeping the point along the line, these
hyperplanes trace a conic inside the dual 2-plane of hyperplanes
containing the line, given in closed form by ``tacnodal_conic``.
"""

from fractions import Fraction as F

from segrecusp.blowup import surface_through_line
from segrecusp.cusplocus import tacnodal_conic, tacnodal_hyperplane_on_line
from segrecusp.fields import QQ
from segrecusp.surface import ProjectivePoint

fix = surface_through_line(seed=1)
line = fix.distinguished_line
a, b = line.span_over(QQ)
print("line through:", line.point_a, "and", line.point_b)

conic = tacnodal_conic(fix, line)
print("\ntacnodal conic q(h) = (B.h)^2 - 4 (A.h)(C.h), as a 5 x 5 matrix:")
for row in conic:
    print("  [" + ", ".join(QQ.fmt(c) for c in row) + "]")

print("\nreadings at x = a + t b:")
off = 0
for t in (F(1), F(2), F(3), F(5), F(7), F(11)):
    p = ProjectivePoint.make(QQ, [ai + t * bi for ai, bi in zip(a, b)])
    H, cls, _, _ = tacnodal_hyperplane_on_line(fix, line, p)
    q = sum(H[i] * conic[i][k] * H[k] for i in range(5) for k in range(5))
    print(f"  t = {t}: section germ {cls}, hyperplane "
          + "[" + ", ".join(QQ.fmt(h) for h in H) + f"], q(H) = {QQ.fmt(q)}")
    off += bool(q)
if off:
    raise SystemExit(f"{off} of the six readings are off the conic")

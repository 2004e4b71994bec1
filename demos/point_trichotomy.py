#!/usr/bin/env python3
"""The three shapes of the two degenerate sections at a generic point.

At a generic smooth point p, exactly two hyperplanes through the tangent
plane cut sections with a non-nodal singularity at p (the roots of the
Hessian form).  Each such section is either a doubled conic or a curve with
an ordinary cusp, giving three cases; which one occurs is decided globally
by how many units of shape (1k) the Segre symbol contains.
"""

import random

from segrecusp.cusplocus import cusp_locus_summary, sample_point_cases
from segrecusp.instances import sampling_instance
from segrecusp.lines import enumerate_lines

for name in ("[1(11)(11)]", "[1(13)]", "[11111]"):
    inst = sampling_instance(name, seed=5)
    if inst.lines is None:
        enumerate_lines(inst)
    pairs = sample_point_cases(inst, 2, rng=random.Random(3))
    summary = cusp_locus_summary(inst, sample_points=[p for p, _ in pairs])
    print(f"{name}: cuspidal locus is {summary.classification}")
    for p, pc in pairs:
        kinds = [str(k) for k in pc.root_classes]
        print(f"  at {p}: {pc.case}, root sections {kinds}")
    print()

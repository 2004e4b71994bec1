#!/usr/bin/env python3
"""A tour of the sixteen Segre quartic types.

For each symbol: the default pencil, its singular points with ADE types,
the line census (n0 + n1 + n2 by singular incidence), the number of
double-conic pencils, and what that number says about the cuspidal locus.
"""

from segrecusp.cusplocus import CASE_BY_COUNT
from segrecusp.instances import table1_instance
from segrecusp.lines import enumerate_lines
from segrecusp.pencil import TABLE1_SYMBOLS

print(f"{'symbol':12} {'Sing(S)':16} {'lines':11} {'dc':3} cuspidal locus")
print("-" * 60)
for symbol in TABLE1_SYMBOLS:
    inst = table1_instance(str(symbol), seed=11)
    sing = "+".join(inst.singularity_multiset()) or "none"
    census = enumerate_lines(inst)
    n0, n1, n2 = census.counts
    dc = inst.pencil.double_conic_pencil_count()
    print(f"{str(symbol):12} {sing:16} {n0:2}+{n1:2}+{n2:2}   {dc:2}  "
          f"{CASE_BY_COUNT[dc]}")

print()
print("dc = number of pencils of doubled conics; 2 of them empty the")
print("cuspidal locus, 1 makes it birational to the surface, 0 makes it a")
print("double covering branched along some of the lines above.")

"""The three benchmark workloads and the references their items are checked
against.

Each workload builds its items in ``setup``, in an order drawn from the
seed, and then hands them out by index: ``item(i)`` returns a label and a
function that runs the item through segrecusp's public API and returns
``(problems, known)``, the list of disagreements with the reference and
whether they are all the known census defect.  An item is a pure function of (seed, i), so a traced run can
replay the same items untraced to measure the tracing overhead.

segrecusp functions are looked up on their modules at call time
(``lines.enumerate_lines``, not a local alias), so the tracer's patches
apply.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from importlib import resources
from pathlib import Path

from segrecusp import (appendix, cusplocus, instances, linalg, lines, pencil,
                       surface)
from segrecusp.fields import QQ

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def _load_fixture():
    path = resources.files("segrecusp").joinpath("data", "table1.json")
    with path.open() as fh:
        return json.load(fh)["rows"]


TABLE1 = _load_fixture()
SYMBOLS = [str(s) for s in pencil.TABLE1_SYMBOLS]
DS_NAME = {0: "irreducible", 1: "reducible", 2: "cuspidal-image-empty"}
# the paper's trichotomy: double-conic pencils (2, 1, 0) <-> cases I, II, III
CASE_OF_DS = {"cuspidal-image-empty": ("CaseI", "Empty"),
              "reducible": ("CaseII", "BirationalToS"),
              "irreducible": ("CaseIII", "DoubleCoverOfS")}


class Workload:
    name = ""

    def __init__(self, seed):
        self.seed = seed
        self.counters = Counter()
        self.items = []

    def setup(self):
        raise NotImplementedError

    @property
    def pass_size(self):
        """Items in one pass; item i and item i + pass_size are the same."""
        return len(self.items)

    def item(self, i):
        return self.items[i % len(self.items)]


# --------------------------------------------------------------------------
# census: the Table-1 regression and congruent copies

# The census inputs do not depend on the run seed, which only orders the
# items of a pass.  The congruence of each
# copy is the draw of random.Random(1), one matrix per symbol in Table-1
# order, and every surface runs with Newton seed 1, as in
# `segre-cusp table1 --seed 1`; in that draw [5] and [11(12)] miscount.
# Another Newton seed changes the cost of a surface by up to 40%, another
# dense matrix by up to 1.7x, which the six surfaces of a pass cannot
# average out (README.md).
CENSUS_SEED = 1
# The known census defect: the line counts that enumerate_lines gives on
# these congruent copies at the commit that added the benchmark, where
# Table 1 has [1, 2, 0] and [0, 4, 0].  Only exactly these counts pass as
# known; any other miscount of any item makes the run incorrect.
KNOWN_CENSUS_DEFECT = {"[5]": [2, 2, 0], "[11(12)]": [0, 3, 0]}


def random_congruence(rng):
    """An invertible 5x5 integer matrix with entries in [-2, 2]."""
    while True:
        A = [[Fraction(rng.randint(-2, 2)) for _ in range(5)] for _ in range(5)]
        if linalg.mat_det(QQ, A):
            return A


class Census(Workload):
    """Each surface as ``segre-cusp table1 --seed S`` runs it: symbol, ADE
    multiset, ``enumerate_lines`` and the x line report.

    A pass is the default form and the congruent copy of each symbol in
    MEASURED: six items, 8 s to 12 s, so a 30 s run makes two or three
    passes and each item's latency is the mean of them.  A congruent copy
    has no coordinate lines, so Newton and the clustering carry its census; the
    copies of [5] and [11(12)] show the known census defect, and [11111] is
    the cheapest copy that counts right.  The other thirteen symbols (62 s
    more per pass at the commit that added the benchmark) are left out: a
    single pass of all of them does not fit a run, and with one pass per run
    the latencies of single items spread more than the bounds allow."""

    name = "census"
    MEASURED = ("[5]", "[11111]", "[11(12)]")

    def setup(self):
        dense = random.Random(CENSUS_SEED)
        for sym in SYMBOLS:
            # one draw per symbol in Table-1 order, measured or not
            congruence = random_congruence(dense)
            if sym not in self.MEASURED:
                continue
            form = pencil.default_instance(sym)
            copy = form.congruent(congruence)
            self.items.append((f"{sym} default", partial(
                self._survey, form.P, form.Q, sym, False)))
            self.items.append((f"{sym} congruent", partial(
                self._survey, copy.P, copy.Q, sym, True)))
        random.Random(self.seed).shuffle(self.items)

    def _survey(self, P, Q, sym, congruent):
        want = TABLE1[sym]
        pen = pencil.QuadricPencil(P, Q)
        symbol = pen.segre_symbol()
        got = {"symbol": sym if symbol == pencil.SegreSymbol.parse(sym) else str(symbol)}
        surf = surface.SurfaceInstance(pen, seed=CENSUS_SEED)
        got["sing"] = surf.singularity_multiset()
        census = lines.enumerate_lines(surf, newton_tol=1e-10)
        got["lines"] = list(census.counts)
        got["x"] = None
        for line in census.lines:
            if (line.exactness == "exact" and line.n_incident == 2
                    and line.field() == QQ):
                got["x"] = cusplocus.line_report(surf, line).m
                break
        got["DS"] = DS_NAME[pen.double_conic_pencil_count()]

        self.counters["lines_wanted"] += sum(want["lines"])
        for g, w in zip(got["lines"], want["lines"]):
            self.counters["lines_recalled"] += min(g, w)
            self.counters["lines_spurious"] += max(g - w, 0)
        expected = {"symbol": sym, "sing": sorted(want["sing"]),
                    "lines": want["lines"], "x": want["x"], "DS": want["DS"]}
        bad = [k for k in expected if got[k] != expected[k]]
        problems = [f"{k}: got {got[k]} want {expected[k]}" for k in bad]
        known = (congruent and bad == ["lines"]
                 and got["lines"] == KNOWN_CENSUS_DEFECT.get(sym))
        return problems, known


# --------------------------------------------------------------------------
# singular_lines: every exact rational line of the Table-1 surfaces


def _plucker(a, b):
    p = [a[i] * b[j] - a[j] * b[i] for i, j in itertools.combinations(range(5), 2)]
    lead = next(c for c in p if c)
    return tuple(c / lead for c in p)


def singular_line_cases():
    """(key, surface, line) for each distinct rational line found by the
    exact scans, over the Table-1 symbols at the default eigenvalues.

    The key (symbol, ADE types of the singular points on the line, support
    of its Plücker vector) names the line independently of the pencil basis.
    """
    cases = []
    for sym in SYMBOLS:
        n_units = len(pencil.SegreSymbol.parse(sym).units)
        params = pencil.DEFAULT_EIGENVALUES[:n_units]
        surf = surface.SurfaceInstance(pencil.normal_form(sym, params))
        sing = surf.singularities()
        seen = set()
        for a, b in _exact_scan(surf):
            line = lines.LineOnSurface(a, b, "exact")
            if line.field() != QQ:
                continue
            va, vb = line.span_over(QQ)
            pl = _plucker(va, vb)
            if pl in seen:
                continue
            seen.add(pl)
            incident = sorted(str(ade) for p, ade in sing if p.field == QQ
                              and linalg.mat_rank(QQ, [va, vb, list(p.coords)]) == 2)
            support = "".join("1" if c else "0" for c in pl)
            cases.append((f"{sym}|{','.join(incident)}|{support}", surf, line))
    return cases


class SingularLines(Workload):
    """``line_report`` on each exact line of the Table-1 surfaces and one
    ``verify_appendix()`` item, in the order the seed shuffles them to.
    Lines off Sing(S) must give (m, branch) = (0, 1); every line must match
    the table in reference.json, recorded by record_reference.py.

    The seed orders the items but does not change them: another pencil
    basis or other eigenvalues change the cost of a pass by up to 17%
    (README.md)."""

    name = "singular_lines"

    def setup(self):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)["singular_lines"]
        for key, surf, line in singular_line_cases():
            self.items.append((key, partial(self._report, surf, line, key,
                                            reference.get(key))))
        self.items.append(("verify_appendix", self._appendix))
        random.Random(self.seed).shuffle(self.items)

    @staticmethod
    def _report(surf, line, key, want):
        rep = cusplocus.line_report(surf, line)
        got = [rep.m, rep.disc_order, rep.branch_mult]
        problems = []
        if want is None:
            problems.append(f"no reference for {key}")
        elif got != want:
            problems.append(f"(m, disc, branch): got {got} want {want}")
        off_sing = key.split("|")[1] == ""
        if off_sing and (rep.m, rep.branch_mult) != (0, 1):
            problems.append(f"off Sing(S) but (m, branch) = "
                            f"({rep.m}, {rep.branch_mult})")
        return problems, False

    @staticmethod
    def _appendix():
        records = appendix.verify_appendix()
        problems = [f"{r['case']} failed" for r in records if not r["pass"]]
        if len(records) != 7:
            problems.append(f"{len(records)} appendix cases, want 7")
        return problems, False


# --------------------------------------------------------------------------
# trichotomy: point cases on a sampling instance of every symbol


class Trichotomy(Workload):
    """POINTS generic points of each of the sixteen symbols, one per item,
    in the order the seed shuffles them to: ``sample_point_cases`` for one
    point, then ``cusp_locus_summary``.  The case must be the one the
    Table-1 row predicts from the number of double-conic pencils, and so
    must the summary.

    The points do not depend on the seed: with seeded points, items_per_s
    spread 0.26 (IQR / median) over five seeds (README.md)."""

    name = "trichotomy"
    POINTS = 2

    def setup(self):
        for j, sym in enumerate(SYMBOLS):
            surf = instances.sampling_instance(sym)
            if surf.lines is None:
                # exact lines only; a point on another line is not generic
                # and sample_point_cases draws again
                surf.lines = [lines.LineOnSurface(a, b, "exact")
                              for a, b in _exact_scan(surf)]
            for k in range(self.POINTS):
                self.items.append((f"{sym} point {k}", partial(
                    self._point, sym, surf, f"{j}:{k}")))
        random.Random(self.seed).shuffle(self.items)

    def _point(self, sym, surf, point_seed):
        rng = random.Random(point_seed)
        ((_, pc),) = cusplocus.sample_point_cases(surf, 1, rng=rng)
        self.counters["points_accepted"] += 1
        summary = cusplocus.cusp_locus_summary(surf)
        want_case, want_summary = CASE_OF_DS[TABLE1[sym]["DS"]]
        problems = []
        if pc.case != want_case:
            problems.append(f"case: got {pc.case} want {want_case}")
        if summary.classification != want_summary:
            problems.append(f"summary: got {summary.classification} "
                            f"want {want_summary}")
        return problems, False


def _exact_scan(surf):
    """Exact line spans from the coordinate and through-point scans."""
    pairs = list(lines.coordinate_lines(surf.pencil))
    for point in surf.singular_points():
        found, _ = lines.lines_through_singular_point(surf.pencil, point)
        pairs.extend(found)
    return pairs


WORKLOADS = {w.name: w for w in (Census, SingularLines, Trichotomy)}

"""Pencils of quadrics in CP4 and their Segre symbols.

A pencil is stored as a pair of 5x5 symmetric rational matrices (P, Q).  The
Segre symbol collects, for each eigenvalue of the pencil, the multiset of
Jordan block sizes of M = R**-1 * S, where R is a recorded invertible member
and S an independent one, all on integer members: one row reduction over Z
per eigenvalue.  Degenerate members, their exact kernels, and the count of
double-conic pencils all derive from this data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import (CrossCheckMismatch, DegeneratePencil, DuplicateEigenvalue,
                     IrrationalEigenvalue)
from .fields import QQ, _integral, parse_rational, proj_normalize
from .linalg import (_dot, det_pencil, gram_matrix, mat_rank, mat_solve,
                     rational_roots, rref, rref_kernel, transpose)

DIM = 5

# trial members (a, b) -> a*P + b*Q; seven distinct projective points cannot
# all be roots of a nonzero quintic form, so failure of all proves degeneracy
_MEMBER_TRIALS = [(0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (1, 3), (1, 4)]


def second_intersection(G, p, w):
    """The second point of the quadric X^T M X = 0 on the line through its
    point p in the direction w, q(w) p - 2 b(p, w) w, with G the Gram matrix
    of [p, w] under M (:func:`segrecusp.linalg.gram_matrix`)."""
    qw, bw = G[1][1], G[0][1]
    return [qw * pk - 2 * bw * wk for pk, wk in zip(p, w)]


# --------------------------------------------------------------------------
# Segre symbols


_UNIT_RE = re.compile(r"\((\d+)\)|(\d)")


@dataclass(frozen=True)
class SegreSymbol:
    """Multiset of bracketed partitions, e.g. [(12)(11)] or [221].

    ``units`` keeps the written order (relevant for parameter assignment);
    equality compares the underlying multiset.  ``eigenvalues``, when present,
    records the projective root (lam:mu) of det(lam*P + mu*Q) attached to each
    unit of a computed symbol.
    """

    units: tuple
    eigenvalues: tuple = None

    @staticmethod
    def parse(text: str) -> "SegreSymbol":
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"malformed Segre symbol {text!r}")
        units = []
        pos = 1
        for m in _UNIT_RE.finditer(text, 1):
            if m.start() != pos:
                raise ValueError(f"malformed Segre symbol {text!r}")
            pos = m.end()
            if m.group(1) is not None:
                units.append(tuple(sorted(int(ch) for ch in m.group(1))))
            else:
                units.append((int(m.group(2)),))
        if pos != len(text) - 1:
            raise ValueError(f"malformed Segre symbol {text!r}")
        sym = SegreSymbol(tuple(units))
        if sym.total() != DIM:
            raise ValueError(f"block sizes of {text!r} sum to {sym.total()}, not {DIM}")
        return sym

    def total(self):
        return sum(sum(u) for u in self.units)

    def canonical_units(self):
        return tuple(sorted((tuple(sorted(u)) for u in self.units),
                            key=lambda u: (-sum(u), len(u), u)))

    def __eq__(self, other):
        if not isinstance(other, SegreSymbol):
            return NotImplemented
        return self.canonical_units() == other.canonical_units()

    def __hash__(self):
        return hash(self.canonical_units())

    def __str__(self):
        parts = []
        for u in self.units:
            body = "".join(str(b) for b in sorted(u))
            parts.append(f"({body})" if len(u) > 1 else body)
        return "[" + "".join(parts) + "]"

    def __repr__(self):
        return f"SegreSymbol({self})"

    def double_conic_units(self):
        return [u for u in self.units if tuple(sorted(u)) in
                ((1, 1), (1, 2), (1, 3), (1, 4))]


TABLE1_SYMBOLS = [SegreSymbol.parse(s) for s in (
    "[11111]", "[1112]", "[111(11)]", "[12(11)]", "[1(11)(11)]", "[113]",
    "[122]", "[11(12)]", "[14]", "[1(13)]", "[(11)3]", "[(12)2]",
    "[(11)(12)]", "[(14)]", "[23]", "[5]")]


# --------------------------------------------------------------------------
# the pencil itself


@dataclass
class RankMember:
    root: tuple          # projective (lam, mu), exact rationals
    rank: int
    multiplicity: int    # multiplicity of the root in det(lam*P + mu*Q)
    kernel: list         # exact kernel basis vectors

    @property
    def is_rank3(self):
        return self.rank == 3


class QuadricPencil:
    """A non-degenerate pencil of quadrics on CP4 over Q."""

    def __init__(self, P, Q):
        self.P = [[parse_rational(c) for c in row] for row in P]
        self.Q = [[parse_rational(c) for c in row] for row in Q]
        for M in (self.P, self.Q):
            if len(M) != DIM or any(len(r) != DIM for r in M):
                raise ValueError("pencil matrices must be 5x5")
            if any(M[i][j] != M[j][i] for i in range(DIM) for j in range(DIM)):
                raise ValueError("pencil matrices must be symmetric")
        ints, self._den = _integral(sum(self.P + self.Q, []))
        self._ints = ints[:DIM * DIM], ints[DIM * DIM:]
        self._jordan = None
        self._members = None
        self._coerced = {}
        self._numerators = {}
        self._reference = None

    def is_single_quadric(self):
        """True when P and Q are linearly dependent (no actual pencil)."""
        return mat_rank(QQ, list(self._ints)) < 2

    def scaled_member(self, a, b):
        """a*P + b*Q at rationals a, b as an integer matrix over a positive
        integer: (Z, d), P and Q being scaled once to integers."""
        (x, y), e = _integral((a, b))
        z = [x * p + y * q for p, q in zip(*self._ints)]
        return [z[i:i + DIM] for i in range(0, DIM * DIM, DIM)], self._den * e

    @property
    def reference(self):
        """An invertible member (a, b), found once and recorded."""
        if self._reference is None:
            if self.is_single_quadric():
                raise DegeneratePencil("P and Q span a single quadric")
            for a, b in _MEMBER_TRIALS:
                if mat_rank(QQ, self.scaled_member(a, b)[0]) == DIM:
                    self._reference = (Fraction(a), Fraction(b))
                    break
            else:
                raise DegeneratePencil("det(lam*P + mu*Q) vanishes identically")
        return self._reference

    def coerced(self, field):
        """(P, Q) with their entries in ``field``, built once per field."""
        if field not in self._coerced:
            self._coerced[field] = tuple(
                [[field.coerce(c) for c in row] for row in M]
                for M in (self.P, self.Q))
        return self._coerced[field]

    def numerators(self, field):
        """(P, Q) scaled for :func:`segrecusp.linalg.scaled_gram` and
        :func:`~segrecusp.linalg.scaled_mat_vec`: each one's entries, row by
        row, as numerators over one denominator in ``field``, built once per
        field."""
        if field not in self._numerators:
            self._numerators[field] = tuple(
                field.numerators([c for row in M for c in row])
                for M in self.coerced(field))
        return self._numerators[field]

    def member(self, lam, mu):
        lam, mu = Fraction(lam), Fraction(mu)
        return [[lam * p + mu * q for p, q in zip(rp, rq)]
                for rp, rq in zip(self.P, self.Q)]

    # ------------------------------------------------------------- symbol

    def jordan_data(self):
        """(M, blocks): M = R**-1 * S (one row reduction of [R | S]) for the
        reference member R and an independent member S, and for each root
        alpha = p/q of det(S - t*R), ascending, the pair (alpha, ascending
        Jordan block sizes).  Raises IrrationalEigenvalue when a root is not
        rational.  All runs on integer members (:meth:`scaled_member`): one
        row reduction of q*S - p*R, of the row space of A = M - alpha*I,
        gives rank(A) and its kernel; rank(A**k) follows, until it is 5 -
        mult or stops falling, as the rank of (q*d*M - p*d*I)**k, d*M over
        Z.  As the multiplicities sum to 5, a misstated one makes the block
        sizes at some alpha miss theirs."""
        if self._jordan is not None:
            return self._jordan
        a, b = self.reference
        R = self.scaled_member(a, b)[0]
        S = self.scaled_member(*((1, 0) if (a, b) != (1, 0) else (0, 1)))[0]
        M = mat_solve(QQ, R, S)
        z, d = _integral(sum(M, []))
        roots, leftovers = rational_roots(det_pencil(S, R))
        if leftovers:
            raise IrrationalEigenvalue(
                f"pencil eigenvalue outside Q: irreducible factor(s) {leftovers}",
                factor=leftovers)
        if sum(mult for _, mult in roots) != DIM:
            raise CrossCheckMismatch(f"multiplicities {roots} do not sum to {DIM}")
        blocks, members = [], []
        for alpha, mult in sorted(roots):
            p, q = alpha.numerator, alpha.denominator
            A = [[q * s - p * r for s, r in zip(rs, rr)]
                 for rs, rr in zip(S, R)]
            red, pivots = rref(QQ, A)
            ranks = [DIM, len(pivots)]
            if ranks[1] != DIM - mult:
                N = Nk = [[q * z[DIM * i + j] - p * d * (i == j)
                           for j in range(DIM)] for i in range(DIM)]
            while ranks[-1] not in (DIM - mult, ranks[-2]):
                Nk = [[_dot(row, col) for col in zip(*N)] for row in Nk]
                ranks.append(mat_rank(QQ, Nk))
            at_least = [r - r1 for r, r1 in zip(ranks, ranks[1:])] + [0]
            sizes = tuple(k for k in range(1, len(at_least))
                          for _ in range(at_least[k - 1] - at_least[k]))
            if sum(sizes) != mult:
                raise CrossCheckMismatch(
                    f"Jordan blocks at {alpha} have sizes {sizes}, which do "
                    f"not sum to the multiplicity {mult}")
            blocks.append((alpha, sizes))
            members.append(RankMember(root=self._root_of(alpha),
                                      rank=ranks[1], multiplicity=mult,
                                      kernel=rref_kernel(QQ, red, pivots)))
        self._jordan = (M, blocks)
        self._symbol = SegreSymbol(tuple(sizes for _, sizes in blocks),
                                   tuple(m.root for m in members))
        self._members = sorted(members, key=lambda m: m.root)
        return self._jordan

    def _root_of(self, alpha):
        """The singular member S - alpha*R as its projective root (lam : mu)
        of det(lam*P + mu*Q)."""
        a, b = self.reference
        if (a, b) != (Fraction(1), Fraction(0)):
            return proj_normalize((Fraction(1) - alpha * a, -alpha * b))
        return proj_normalize((-alpha, Fraction(1)))

    def segre_symbol(self) -> SegreSymbol:
        self.jordan_data()
        return self._symbol

    # ------------------------------------------------------------- members

    def rank_drop_members(self):
        """One entry per root of det(lam*P + mu*Q), with exact kernel: the
        member S - alpha*R = R * A shares the row space of A = M - alpha*I,
        hence the rank and kernel basis ``jordan_data`` found."""
        self.jordan_data()
        return self._members

    def double_conic_pencil_count(self):
        """Number of pencils of double conics, with a rank cross-check."""
        sym = self.segre_symbol()
        by_symbol = len(sym.double_conic_units())
        by_rank = sum(1 for m in self.rank_drop_members() if m.is_rank3)
        if by_symbol != by_rank:
            raise CrossCheckMismatch(
                f"symbol predicts {by_symbol} double-conic pencils, "
                f"rank data gives {by_rank}")
        return by_symbol

    def congruent(self, A):
        """The pencil (A^T P A, A^T Q A)."""
        columns = transpose(A)
        return QuadricPencil(gram_matrix(QQ, self.P, columns),
                             gram_matrix(QQ, self.Q, columns))

    def basis_changed(self, a, b, c, d):
        """The pencil (a*P + b*Q, c*P + d*Q); requires ad - bc nonzero."""
        if a * d - b * c == 0:
            raise ValueError("basis change must be invertible")
        return QuadricPencil(self.member(a, b), self.member(c, d))


# --------------------------------------------------------------------------
# normal forms


def _block_pair(size, alpha):
    """P- and Q-blocks for a single Jordan block of the pencil.

    Q is the anti-identity; P puts the eigenvalue on the anti-diagonal and
    ones on the adjacent (lower) anti-diagonal, matching the classical
    symmetric normal form of a pair.
    """
    P = [[Fraction(0)] * size for _ in range(size)]
    Q = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        Q[i][size - 1 - i] = Fraction(1)
        P[i][size - 1 - i] = Fraction(alpha)
    for i in range(size):
        j = size - i
        if 0 <= j < size:
            P[i][j] = P[i][j] + 1
    return P, Q


def _hyperbolic_pair(alpha):
    P = [[Fraction(0), Fraction(alpha)], [Fraction(alpha), Fraction(0)]]
    Q = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    return P, Q


def normal_form(symbol, params) -> QuadricPencil:
    """Instantiate a Segre symbol as an explicit rational pencil.

    ``params`` assigns one rational per unit, in the symbol's written order
    (a list, or a mapping whose insertion order is used).  Distinct units
    must receive distinct values.
    """
    if isinstance(symbol, str):
        symbol = SegreSymbol.parse(symbol)
    if isinstance(params, dict):
        values = [parse_rational(v) for v in params.values()]
    else:
        values = [parse_rational(v) for v in params]
    if len(values) != len(symbol.units):
        raise ValueError(f"{symbol} needs {len(symbol.units)} parameters, "
                         f"got {len(values)}")
    if len(set(values)) != len(values):
        raise DuplicateEigenvalue(f"parameters {values} are not distinct")
    P = [[Fraction(0)] * DIM for _ in range(DIM)]
    Q = [[Fraction(0)] * DIM for _ in range(DIM)]
    offset = 0
    for unit, alpha in zip(symbol.units, values):
        blocks = sorted(unit)
        if blocks == [1, 1]:
            pieces = [_hyperbolic_pair(alpha)]
        else:
            pieces = [_block_pair(b, alpha) for b in blocks]
        for bp, bq in pieces:
            k = len(bp)
            for i in range(k):
                for j in range(k):
                    P[offset + i][offset + j] = bp[i][j]
                    Q[offset + i][offset + j] = bq[i][j]
            offset += k
    if offset != DIM:
        raise CrossCheckMismatch(f"{symbol} fills {offset} of {DIM} rows")
    pencil = QuadricPencil(P, Q)
    computed = pencil.segre_symbol()
    if computed != symbol:
        raise CrossCheckMismatch(
            f"normal form round-trip failed: wanted {symbol}, got {computed}")
    return pencil


DEFAULT_EIGENVALUES = [Fraction(1), Fraction(2), Fraction(5), Fraction(7),
                       Fraction(11)]


def default_instance(symbol) -> QuadricPencil:
    """The symbol instantiated at the default eigenvalues 1, 2, 5, 7, 11."""
    if isinstance(symbol, str):
        symbol = SegreSymbol.parse(symbol)
    return normal_form(symbol, DEFAULT_EIGENVALUES[:len(symbol.units)])


# --------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    checks: dict = dc_field(default_factory=dict)
    failures: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def record(self, name, ok, detail=""):
        self.checks[name] = {"ok": bool(ok), "detail": detail}
        if not ok:
            self.failures.append(name)


def validate_segre(pencil: QuadricPencil) -> ValidationReport:
    """Desk-scale sanity checks that the pencil cuts out a Segre surface."""
    report = ValidationReport()
    try:
        pencil.reference
        report.record("nondegenerate_pencil", True)
    except DegeneratePencil as exc:
        report.record("nondegenerate_pencil", False, str(exc))
        return report
    try:
        sym = pencil.segre_symbol()
        report.record("segre_symbol", True, str(sym))
    except IrrationalEigenvalue as exc:
        report.record("segre_symbol", False, str(exc))
        return report
    members = pencil.rank_drop_members()
    min_rank = min(m.rank for m in members) if members else DIM
    report.record("no_low_rank_member", min_rank >= 3,
                  f"minimal member rank {min_rank}")
    report.record("finite_singular_candidates",
                  all(m.rank >= 3 for m in members),
                  "kernels of degenerate members have dimension <= 2")
    return report

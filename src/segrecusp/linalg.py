"""Small exact linear algebra helpers over the package's scalar domains.

Matrices are plain lists of lists of field elements; every routine takes the
field descriptor explicitly so the same code serves Q, Q(sqrt(d)) and Q(x).
Over Q, products, row reductions and determinants run on integers: each row
or column is scaled once by the lcm of its denominators, the work is done
with ``int`` arithmetic, and each output entry is built as one ``Fraction``.
Row reduction is fraction-free Gauss-Jordan and the determinant is
Bareiss's elimination (E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import sympy

from .errors import CrossCheckMismatch
from .fields import (QQ, _integral, _primitive, _rational, pderiv, pdivmod,
                     pgcd)


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)]
            for i in range(n)]


def transpose(M):
    return [list(col) for col in zip(*M)]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v) if a)


def mat_mul(A, B):
    if _rational(*A, *B):
        rows, cols = map(_integral, A), [_integral(c) for c in zip(*B)]
        return [[Fraction(_dot(a, b), da * db) for b, db in cols]
                for a, da in rows]
    n, k, m = len(A), len(B), len(B[0])
    return [[sum((A[i][t] * B[t][j] for t in range(k)),
                 start=A[0][0] * 0) for j in range(m)] for i in range(n)]


def mat_vec(A, v):
    if _rational(*A, v):
        v, dv = _integral(v)
        return [Fraction(_dot(a, v), da * dv) for a, da in map(_integral, A)]
    return [sum((A[i][j] * v[j] for j in range(len(v))), start=A[0][0] * 0)
            for i in range(len(A))]


def gram_matrix(field, M, vectors):
    """The matrix (v_a^T M v_b) of the vectors, skipping zero entries; over
    Q, integer dot products of M scaled by one common denominator and each
    vector by its own."""
    if field != QQ or not _rational(*M, *vectors):
        return _gram(M, vectors, field.zero)
    dM = math.lcm(*(c.denominator for row in M for c in row))
    M = [[c.numerator * (dM // c.denominator) for c in row] for row in M]
    ints = [_integral(v) for v in vectors]
    G = _gram(M, [v for v, _ in ints], 0)
    return [[Fraction(g, da * dM * db) for g, (_, db) in zip(row, ints)]
            for row, (_, da) in zip(G, ints)]


def _gram(M, vectors, zero):
    supports = [[(k, v) for k, v in enumerate(c) if v] for c in vectors]
    images = [[sum((row[k] * v for k, v in support if row[k]), zero)
               for row in M] for support in supports]
    return [[sum((v * images[b][k] for k, v in supports[a]), zero)
             for b in range(len(vectors))] for a in range(len(vectors))]


def _row_reduce(field, M, ncols=None):
    """In-place reduced row echelon form of the first ``ncols`` columns;
    returns the pivot column list.

    Over Q it is fraction-free: the rows are scaled to primitive integer
    rows, eliminating with pivot p in row r turns row i, of entry f in the
    pivot column, into (p/g) row_i - (f/g) row_r, g = gcd(p, f), divided by
    its content, and the pivot rows are divided by their pivots at the end.
    Every row is a nonzero multiple of the row the same elimination over Q
    has at that step, so the pivots and the reduced form are the same; only
    rows below the rank, zero in the first ``ncols`` columns, keep an
    integer multiple of their last columns.
    """
    rows = len(M)
    cols = ncols if ncols is not None else (len(M[0]) if rows else 0)
    if field == QQ and _rational(*M):
        return _zrow_reduce(M, cols)
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = field.one / M[r][c]
        # the pivot column becomes one and zeros with no arithmetic, and a
        # zero entry of the pivot row is not scaled
        M[r] = [field.one if k == c else a * inv if a else field.zero
                for k, a in enumerate(M[r])]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [field.zero if k == c else a - f * b
                        for k, (a, b) in enumerate(zip(M[i], M[r]))]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def _zrow_reduce(M, cols):
    """:func:`_row_reduce` of a rational matrix, on integers."""
    work = [_primitive(_integral(row)[0]) for row in M]
    rows, pivots = len(work), []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        top = work[r]
        p = top[c]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                g = math.gcd(p, f)
                s, t = p // g, f // g
                work[i] = _primitive([s * a - t * b
                                      for a, b in zip(row, top)])
        pivots.append(c)
        if len(pivots) == rows:
            break
    for i, row in enumerate(work):
        p = row[pivots[i]] if i < len(pivots) else 1
        M[i] = [Fraction(a, p) for a in row]
    return pivots


def rref(field, M):
    """The reduced row echelon form of M, as a new matrix, and its pivot
    columns."""
    work = [row[:] for row in M]
    return work, _row_reduce(field, work)


def rref_kernel(field, R, pivots):
    """Basis of the right kernel of a matrix from its reduced row echelon
    form R: for each free column f, the vector with 1 at f, 0 at the other
    free columns and -R[r][f] at the r-th pivot column (Cohen, GTM 138,
    section 2.3)."""
    n = len(R[0])
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [field.zero] * n
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def mat_rank(field, M):
    return len(rref(field, M)[1])


def nullspace(field, M):
    """Basis of the right kernel of M as a list of vectors."""
    if not M:
        return []
    return rref_kernel(field, *rref(field, M))


def solve_linear(field, M, b):
    """One solution of M x = b, or None if inconsistent."""
    n = len(M[0])
    aug = [row[:] + [bv] for row, bv in zip(M, b)]
    pivots = _row_reduce(field, aug, ncols=n)
    for row in aug:
        if not any(row[:n]) and row[n]:
            return None
    x = [field.zero] * n
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][n]
    return x


def mat_det(field, M):
    """The determinant; over Q by Bareiss's elimination of the rows scaled
    to integers, divided by the product of the row scales."""
    if field == QQ and _rational(*M):
        return _zdet(M)
    n = len(M)
    work = [row[:] for row in M]
    det = field.one
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c]), None)
        if piv is None:
            return field.zero
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            det = -det
        det = det * work[c][c]
        inv = field.one / work[c][c]
        for i in range(c + 1, n):
            if work[i][c]:
                f = work[i][c] * inv
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return det


def _zdet(M):
    """:func:`mat_det` of a rational matrix: after step c every entry of the
    rows below is a (c + 1)-minor, so each division by the previous pivot
    is exact (Sylvester's identity)."""
    work, scale = [], 1
    for row in M:
        ints, d = _integral(row)
        work.append(ints)
        scale *= d
    n, sign, prev = len(work), 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            sign = -sign
        top = work[c]
        p = top[c]
        for i in range(c + 1, n):
            f = work[i][c]
            work[i] = [(p * a - f * b) // prev
                       for a, b in zip(work[i], top)]
        prev = p
    return Fraction(sign * prev, scale)


def mat_solve(field, A, B):
    """A**-1 * B from one row reduction of [A | B]."""
    n = len(A)
    aug = [ra + rb for ra, rb in zip(A, B)]
    if len(_row_reduce(field, aug, ncols=n)) != n:
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in aug]


def mat_inv(field, M):
    return mat_solve(field, M, identity(field, len(M)))


def char_poly(M):
    """det(t*I - M) of a rational matrix, ascending: its values over Q at
    t = 0 .. n, interpolated in Newton form (Cohen, GTM 138, section 2.2)."""
    n = len(M)
    c = [mat_det(QQ, [[int(i == j) * t - x for j, x in enumerate(row)]
                      for i, row in enumerate(M)]) for t in range(n + 1)]
    for k in range(1, n + 1):  # divided differences: nodes k apart
        c[k:] = [(b - a) / k for a, b in zip(c[k - 1:], c[k:])]
    poly = [c[n]]
    for k in range(n - 1, -1, -1):  # Horner: poly * (t - k) + c[k]
        poly = [a - k * b for a, b in zip([c[k]] + poly, poly + [0])]
    return tuple(poly)


def sym_matrix(n, coeffs):
    """The symmetric n x n matrix of the quadratic form sum c X_i X_j.

    ``coeffs`` maps index pairs (i, j) to monomial coefficients c: c goes on
    the diagonal when i == j and c/2 to (i, j) and (j, i) otherwise.
    """
    M = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in coeffs.items():
        c = Fraction(c)
        if i == j:
            M[i][i] = c
        else:
            M[i][j] += c / 2
            M[j][i] += c / 2
    return M


def complete_basis(field, vectors, n):
    """Extend independent vectors to a basis of the n-dimensional space."""
    basis = [list(v) for v in vectors]
    for j in range(n):
        cand = [field.one if k == j else field.zero for k in range(n)]
        trial = basis + [cand]
        if mat_rank(field, trial) == len(trial):
            basis.append(cand)
        if len(basis) == n:
            break
    if len(basis) != n:
        raise CrossCheckMismatch("could not complete basis")
    return basis


# --------------------------------------------------------------------------
# univariate polynomials over Q: rational roots, and sympy's factors of the rest


_T = sympy.Symbol("_t")


def split_rational_roots(coeffs):
    """The rational roots of a nonzero polynomial over Q, and its cofactor.

    ``coeffs`` are ascending ``Fraction`` or ``int`` coefficients.  Returns
    (roots, rest): {root: multiplicity} in the order found, and the
    polynomial divided by every root as often as it divides.  Each root is
    guessed from a float root of the squarefree part g: its denominator
    divides the leading coefficient of g scaled to a primitive integer
    polynomial, so the guess is the nearest fraction whose denominator is
    at most that coefficient.  A guess counts only once it divides the
    polynomial exactly.  Both :func:`rational_roots` and the line census
    (:func:`segrecusp.lines.through_point_lines`) factor this way.
    """
    f = tuple(coeffs)
    g = pdivmod(f, pgcd(f, pderiv(f)))[0]
    ints = _integral(g)[0]
    bound = abs(ints[-1] // math.gcd(*ints))
    try:
        guesses = np.roots([float(c) for c in reversed(g)])
    except OverflowError:
        guesses = []
    roots = {}
    for z in guesses:
        if not abs(z.imag) <= 1e-6 * max(1.0, abs(z.real)):
            continue
        try:
            r = Fraction(float(z.real)).limit_denominator(bound)
        except (OverflowError, ValueError):
            continue
        if r in roots:
            continue
        q, rem = pdivmod(f, (-r, Fraction(1)))
        while not rem:
            f, roots[r] = q, roots.get(r, 0) + 1
            q, rem = pdivmod(f, (-r, Fraction(1)))
    return roots, f


def factor_over_q(coeffs):
    """sympy's ``factor_list`` of a polynomial over Q given by ascending
    coefficients: (Poly in one variable, multiplicity) pairs."""
    return sympy.Poly.from_list(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
        _T).factor_list()[1]


def rational_roots(coeffs):
    """All rational roots with multiplicities, plus leftover factors.

    ``coeffs`` is an ascending Fraction tuple.  Returns
    (roots: list[(Fraction, int)] ascending, other_factors: list[str]).
    The roots come from :func:`split_rational_roots`; only a leftover of
    positive degree is factored (sympy's ``factor_list``), and its linear
    factors are roots too.
    """
    roots, f = split_rational_roots(coeffs)
    leftovers = []
    if len(f) > 1:
        for fac, mult in factor_over_q(f):
            if fac.degree() == 1:
                a1, a0 = fac.all_coeffs()
                root = sympy.Rational(-a0, a1)
                roots[Fraction(int(root.p), int(root.q))] = int(mult)
            elif fac.degree() > 0:
                leftovers.append(str(fac.as_expr()))
    return sorted(roots.items()), leftovers

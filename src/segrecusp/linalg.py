"""Small exact linear algebra helpers over the package's scalar domains.

Matrices are plain lists of lists of field elements; every routine takes the
field descriptor explicitly so the same code serves Q, Q(sqrt(d)) and Q(x).
Row reduction (reduced forms, kernels, solves and inverses), ranks and
determinants share one elimination, :func:`_eliminate`: Bareiss's
fraction-free Gauss-Jordan (E. H. Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968),
run on the field's ring of numerators (Z, Z[sqrt(d)] or Q(x); see
:mod:`segrecusp.fields`), with one division per entry back into the field
at the end.  Gram matrices and :func:`mat_vec` run on the same numerators
(a matrix used often, like a pencil member, can be scaled once and passed to
:func:`scaled_gram`, :func:`gram_numerators` and :func:`scaled_mat_vec`;
:func:`upper_gram_numerators` forms the upper triangles of several
symmetric matrices' Gram matrices on one set of numerators),
and :func:`det_pencil` and :func:`split_rational_roots` on integers.
:func:`mat_mul`, which no routine of the package calls, is the plain loop.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import CrossCheckMismatch
from .fields import (QQ, _integral, _primitive, _ptrim, _zdivmod, _zgcd,
                     pderiv)


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)]
            for i in range(n)]


def transpose(M):
    return [list(col) for col in zip(*M)]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v) if a)


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum((A[i][t] * B[t][j] for t in range(k)), start=Fraction(0))
             for j in range(m)] for i in range(n)]


def mat_vec(field, A, v):
    """The product A v (:func:`scaled_mat_vec` of A's numerators)."""
    return scaled_mat_vec(field, field.numerators([c for row in A for c in row]),
                          v)


def scaled_mat_vec(field, scaled, v):
    """The product A v on the field's numerators: ``scaled`` is A's
    entries, row by row, as numerators over one denominator (the field's
    ``numerators``), and v is taken over another."""
    n, (a, da) = len(v), scaled
    v, dv = field.numerators(v)
    zero = a[0] * 0
    return field.fractions([sum((c * x for c, x in zip(a[i:i + n], v) if c),
                                zero) for i in range(0, len(a), n)], da * dv)


def gram_matrix(field, M, vectors):
    """The matrix (v_a^T M v_b) of the vectors (:func:`scaled_gram` of M's
    numerators)."""
    return scaled_gram(field, field.numerators([c for row in M for c in row]),
                       vectors)


def scaled_gram(field, scaled, vectors):
    """The Gram matrix of the vectors under the matrix whose numerators are
    ``scaled`` (as in :func:`scaled_mat_vec`)."""
    rows, den = gram_numerators(field, scaled, vectors)
    return [field.fractions(row, den) for row in rows]


def gram_numerators(field, scaled, vectors):
    """(G, d): the Gram matrix of the vectors under the matrix whose
    numerators are ``scaled`` is G / d, G in the ring of numerators.
    Zero entries are skipped; the vectors are taken over one denominator."""
    (m, dm), (supports, dv) = scaled, _supports(field, vectors)
    images, zero = _images(m, supports), m[0] * 0
    return [[sum((c * image[k] for k, c in support), zero)
             for image in images] for support in supports], dv * dm * dv


def upper_gram_numerators(field, members, vectors):
    """The upper triangles of the Gram matrices of the vectors under
    symmetric matrices, given by their numerators (as in
    :func:`scaled_mat_vec`), in one pass with the vectors taken over one
    denominator once: for each matrix, (G, d) with G / d its Gram matrix
    and G a dict of the nonzero entries G_ab, a <= b."""
    supports, dv = _supports(field, vectors)
    out = []
    for m, dm in members:
        images, zero, G = _images(m, supports), m[0] * 0, {}
        for a, support in enumerate(supports):
            for b in range(a, len(supports)):
                g = sum((c * images[b][k] for k, c in support), zero)
                if g:
                    G[a, b] = g
        out.append((G, dv * dm * dv))
    return out


def _supports(field, vectors):
    """The vectors' numerators over one denominator d, each as its (index,
    entry) pairs of nonzero entry, and d."""
    n = len(vectors[0]) if vectors else 1
    v, dv = field.numerators([c for vec in vectors for c in vec])
    return [[(k, c) for k, c in enumerate(v[i:i + n]) if c]
            for i in range(0, len(v), n)], dv


def _images(m, supports):
    """The products M v of the square matrix M, whose entries row by row
    are ``m``, with the vectors of :func:`_supports`."""
    n, zero = math.isqrt(len(m)), m[0] * 0
    M = [m[i:i + n] for i in range(0, n * n, n)]
    return [[sum((row[k] * c for k, c in support if row[k]), zero)
             for row in M] for support in supports]


def _row_reduce(field, M, ncols=None):
    """In-place reduced row echelon form of the first ``ncols`` columns;
    returns the pivot column list.

    The rows are taken to the field's ring of numerators and reduced there
    by :func:`_eliminate`, whose pivot rows are then the reduced form times
    the last pivot p: the pivot columns are set to 0 and 1, and the other
    entries are divided by p (over Q(x), a numerator over 1 comes back as
    it is, and only then is coerced).  Rows below the rank, zero in the
    first ``ncols`` columns, keep a nonzero multiple of their last columns.
    """
    width = len(M[0]) if M else 0
    rows = [field.numerators(row)[0] for row in M]
    pivots, _, p = _eliminate(field, rows, width if ncols is None else ncols,
                              jordan=True)
    free = [k for k in range(width) if k not in pivots]
    for i, row in enumerate(rows):
        M[i] = [field.zero] * len(row)
        nums = [row[k] for k in free]
        values = field.fractions(nums, p)
        for k, v in zip(free, values if values is not nums
                        else map(field.coerce, nums)):
            M[i][k] = v
    for i, c in enumerate(pivots):
        M[i][c] = field.one
    return pivots


def _eliminate(field, rows, cols, jordan):
    """Bareiss's fraction-free elimination, on their first ``cols`` columns,
    of the rows of numerators of ``field`` in the list ``rows``, which it
    updates with new rows: Gauss-Jordan when ``jordan``, else below the
    pivots only.  Returns the pivot columns, the sign of the row swaps and
    the last pivot (1 if there is none).

    With pivot p in row r and previous pivot q, every other row of entry f
    in the pivot column becomes (p row - f row_r) / q.  Each entry is then
    a minor of the matrix (Sylvester's identity), so the division is exact
    in the ring.  Row r is zero before column c, and so are the rows below,
    so only the later columns and the skipped (pivotless) columns of the
    rows above change; the pivot columns are left as they are, the caller
    knowing their values (p at a row's own pivot column, 0 elsewhere).
    """
    div = field.divexact
    n, pivots, skipped, sign, prev = len(rows), [], [], 1, 1
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            skipped.append(c)
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i in range(0 if jordan else r + 1, n):
            if i != r:
                row = rows[i]
                g = -row[c]
                rows[i] = row = row[:c + 1] + [
                    div(p * a + g * b, prev)
                    for a, b in zip(row[c + 1:], top[c + 1:])]
                if i < r:
                    for k in skipped:
                        row[k] = div(p * row[k], prev)
        pivots.append(c)
        prev = p
        if r + 1 == n:
            break
    return pivots, sign, prev


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
    rows = [field.numerators(row)[0] for row in M]
    return len(_eliminate(field, rows, len(M[0]) if M else 0, jordan=False)[0])


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
    """The determinant (1 for the empty matrix): the last pivot of
    :func:`_eliminate` below the pivots, with the sign of its row swaps,
    over the product of the rows' denominators."""
    rows, scale = [], 1
    for row in M:
        nums, d = field.numerators(row)
        rows.append(nums)
        scale *= d
    pivots, sign, p = _eliminate(field, rows, len(M), jordan=False)
    if len(pivots) < len(M):
        return field.zero
    return field.coerce(field.fractions([sign * p], scale)[0] if M else 1)


def mat_solve(field, A, B):
    """A**-1 * B from one row reduction of [A | B]."""
    n = len(A)
    aug = [ra + rb for ra, rb in zip(A, B)]
    if len(_row_reduce(field, aug, ncols=n)) != n:
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in aug]


def mat_inv(field, M):
    return mat_solve(field, M, identity(field, len(M)))


def det_pencil(A, B):
    """det(A - t*B) of integer n x n matrices, ascending: its values at t =
    0 .. n by :func:`_eliminate`, interpolated in Newton form (Cohen, GTM
    138, section 2.2), where every divided difference is an integer."""
    n, c = len(A), []
    for t in range(n + 1):
        rows = [[a - t * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]
        pivots, sign, p = _eliminate(QQ, rows, n, jordan=False)
        c.append(sign * p if len(pivots) == n else 0)
    for k in range(1, n + 1):  # divided differences: nodes k apart
        c[k:] = [(b - a) // k for a, b in zip(c[k - 1:], c[k:])]
    poly = [c[n]]
    for k in range(n - 1, -1, -1):  # Horner: poly * (t - k) + c[k]
        poly = [a - k * b for a, b in zip([c[k]] + poly, poly + [0])]
    return poly


def char_poly(M):
    """det(t*I - M) of a rational matrix M = Z / d, ascending:
    :func:`det_pencil` of (Z, d*I) over (-d)**n."""
    n, (z, d) = len(M), _integral([c for row in M for c in row])
    return tuple(Fraction(c, (-d) ** n) for c in det_pencil(
        [z[i:i + n] for i in range(0, n * n, n)],
        [[d * (i == j) for j in range(n)] for i in range(n)]))


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


def split_rational_roots(coeffs):
    """The rational roots of a nonzero polynomial over Q, and its cofactor.

    ``coeffs`` are ascending ``Fraction`` or ``int`` coefficients.  Returns
    (roots, rest): {root: multiplicity} in the order found, and the
    polynomial f divided by every root as often as it divides, up to a
    constant: a primitive integer polynomial.  Each root is guessed from a
    float root of the squarefree part g, f and g primitive over Z: its
    denominator divides the leading coefficient of g, so the guess is the
    nearest fraction whose denominator is at most that coefficient.  A
    guess p/q counts only once q t - p divides f over Z (Gauss's lemma).
    Both :func:`rational_roots` and the line census
    (:func:`segrecusp.lines.through_point_lines`) factor this way.
    """
    f = _primitive(_integral(_ptrim(coeffs))[0])
    g = _zdivmod(f, _zgcd(f, pderiv(f)))[0] if len(f) > 1 else f
    try:
        guesses = np.roots([float(c) for c in reversed(g)])
    except OverflowError:
        guesses = []
    roots = {}
    for z in guesses:
        if not abs(z.imag) <= 1e-6 * max(1.0, abs(z.real)):
            continue
        try:
            r = Fraction(float(z.real)).limit_denominator(abs(g[-1]))
        except (OverflowError, ValueError):
            continue
        if r in roots:
            continue
        q, rem, _ = _zdivmod(f, (-r.numerator, r.denominator))
        while not rem:
            f, roots[r] = q, roots.get(r, 0) + 1
            q, rem, _ = _zdivmod(f, (-r.numerator, r.denominator))
    return roots, f


def factor_over_q(coeffs):
    """sympy's ``factor_list`` of a polynomial over Q given by ascending
    coefficients: (Poly in one variable, multiplicity) pairs.  sympy is
    imported here, on the first call, and no default path of the package
    calls this: only a leftover of :func:`rational_roots` (an irrational
    eigenvalue) and a quartic that numpy cannot take the roots of in
    :func:`segrecusp.lines._quartic_factors`."""
    import sympy
    return sympy.Poly.from_list(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
        sympy.Symbol("_t")).factor_list()[1]


def rational_roots(coeffs):
    """All rational roots with multiplicities, plus leftover factors.

    ``coeffs`` are ascending ``Fraction`` or ``int`` coefficients.  Returns
    (roots: list[(Fraction, int)] ascending, other_factors: list[str]).
    The roots come from :func:`split_rational_roots`; only a leftover of
    positive degree is factored (sympy's ``factor_list``, by
    :func:`factor_over_q`), and its linear factors are roots too.  A
    polynomial that splits over Q imports no sympy.
    """
    roots, f = split_rational_roots(coeffs)
    leftovers = []
    if len(f) > 1:
        for fac, mult in factor_over_q(f):
            if fac.degree() == 1:
                a1, a0 = fac.all_coeffs()
                root = -a0 / a1
                roots[Fraction(int(root.p), int(root.q))] = int(mult)
            elif fac.degree() > 0:
                leftovers.append(str(fac.as_expr()))
    return sorted(roots.items()), leftovers

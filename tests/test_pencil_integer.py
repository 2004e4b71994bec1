"""The pencil's Jordan data, the lines that miss Sing(S) and the rational
roots on integers, against the Fraction code they replaced.

The references below are that code, kept here as it was: the Jordan data
of M = R**-1 S over Q (char_poly(M) interpolated over Q, one row reduction
of M - alpha*I per eigenvalue), the rational roots by divisions over Q, and
the local solution of the off-Sing(S) lines from Fraction matrices.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
import sympy

from segrecusp import lines as lines_module
from segrecusp import pencil as pencil_module
from segrecusp.appendix import appendix_cases
from segrecusp.errors import (CrossCheckMismatch, DegeneratePencil,
                              IrrationalEigenvalue)
from segrecusp.fields import (QQ, QuadraticExtension, _integral, padd,
                              pderiv, pdivmod, pgcd, pmul, proj_normalize)
from segrecusp.linalg import (det_pencil, factor_over_q, mat_det, mat_mul,
                              mat_solve, mat_vec, nullspace, rref,
                              rref_kernel, split_rational_roots)
from segrecusp.lines import _binary_factors, off_singular_lines
from segrecusp.pencil import TABLE1_SYMBOLS, QuadricPencil, default_instance


# --------------------------------------------------------------------------
# the Fraction references


def _bform(M, X, Y):
    """The bilinear form X^T M Y, by the loop over the entries."""
    return sum((x * c * y for x, row in zip(X, M) for c, y in zip(row, Y)),
               F(0))


def _reference_char_poly(M):
    n = len(M)
    c = [mat_det(QQ, [[int(i == j) * t - x for j, x in enumerate(row)]
                      for i, row in enumerate(M)]) for t in range(n + 1)]
    for k in range(1, n + 1):
        c[k:] = [(b - a) / k for a, b in zip(c[k - 1:], c[k:])]
    poly = [c[n]]
    for k in range(n - 1, -1, -1):
        poly = [a - k * b for a, b in zip([c[k]] + poly, poly + [0])]
    return tuple(poly)


def _reference_split_rational_roots(coeffs):
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
            r = F(float(z.real)).limit_denominator(bound)
        except (OverflowError, ValueError):
            continue
        if r in roots:
            continue
        q, rem = pdivmod(f, (-r, F(1)))
        while not rem:
            f, roots[r] = q, roots.get(r, 0) + 1
            q, rem = pdivmod(f, (-r, F(1)))
    return roots, f


def _reference_rational_roots(coeffs):
    roots, f = _reference_split_rational_roots(coeffs)
    leftovers = []
    if len(f) > 1:
        for fac, mult in factor_over_q(f):
            if fac.degree() == 1:
                a1, a0 = fac.all_coeffs()
                root = sympy.Rational(-a0, a1)
                roots[F(int(root.p), int(root.q))] = int(mult)
            elif fac.degree() > 0:
                leftovers.append(str(fac.as_expr()))
    return sorted(roots.items()), leftovers


def _reference_invertible_member(pen):
    rows = [[c for row in M for c in row] for M in (pen.P, pen.Q)]
    if len(rref(QQ, rows)[1]) < 2:
        raise DegeneratePencil("P and Q span a single quadric")
    for a, b in pencil_module._MEMBER_TRIALS:
        if mat_det(QQ, pen.member(a, b)):
            return F(a), F(b)
    raise DegeneratePencil("det(lam*P + mu*Q) vanishes identically")


def _reference_jordan_data(pen):
    """(M, blocks, reference, members, symbol eigenvalues), members as
    (root, rank, multiplicity, kernel) sorted by root."""
    a, b = ref = _reference_invertible_member(pen)
    S = pen.member(1, 0) if (a, b) != (1, 0) else pen.member(0, 1)
    M = mat_solve(QQ, pen.member(a, b), S)
    roots, leftovers = _reference_rational_roots(_reference_char_poly(M))
    if leftovers:
        raise IrrationalEigenvalue(
            f"pencil eigenvalue outside Q: irreducible factor(s) {leftovers}",
            factor=leftovers)
    if sum(mult for _, mult in roots) != 5:
        raise CrossCheckMismatch(f"multiplicities {roots} do not sum to 5")

    def root_of(alpha):
        if (a, b) != (F(1), F(0)):
            return proj_normalize((F(1) - alpha * a, -alpha * b))
        return proj_normalize((-alpha, F(1)))

    blocks, members = [], []
    for alpha, mult in sorted(roots):
        A = [[c - alpha if i == j else c for j, c in enumerate(row)]
             for i, row in enumerate(M)]
        R, pivots = rref(QQ, A)
        kernel = rref_kernel(QQ, R, pivots)
        ranks, basis = [5, len(pivots)], R[:len(pivots)]
        while ranks[-1] not in (5 - mult, ranks[-2]):
            R, pivots = rref(QQ, mat_mul(basis, A))
            ranks.append(len(pivots))
            basis = R[:len(pivots)]
        at_least = [r - r1 for r, r1 in zip(ranks, ranks[1:])] + [0]
        sizes = tuple(k for k in range(1, len(at_least))
                      for _ in range(at_least[k - 1] - at_least[k]))
        if sum(sizes) != mult:
            raise CrossCheckMismatch(f"Jordan blocks at {alpha}: {sizes}")
        blocks.append((alpha, sizes))
        members.append((root_of(alpha), ranks[1], mult, kernel))
    return (M, blocks, ref, sorted(members, key=lambda m: m[0]),
            tuple(root_of(alpha) for alpha, _ in blocks))


def _reference_local_solution(R, M, blocks, alpha, e):
    N = [[M[r][c] - (alpha if r == c else 0) for c in range(5)]
         for r in range(5)]
    Ne = N
    for _ in range(e - 1):
        Ne = mat_mul(Ne, N)
    for v in nullspace(QQ, Ne):
        krylov = [v]
        for _ in range(e - 1):
            krylov.append(mat_vec(QQ, N, krylov[-1]))
        if any(krylov[-1]):
            break
    w = tuple(_bform(R, v, k) for k in reversed(krylov))
    for beta, (size,) in blocks:
        for _ in range(size if beta != alpha else 0):
            w = pmul(w, (alpha - beta, F(1)))[:e]
    X = (F(0),) + tuple(c / w[0] for c in w[1:])
    h = term = (F(1),)
    coef = F(1)
    for k in range(1, e):
        term = pmul(term, X)[:e]
        coef *= (F(1, 2) - k) / k
        h = padd(h, [coef * c for c in term])
    return 1 / w[0], [sum(c * vec[t] for c, vec in zip(h, krylov))
                      for t in range(5)]


# --------------------------------------------------------------------------
# the pencils


def _pencils():
    """The 16 default forms, four random.Random(1) congruent copies of
    each, each form in the basis (2P + Q/3, -P + 5Q), and the seven
    appendix pencils: 103 pencils."""
    rng, out = random.Random(1), []
    for symbol in map(str, TABLE1_SYMBOLS):
        form = default_instance(symbol)
        out.append((f"{symbol} form", form))
        for k in range(4):
            while True:
                A = [[F(rng.randint(-2, 2)) for _ in range(5)]
                     for _ in range(5)]
                if mat_det(QQ, A):
                    break
            out.append((f"{symbol} copy {k}", form.congruent(A)))
        out.append((f"{symbol} basis", form.basis_changed(2, F(1, 3), -1, 5)))
    out += [(f"appendix {i}", case.pencil())
            for i, case in enumerate(appendix_cases())]
    return out


PENCILS = _pencils()


def _eye(scale=1):
    return [[F(scale * (i == j)) for j in range(5)] for i in range(5)]


# degenerate and irrational pencils, with the exception both codes raise
ODD_PENCILS = [
    ("irrational", QuadricPencil(
        [[1, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 3, 0, 0], [0, 0, 0, 4, 0],
         [0, 0, 0, 0, 5]], _eye()), IrrationalEigenvalue),
    ("irrational, not monic", QuadricPencil(
        [[1, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 3, 0, 0], [0, 0, 0, 4, 1],
         [0, 0, 0, 1, 0]], [[F(int(i == j) * (1 + (i == 4))) for j in range(5)]
                            for i in range(5)]), IrrationalEigenvalue),
    ("single quadric", QuadricPencil(_eye(), _eye(2)), DegeneratePencil),
    ("vanishing", QuadricPencil(
        [[F(int(i == j < 3)) for j in range(5)] for i in range(5)],
        [[F(int(i == j < 2)) for j in range(5)] for i in range(5)]),
     DegeneratePencil),
]


def _all_fractions(values):
    return all(type(c) is F for c in values)


def test_jordan_data_matches_the_fraction_reference():
    assert len(PENCILS) == 103
    for label, pen in PENCILS:
        M, blocks, ref, members, eigenvalues = _reference_jordan_data(pen)
        assert pen.jordan_data() == (M, blocks), label
        assert pen.reference == ref, label
        got = [(m.root, m.rank, m.multiplicity, m.kernel)
               for m in pen.rank_drop_members()]
        assert got == members, label
        assert pen.segre_symbol().eigenvalues == eigenvalues, label
        assert _all_fractions(c for row in M for c in row), label
        assert _all_fractions(c for m in got for v in m[3] for c in v), label
        assert _all_fractions(c for m in got for c in m[0]), label


@pytest.mark.parametrize("label,pen,error", ODD_PENCILS,
                         ids=[p[0] for p in ODD_PENCILS])
def test_odd_pencils_raise_as_the_fraction_reference(label, pen, error):
    with pytest.raises(error) as want:
        _reference_jordan_data(pen)
    fresh = QuadricPencil(pen.P, pen.Q)
    with pytest.raises(error) as got:
        fresh.jordan_data()
    assert str(got.value) == str(want.value)


def test_off_singular_lines_match_the_fraction_reference(monkeypatch):
    real = lines_module._local_solution
    regular = 0
    for label, pen in PENCILS:
        got = off_singular_lines(pen)

        def reference(R, M, blocks, alpha, e, pen=pen):
            Rz, D = R
            assert [[F(c, D) for c in row] for row in Rz] == \
                pen.member(*pen.reference)
            return _reference_local_solution(pen.member(*pen.reference), M,
                                             blocks, alpha, e)

        monkeypatch.setattr(lines_module, "_local_solution", reference)
        want = off_singular_lines(pen)
        monkeypatch.setattr(lines_module, "_local_solution", real)
        exact = [[(p.field, p.coords) for p in span] for span in got[0]]
        assert exact == [[(p.field, p.coords) for p in span]
                         for span in want[0]], label
        assert [(l.point_a, l.point_b, l.residual_bound) for l in got[1]] == \
            [(l.point_a, l.point_b, l.residual_bound) for l in want[1]], label
        regular += bool(got[0] or got[1])
    assert regular >= 40


def _random_polynomial(rng):
    """A product of linear factors q t - p with multiplicities, an
    irreducible quadratic now and then, and a constant."""
    f = (F(rng.choice((-3, -1, 1, 2, 7)), rng.choice((1, 1, 2, 5))),)
    for _ in range(rng.randint(0, 4)):
        p, q = rng.randint(-9, 9), rng.randint(1, 6)
        f = pmul(f, (F(-p), F(q)))
        if rng.random() < 0.3:
            f = pmul(f, (F(-p), F(q)))
    if rng.random() < 0.4:
        f = pmul(f, (F(rng.randint(1, 5)), F(0), F(rng.randint(1, 3))))
    return f


def test_split_rational_roots_matches_the_fraction_reference(
        rng=random.Random(22)):
    polys = [_random_polynomial(rng) for _ in range(150)]
    polys += [_reference_char_poly(pen.jordan_data()[0])
              for _, pen in PENCILS[::7]]
    for f in polys:
        want_roots, want_rest = _reference_split_rational_roots(f)
        ints = [c.numerator for c in _integral(f)[0]]
        for coeffs in (f, ints):
            roots, rest = split_rational_roots(coeffs)
            assert roots == want_roots, f
            assert all(type(c) is int for c in rest)
            assert math.gcd(*rest) == 1
            # the cofactor up to a nonzero constant
            assert len(rest) == len(want_rest), f
            assert all(a * want_rest[-1] == b * rest[-1]
                       for a, b in zip(rest, want_rest)), f


def test_det_pencil_matches_sympy(rng=random.Random(23)):
    t = sympy.Symbol("t")
    for n in (1, 2, 3, 5):
        for _ in range(6):
            A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            det = (sympy.Matrix(A) - t * sympy.Matrix(B)).det()
            want = [int(det.expand().coeff(t, k)) for k in range(n + 1)]
            assert det_pencil(A, B) == want


def _ascending_in_a(poly, degree):
    coeffs = poly.as_dict()
    return tuple(int(coeffs.get((i, degree - i), 0)) for i in range(degree + 1))


def test_squared_quartics_split_without_sympy(monkeypatch):
    a, b = sympy.symbols("a b")
    squares = [(4 * a ** 2 + 3 * b ** 2) ** 2,
               -(2 * a ** 2 + a * b + 5 * b ** 2) ** 2,
               6 * (a ** 2 - 2 * b ** 2) ** 2,
               (a - 2 * b) * b * (3 * a ** 2 + 7 * b ** 2) ** 2,
               (5 * a + 3 * b) ** 2 * (a ** 2 + a * b + b ** 2) ** 2]
    squarefree = [(a ** 2 - 2 * b ** 2) * (a ** 2 + 3 * b ** 2),
                  a ** 4 - 2 * b ** 4,
                  (a + b) * (a ** 2 + b ** 2) * (a ** 2 + 2 * b ** 2)]
    factored = []
    real = lines_module.factor_over_q

    def recorded(coeffs):
        factored.append(coeffs)
        return real(coeffs)

    monkeypatch.setattr(lines_module, "factor_over_q", recorded)
    for expr in squares + squarefree:
        before = len(factored)
        poly = sympy.Poly(sympy.expand(expr), a, b)
        want = [_ascending_in_a(f, f.total_degree())
                for f, _m in sympy.factor_list(poly)[1]]
        got = _binary_factors(list(_ascending_in_a(poly, poly.total_degree())))
        assert sorted(got) == sorted(want), expr
        # sympy factors no quartic, squarefree or not
        assert len(factored) == before, expr


def test_rref_entries_are_field_elements_over_a_pivot_of_one():
    # a pivot of 1 divides nothing: over Q and Q(sqrt 2) the entries still
    # come back as Fractions, and Fraction parts
    R, pivots = rref(QQ, [[1, 2, 3], [0, 1, 5]])
    assert pivots == [0, 1] and R == [[1, 0, -7], [0, 1, 5]]
    assert _all_fractions(c for row in R for c in row)
    K = QuadraticExtension(2)
    R, _ = rref(K, [[K.one, K.coerce(2)], [K.zero, K.one]])
    assert all(type(c.a) is F and type(c.b) is F for row in R for c in row)

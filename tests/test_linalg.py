"""The exact linear algebra over Q against sympy's matrices.

Over Q the kernels run on integers (fraction-free row reduction, Bareiss
determinants, integer dot products); sympy's ``Matrix`` over QQ is the
independent reference.  Every entry a kernel returns must be a Fraction,
whatever mix of ints and Fractions it was given.
"""

import random
from fractions import Fraction as F

import pytest
import sympy

from segrecusp.fields import QQ, QuadExtElem, QuadraticExtension
from segrecusp.linalg import (gram_matrix, mat_det, mat_inv, mat_mul,
                              mat_rank, mat_solve, mat_vec, nullspace, rref,
                              solve_linear)


def _entry(rng):
    """Zero, an int or a Fraction: ints ride along with Fractions."""
    k = rng.random()
    if k < 0.2:
        return 0
    if k < 0.4:
        return rng.randint(-5, 5)
    return F(rng.randint(-9, 9), rng.randint(1, 8))


def _matrix(rng, n, m, rank):
    """An n x m matrix of rank at most ``rank``, as a product of random
    factors, with some rows zeroed and some entries made ints."""
    if rank == 0:
        M = [[F(0)] * m for _ in range(n)]
    else:
        A = [[_entry(rng) for _ in range(rank)] for _ in range(n)]
        B = [[_entry(rng) for _ in range(m)] for _ in range(rank)]
        M = mat_mul(A, B)
    for i in range(n):
        if rng.random() < 0.15:
            M[i] = [0] * m
        M[i] = [int(c) if c.denominator == 1 and rng.random() < 0.5 else c
                for c in M[i]]
    return M


def _sym(M):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                          for c in row] for row in M])


def _fractions(M):
    return [[F(int(c.p), int(c.q)) for c in row] for row in M.tolist()]


def _all_fractions(rows):
    return all(type(c) is F for row in rows for c in row)


def test_rref_rank_nullspace_det_match_sympy(rng=random.Random(31)):
    seen = set()
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        M = _matrix(rng, n, m, rng.randint(0, min(n, m, 5)))
        S = _sym(M)
        R, pivots = rref(QQ, M)
        SR, spivots = S.rref()
        assert R == _fractions(SR) and pivots == list(spivots), M
        assert _all_fractions(R)
        assert all(c == 0 for row in R[len(pivots):] for c in row)
        assert mat_rank(QQ, M) == S.rank()
        seen.add(S.rank())
        kernel = nullspace(QQ, M)
        assert kernel == [[F(int(c.p), int(c.q)) for c in v]
                          for v in S.nullspace()]
        assert _all_fractions(kernel)
        A = _matrix(rng, n, n, rng.randint(0, n))
        det = mat_det(QQ, A)
        assert type(det) is F and det == F(str(_sym(A).det()))
    assert seen == {0, 1, 2, 3, 4, 5}


def test_augmented_solve_and_inverse_match_sympy(rng=random.Random(32)):
    for _ in range(60):
        A = _matrix(rng, 5, 5, 5)
        B = [[_entry(rng) for _ in range(5)] for _ in range(5)]
        S = _sym(A)
        if S.rank() < 5:
            with pytest.raises(ZeroDivisionError):
                mat_solve(QQ, A, B)
            continue
        X = mat_solve(QQ, A, B)        # one reduction of the 5 x 10 [A | B]
        assert X == _fractions(S.inv() * _sym(B)) and _all_fractions(X)
        inv = mat_inv(QQ, A)
        assert inv == _fractions(S.inv()) and _all_fractions(inv)


def test_solve_linear_matches_sympy(rng=random.Random(33)):
    outcomes = set()
    for _ in range(200):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        M = _matrix(rng, n, m, rng.randint(0, min(n, m)))
        if rng.random() < 0.5:     # consistent: b in the column space
            b = mat_vec(QQ, M, [_entry(rng) for _ in range(m)])
        else:
            b = [_entry(rng) for _ in range(n)]
        S = _sym(M)
        aug = S.row_join(_sym([[c] for c in b]))
        x = solve_linear(QQ, M, b)
        if aug.rank() > S.rank():
            assert x is None
            outcomes.add("inconsistent")
            continue
        # the pivot columns of [M | b]'s reduced form, free variables at 0
        R, pivots = aug.rref()
        expect = [F(0)] * m
        for r, pc in enumerate(pivots):
            expect[pc] = F(str(R[r, m]))
        assert x == expect and all(type(c) is F for c in x)
        assert mat_vec(QQ, M, x) == b
        outcomes.add("consistent")
    assert outcomes == {"consistent", "inconsistent"}


def test_products_match_sympy(rng=random.Random(34)):
    for _ in range(100):
        n, k, m = (rng.randint(1, 5) for _ in range(3))
        A = _matrix(rng, n, k, min(n, k))
        B = _matrix(rng, k, m, min(k, m))
        AB = mat_mul(A, B)
        assert AB == _fractions(_sym(A) * _sym(B)) and _all_fractions(AB)
        v = [_entry(rng) for _ in range(k)]
        Av = mat_vec(QQ, A, v)
        Sv = _sym(A) * _sym([[c] for c in v])
        assert Av == [row[0] for row in _fractions(Sv)]
        assert all(type(c) is F for c in Av)
        N = _matrix(rng, k, k, k)
        vs = [[_entry(rng) for _ in range(k)] for _ in range(n)]
        G = gram_matrix(QQ, N, vs)
        V = _sym(vs)
        assert G == _fractions(V * _sym(N) * V.T) and _all_fractions(G)


def test_quadratic_extension_keeps_the_generic_loop():
    K = QuadraticExtension(2)
    one, two, root = K.coerce(1), K.coerce(2), QuadExtElem(F(0), F(1), 2)
    M = [[one, root], [root, two]]          # row 2 is sqrt(2) times row 1
    R, pivots = rref(K, M)
    assert pivots == [0] and R == [[one, root], [K.zero, K.zero]]
    assert all(isinstance(c, QuadExtElem) for row in R for c in row)
    assert mat_rank(K, M) == 1 and mat_det(K, M) == K.zero
    assert mat_det(K, [[root, K.zero], [K.zero, root]]) == two

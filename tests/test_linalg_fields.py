"""The exact linear algebra over Q(sqrt(2)), Q(sqrt(-7)) and Q(x) against
sympy's ``DomainMatrix`` over the same fields.

One fraction-free elimination serves all three fields, each over its own
ring of numerators; these tests run it on random matrices of every rank,
including augmented systems reduced on fewer columns than they have.
"""

import random
from fractions import Fraction as F

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from segrecusp import linalg
from segrecusp.fields import (QuadExtElem, QuadraticExtension, RatFuncElem,
                              RationalFunctions)
from segrecusp.linalg import (gram_matrix, mat_det, mat_inv, mat_mul,
                              mat_rank, mat_solve, mat_vec, nullspace, rref,
                              solve_linear)

X = sympy.Symbol("x")
FIELDS = [QuadraticExtension(2), QuadraticExtension(-7), RationalFunctions()]


def _rational(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def _element(K, rng, polynomial=False):
    """Zero, a rational, or an element that needs the field: over Q(x) a
    polynomial, or with ``polynomial`` false a rational function half the
    time."""
    k = rng.random()
    if k < 0.2:
        return K.zero
    if k < 0.35:
        return K.coerce(_rational(rng))
    if isinstance(K, QuadraticExtension):
        return QuadExtElem(_rational(rng), _rational(rng), K.d)
    num = [_rational(rng) for _ in range(rng.randint(1, 3))]
    den = [F(1)] if polynomial or k < 0.7 else [_rational(rng) or F(1), F(1)]
    return RatFuncElem.make(num, den)


def _matrix(K, rng, n, m, rank):
    """An n x m matrix of rank at most ``rank``, some rows zeroed; over
    Q(x) half the matrices are polynomial."""
    if rank == 0:
        return [[K.zero] * m for _ in range(n)]
    poly = rng.random() < 0.5
    A = [[_element(K, rng, poly) for _ in range(rank)] for _ in range(n)]
    B = [[_element(K, rng, poly) for _ in range(m)] for _ in range(rank)]
    M = mat_mul(A, B)
    return [[K.zero] * m if rng.random() < 0.15 else row for row in M]


def _domain(K):
    if isinstance(K, QuadraticExtension):
        return sympy.QQ.algebraic_field(sympy.sqrt(K.d))
    return sympy.QQ.frac_field(X)


def _element_of(D, K, e):
    """The sympy element of D for our element e of K."""
    e = K.coerce(e)
    if isinstance(K, QuadraticExtension):    # b sqrt(d) + a
        return D.new([sympy.QQ(c.numerator, c.denominator)
                      for c in (e.b, e.a)])
    num, den = (sum(sympy.Rational(c.numerator, c.denominator) * X ** i
                    for i, c in enumerate(p)) for p in (e.num, e.den))
    return D.from_sympy(num / den)


def _dm(K, M):
    """M as a sympy DomainMatrix over the same field."""
    D = _domain(K)
    rows = [[_element_of(D, K, e) for e in row] for row in M]
    return DomainMatrix(rows, (len(M), len(M[0])), D)


def _same(K, ours, theirs):
    """Entrywise equality of our matrix with a DomainMatrix."""
    return _dm(K, ours) == theirs


def _cases(K, rng, count):
    """Matrices of at most 4 rows and 5 columns, of rank at most 0, 1, 2
    and 3 in turn."""
    for i in range(count):
        rank = i % 4
        n, m = rng.randint(max(rank, 1), 4), rng.randint(max(rank, 1), 5)
        yield _matrix(K, rng, n, m, rank)


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_rref_rank_nullspace_det_match_sympy(K, rng=random.Random(35)):
    for M in _cases(K, rng, 32):
        S = _dm(K, M)
        R, pivots = rref(K, M)
        SR, spivots = S.rref()
        assert pivots == list(spivots) and _same(K, R, SR), M
        assert mat_rank(K, M) == S.rank() == len(pivots)
        kernel = nullspace(K, M)
        free = [c for c in range(len(M[0])) if c not in pivots]
        assert len(kernel) == len(free)
        for v, f in zip(kernel, free):
            assert [v[g] for g in free] == [K.one if g == f else K.zero
                                             for g in free]
            assert S.matmul(_dm(K, [[c] for c in v])).is_zero_matrix
        n = len(M)
        A = _matrix(K, rng, n, n, rng.randint(0, n))
        assert _dm(K, [[mat_det(K, A)]]) == DomainMatrix(
            [[_dm(K, A).det()]], (1, 1), _domain(K))


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_empty_determinant_is_one(K):
    det = mat_det(K, [])
    assert det == K.one and type(det) is type(K.one)


def test_rational_entries_are_taken_into_q_of_x():
    # rationals ride along in a Q(x) matrix, and are never divided as
    # numbers: no float comes out
    K = RationalFunctions()
    R, pivots = rref(K, [[2, 4, F(1, 3)], [1, 3, 5]])
    assert pivots == [0, 1] and R[0][2] == F(-19, 2) and R[1][2] == F(29, 6)
    assert all(type(c) is RatFuncElem for row in R for c in row)
    assert rref(K, [[2, 4]])[0] == [[1, 2]] and type(
        rref(K, [[2, 4]])[0][0][1]) is RatFuncElem
    A = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    assert mat_det(K, A) == 18 and mat_inv(K, A)[0][0] == F(11, 18)
    assert all(type(c) is RatFuncElem for row in mat_inv(K, A) for c in row)
    # a pivot of 1 divides nothing: the entries are still taken into Q(x)
    R, pivots = rref(K, [[1, 2]])
    assert R == [[1, 2]] and all(type(c) is RatFuncElem for c in R[0])
    assert mat_det(K, [[3]]) == 3 and type(mat_det(K, [[3]])) is RatFuncElem


def test_polynomial_steps_of_a_rational_function_matrix_divide_in_q_of_x():
    # the entries of a matrix of rational functions can meet as two
    # polynomials where the one does not divide the other: here the second
    # step divides -1 by x, which the first step's pivot x left behind
    K = RationalFunctions()
    x, one, zero = K.gen, K.one, K.zero
    M = [[x, zero, zero], [zero, one, one / x], [zero, one / x, zero]]
    assert mat_det(K, M) == -one / x and mat_rank(K, M) == 3
    assert mat_mul(M, mat_inv(K, M)) == [
        [one if i == j else zero for j in range(3)] for i in range(3)]
    assert _same(K, mat_inv(K, M), _dm(K, M).inv())


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_inverse_and_augmented_solve_match_sympy(K, rng=random.Random(36)):
    outcomes = set()
    for _ in range(20):
        n = rng.randint(1, 4)
        A = _matrix(K, rng, n, n, rng.randint(n - 1, n))
        B = [[_element(K, rng) for _ in range(2)] for _ in range(n)]
        S = _dm(K, A)
        if S.rank() < n:
            outcomes.add("singular")
            with pytest.raises(ZeroDivisionError):
                mat_inv(K, A)
            continue
        outcomes.add("regular")
        assert _same(K, mat_inv(K, A), S.inv())
        # one reduction of the n x (n + 2) [A | B] on its first n columns
        assert _same(K, mat_solve(K, A, B), S.inv().matmul(_dm(K, B)))
    assert outcomes == {"singular", "regular"}


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_solve_linear_and_partial_reduction_match_sympy(
        K, rng=random.Random(37)):
    outcomes = set()
    for M in _cases(K, rng, 24):
        n, m = len(M), len(M[0])
        if rng.random() < 0.5:      # consistent: b in the column space
            b = [row[0] for row in mat_mul(M, [[_element(K, rng)]
                                               for _ in range(m)])]
        else:
            b = [_element(K, rng) for _ in range(n)]
        aug = [row + [c] for row, c in zip(M, b)]
        S, Saug = _dm(K, M), _dm(K, aug)
        x = solve_linear(K, M, b)
        if Saug.rank() > S.rank():
            assert x is None
            outcomes.add("inconsistent")
        else:
            outcomes.add("consistent")
            R, pivots = Saug.rref()   # free variables at 0
            D = _domain(K)
            expect = [D.zero] * m
            for r, pc in enumerate(pivots):
                expect[pc] = R.to_list()[r][m]
            assert _same(K, [x], DomainMatrix([expect], (1, m), D))
            assert S.matmul(_dm(K, [[c] for c in x])) == _dm(
                K, [[c] for c in b])
        # reduced on its first m columns only: the left block is M's
        # reduced form, and the rows span the same space
        work = [row[:] for row in aug]
        pivots = linalg._row_reduce(K, work, ncols=m)
        SR, spivots = S.rref()
        assert pivots == list(spivots)
        assert _same(K, [row[:m] for row in work], SR)
        assert _dm(K, work).rank() == Saug.rank()
        assert _dm(K, aug + work).rank() == Saug.rank()
    assert outcomes == {"consistent", "inconsistent"}


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_gram_matrix_matches_sympy(K, rng=random.Random(38)):
    for _ in range(12):
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        M = _matrix(K, rng, n, n, n)
        vectors = [[_element(K, rng) for _ in range(n)] for _ in range(k)]
        V = _dm(K, vectors)
        assert _same(K, gram_matrix(K, M, vectors),
                     V.matmul(_dm(K, M)).matmul(V.transpose()))


@pytest.mark.parametrize("K", FIELDS, ids=repr)
def test_mat_vec_matches_generic_loop(K, rng=random.Random(39)):
    # the product on the field's numerators against the loop over the
    # entries, on matrices of every rank with zero rows and zero entries
    for M in _cases(K, rng, 24):
        v = [_element(K, rng) for _ in range(len(M[0]))]
        got = mat_vec(K, M, v)
        assert got == [sum((a * x for a, x in zip(row, v)), K.zero)
                       for row in M]
        assert all(type(c) is type(K.zero) for c in got)

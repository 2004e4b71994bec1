import functools
import itertools
import random
from fractions import Fraction as F

import pytest

from segrecusp import pencil as pencil_module
from segrecusp.errors import (CrossCheckMismatch, DegeneratePencil,
                              DuplicateEigenvalue, IrrationalEigenvalue)
from segrecusp.fields import QQ, QuadraticExtension, RationalFunctions
from segrecusp.linalg import (char_poly, gram_matrix, mat_det, mat_rank,
                              nullspace)
from segrecusp.pencil import (TABLE1_SYMBOLS, QuadricPencil, SegreSymbol,
                              default_instance, normal_form, validate_segre)


def diag_pencil(values):
    P = [[F(v) if i == j else F(0) for j in range(5)]
         for i, v in enumerate(values)]
    Q = [[F(int(i == j)) for j in range(5)] for i in range(5)]
    return QuadricPencil(P, Q)


def test_symbol_parsing_and_equality():
    s = SegreSymbol.parse("[(12)(11)]")
    assert s.units == ((1, 2), (1, 1))
    assert s == SegreSymbol.parse("[(11)(21)]")
    assert str(SegreSymbol.parse("[221]")) == "[221]"
    with pytest.raises(ValueError):
        SegreSymbol.parse("[123]")  # sums to 6
    with pytest.raises(ValueError):
        SegreSymbol.parse("(11)3")


def test_segre_symbol_distinct_diagonal():
    assert str(diag_pencil([1, 2, 3, 4, 5]).segre_symbol()) == "[11111]"


def test_segre_symbol_hyperbolic_221_instance():
    a, b, c = 1, 2, 3
    P = [[0, a, 0, 0, 0], [a, 1, 0, 0, 0], [0, 0, 0, b, 0],
         [0, 0, b, 1, 0], [0, 0, 0, 0, c]]
    Q = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 1, 0],
         [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]
    pen = QuadricPencil(P, Q)
    assert str(pen.segre_symbol()) == "[221]"


def test_irrational_eigenvalue_detected():
    P = [[1, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 3, 0, 0],
         [0, 0, 0, 4, 0], [0, 0, 0, 0, 5]]
    Q = [[F(int(i == j)) for j in range(5)] for i in range(5)]
    with pytest.raises(IrrationalEigenvalue) as info:
        QuadricPencil(P, Q).segre_symbol()
    assert info.value.factor  # the irreducible factor is reported


def test_single_quadric_rejected():
    P = [[F(int(i == j)) for j in range(5)] for i in range(5)]
    with pytest.raises(DegeneratePencil):
        QuadricPencil(P, P).segre_symbol()


@pytest.mark.parametrize("symbol", [str(s) for s in TABLE1_SYMBOLS])
def test_normal_form_round_trip(symbol):
    pen = default_instance(symbol)
    assert pen.segre_symbol() == SegreSymbol.parse(symbol)


def test_normal_form_221_explicit_entries():
    pen = normal_form("[221]", [1, 2, 3])
    # 2*1*X0X1 + X1^2 + 2*2*X2X3 + X3^2 + 3*X4^2
    assert pen.P[0][1] == 1 and pen.P[1][1] == 1
    assert pen.P[2][3] == 2 and pen.P[3][3] == 1 and pen.P[4][4] == 3
    assert pen.Q[0][1] == 1 and pen.Q[2][3] == 1 and pen.Q[4][4] == 1


def test_normal_form_12_block_convention():
    pen = normal_form("[(12)2]", [F(4), F(9)])
    # unit (12) at 4: diag block [4] then [[0,4],[4,1]]
    assert pen.P[0][0] == 4
    assert pen.P[1][2] == 4 and pen.P[2][2] == 1
    assert pen.Q[0][0] == 1 and pen.Q[1][2] == 1 and pen.Q[2][2] == 0


def test_duplicate_eigenvalues_rejected():
    with pytest.raises(DuplicateEigenvalue):
        normal_form("[221]", [1, 1, 3])


def test_rank_drop_members_diagonal():
    pen = diag_pencil([1, 2, 3, 4, 5])
    members = pen.rank_drop_members()
    assert len(members) == 5
    assert all(m.rank == 4 and m.multiplicity == 1 for m in members)


@pytest.mark.parametrize("symbol,count", [
    ("[11111]", 0), ("[1(13)]", 1), ("[(12)(11)]", 2), ("[12(11)]", 1),
    ("[1(11)(11)]", 2), ("[23]", 0),
])
def test_double_conic_pencil_count(symbol, count):
    assert default_instance(symbol).double_conic_pencil_count() == count


def test_rank3_members_match_unit_count():
    for symbol in TABLE1_SYMBOLS:
        pen = default_instance(symbol)
        n3 = sum(1 for m in pen.rank_drop_members() if m.is_rank3)
        assert n3 == len(pen.segre_symbol().double_conic_units())


def _random_invertible(rng):
    from segrecusp.linalg import mat_det
    while True:
        A = [[F(rng.randint(-3, 3)) for _ in range(5)] for _ in range(5)]
        if mat_det(QQ, A):
            return A


def test_congruence_invariance(rng):
    pen = default_instance("[122]")
    sym = pen.segre_symbol()
    for _ in range(10):
        assert pen.congruent(_random_invertible(rng)).segre_symbol() == sym


def test_basis_change_preserves_block_structure(rng):
    pen = default_instance("[(12)2]")
    blocks = sorted(pen.segre_symbol().canonical_units())
    for coeffs in ((1, 1, 0, 1), (2, 3, 1, 2), (0, 1, -1, 0), (1, -2, 3, 1)):
        a, b, c, d = coeffs
        if a * d - b * c == 0:
            continue
        changed = pen.basis_changed(a, b, c, d).segre_symbol()
        assert sorted(changed.canonical_units()) == blocks


def test_validate_segre():
    rep = validate_segre(diag_pencil([1, 2, 3, 4, 5]))
    assert rep.ok
    P = [[F(int(i == j)) for j in range(5)] for i in range(5)]
    rep = validate_segre(QuadricPencil(P, P))
    assert not rep.ok and "nondegenerate_pencil" in rep.failures


SYMBOLS = [str(s) for s in TABLE1_SYMBOLS]


@functools.lru_cache(maxsize=None)
def _census_congruences():
    """The random.Random(1) draw of the census benchmark: one invertible
    matrix with entries in [-2, 2] per Table-1 symbol, in Table-1 order."""
    rng = random.Random(1)
    out = {}
    for symbol in SYMBOLS:
        while True:
            A = [[F(rng.randint(-2, 2)) for _ in range(5)] for _ in range(5)]
            if mat_det(QQ, A):
                break
        out[symbol] = A
    return out


def _form_and_copy(symbol):
    form = default_instance(symbol)
    return form, form.congruent(_census_congruences()[symbol])


def _det_over_qt(M):
    """Monic det(t*I - M), computed as a determinant over Q(t)."""
    Kt = RationalFunctions("t")
    TM = [[Kt.gen * int(i == j) - Kt.coerce(c) for j, c in enumerate(row)]
          for i, row in enumerate(M)]
    num = mat_det(Kt, TM).num
    return tuple(c / num[-1] for c in num)


@pytest.mark.parametrize("symbol", SYMBOLS)
def test_char_poly_matches_rational_function_determinant(symbol):
    form, copy = _form_and_copy(symbol)
    for pen in (form, copy):
        M = pen.jordan_data()[0]
        assert char_poly(M) == _det_over_qt(M)


def test_char_poly_small_cases():
    assert char_poly([[F(3)]]) == (F(-3), F(1))
    # companion-like: t^2 - t - 1
    assert char_poly([[F(0), F(1)], [F(1), F(1)]]) == (F(-1), F(-1), F(1))


@pytest.mark.parametrize("symbol", SYMBOLS)
def test_rank_drop_members_match_direct_reduction(symbol):
    form, copy = _form_and_copy(symbol)
    for pen in (form, copy, form.basis_changed(2, 3, -1, 5)):
        members = pen.rank_drop_members()
        assert [m.root for m in members] == sorted(m.root for m in members)
        for m in members:
            S = pen.member(*m.root)
            assert m.rank == mat_rank(QQ, S)
            assert m.kernel == nullspace(QQ, S)


@pytest.mark.parametrize("symbol", SYMBOLS)
def test_symbol_round_trip_congruence_and_basis_change(symbol):
    form, copy = _form_and_copy(symbol)
    want = SegreSymbol.parse(symbol)
    for pen in (copy, form.basis_changed(2, 3, -1, 5),
                form.basis_changed(0, 1, 1, 0)):
        assert pen.segre_symbol() == want


def test_irrational_eigenvalue_factor_is_reported_exactly():
    P = [[1, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 3, 0, 0],
         [0, 0, 0, 4, 0], [0, 0, 0, 0, 5]]
    Q = [[F(int(i == j)) for j in range(5)] for i in range(5)]
    with pytest.raises(IrrationalEigenvalue) as info:
        QuadricPencil(P, Q).segre_symbol()
    assert info.value.factor == ["_t**2 - _t - 1"]


@pytest.mark.parametrize("symbol,moves", [
    ("[5]", [(0, 1), (0, -1)]),
    ("[(11)3]", [(0, 1), (0, -1), (-1, 1)]),
    ("[11111]", [(0, 1), (-1, -1)]),
    ("[(12)2]", [(0, 1), (-1, 1), (-1, -1)]),
])
def test_jordan_blocks_cross_checked_against_multiplicity(symbol, moves,
                                                          monkeypatch):
    # characteristic polynomials that misstate multiplicities: the first
    # root's by `shift`, and the root `other` by -shift (other == 0: only
    # the first; the multiplicities then no longer add up to 5)
    form = default_instance(symbol)
    roots = pencil_module.rational_roots
    for other, shift in moves:
        def wrong(coeffs, other=other, shift=shift):
            found, leftovers = roots(coeffs)
            found = [list(r) for r in sorted(found)]
            found[0][1] += shift
            if other:
                found[other][1] -= shift
            return [tuple(r) for r in found], leftovers

        monkeypatch.setattr(pencil_module, "rational_roots", wrong)
        with pytest.raises(CrossCheckMismatch):
            QuadricPencil(form.P, form.Q).jordan_data()


def _form_loop(M, X, Y):
    """The reference bilinear form: the generic loop over the entries."""
    acc = X[0] * 0
    for i, row in enumerate(M):
        for j, c in enumerate(row):
            if c:
                acc = acc + X[i] * Y[j] * c
    return acc


def _mixed_entry(rng):
    v = F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
    return int(v) if v.denominator == 1 and rng.random() < 0.5 else v


def test_rational_forms_match_generic_loop(rng=random.Random(21)):
    # the Gram entries over Q on integer numerators against the loop, on
    # 200 matrices with int and Fraction entries and zero rows, and
    # vectors with zero entries
    for _ in range(200):
        M = [[_mixed_entry(rng) if rng.random() < 0.7 else 0
              for _ in range(5)] for _ in range(5)]
        for i in rng.sample(range(5), rng.randint(0, 2)):
            M[i] = [F(0)] * 5
        X, Y = ([_mixed_entry(rng) if rng.random() < 0.8 else 0
                 for _ in range(5)] for _ in range(2))
        G = gram_matrix(QQ, M, [X, Y])
        for (a, U), (b, V) in itertools.product(enumerate((X, Y)), repeat=2):
            assert G[a][b] == _form_loop(M, U, V) and type(G[a][b]) is F
    zero = [[0] * 5 for _ in range(5)]
    assert gram_matrix(QQ, zero, [[F(1, 2)] * 5]) == [[0]]


def test_quadratic_extension_forms_match_generic_loop():
    # vectors over Q(sqrt 2), on the numerators of Z[sqrt 2]
    K = QuadraticExtension(2)
    r = K.sqrt_gen
    M = default_instance(SegreSymbol.parse("[11111]")).P
    X = [1 + r, F(1, 2), 0, -r, 3]
    Y = [F(2), r, F(-1, 3), 0, 1 - r]
    G = gram_matrix(K, M, [X, Y])
    assert G[0][1] == _form_loop(M, X, Y) and G[0][1].b
    assert G[1][0] == _form_loop(M, Y, X)
    assert G[0][0] == _form_loop(M, X, X) and G[1][1] == _form_loop(M, Y, Y)

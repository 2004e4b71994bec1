import random
from fractions import Fraction

import pytest

from segrecusp.fields import QQ
from segrecusp.instances import table1_instance
from segrecusp.linalg import mat_det
from segrecusp.lines import enumerate_lines
from segrecusp.pencil import TABLE1_SYMBOLS


def congruences(seed=1, per_symbol=1):
    """{symbol: matrices}: for each Table-1 symbol in Table-1 order, the
    next ``per_symbol`` invertible 5 x 5 matrices with entries in [-2, 2]
    drawn from one random.Random(seed)."""
    rng, out = random.Random(seed), {}
    for symbol in map(str, TABLE1_SYMBOLS):
        out[symbol] = []
        while len(out[symbol]) < per_symbol:
            A = [[Fraction(rng.randint(-2, 2)) for _ in range(5)]
                 for _ in range(5)]
            if mat_det(QQ, A):
                out[symbol].append(A)
    return out


@pytest.fixture(scope="session")
def census_congruences():
    """{symbol: A}: the census benchmark's congruent copy of each default
    form is its pencil moved by A, the random.Random(1) draw of
    :func:`congruences`."""
    return {symbol: A for symbol, (A,) in congruences().items()}


@pytest.fixture(scope="session")
def diag_11111():
    return table1_instance("[11111]")


@pytest.fixture(scope="session")
def smooth_model():
    from segrecusp.blowup import smooth_segre_instance
    return smooth_segre_instance(seed=0)


@pytest.fixture(scope="session")
def line_fixture():
    from segrecusp.blowup import surface_through_line
    return surface_through_line(seed=1)


@pytest.fixture(scope="session")
def census_cache():
    cache = {}

    def get(name, seed=11):
        if name not in cache:
            inst = table1_instance(name, seed=seed)
            cache[name] = (inst, enumerate_lines(inst))
        return cache[name]

    return get


@pytest.fixture()
def rng():
    return random.Random(20240817)

import random

import pytest

from segrecusp.instances import table1_instance
from segrecusp.lines import enumerate_lines


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

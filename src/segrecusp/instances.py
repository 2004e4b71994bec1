"""Ready-made surface instances per Segre symbol.

Table-1 work always runs on the default eigenvalues.  Pointwise work
(sampling generic rational points) sometimes needs different eigenvalues: a
definite degenerate member leaves a default instance without smooth rational
points at all, so a small deterministic eigenvalue search finds an instance
of the same symbol carrying a usable rational cone.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import RetryExhausted, SegreCuspError
from .pencil import SegreSymbol, default_instance, normal_form
from .surface import SurfaceInstance, sample_rational_points

# tried in order; truncated to the number of units of the symbol
EIGENVALUE_CANDIDATES = [
    (1, 2, 5, 7, 11),
    (9, 2, 5, 7, 11),
    (1, 3, 4, 2, 9),
    (2, 1, 5, 7, 11),
    (1, 2, 3, 4, 5),
    (3, 2, 1, 7, 11),
    (5, 3, 2, 1, 8),
    (2, 3, 1, 5, 7),
    (1, 5, 2, 3, 11),
    (4, 1, 2, 7, 3),
    (6, 2, 5, 7, 1),
    (1, 2, 11, 7, 5),
    (3, 1, 5, 2, 9),
    (2, 7, 5, 1, 3),
    (8, 3, 5, 7, 2),
    (1, 10, 5, 7, 2),
    (9, 5, 2, 7, 1),
    (2, 5, 1, 7, 9),
    (5, 2, 9, 7, 1),
    (1, 4, 5, 2, 7),
    (10, 2, 5, 7, 1),
    (2, 11, 5, 7, 1),
    (1, 6, 5, 7, 2),
    (7, 2, 5, 1, 11),
    (1, 2, 6, 7, 11),
    (12, 2, 5, 7, 1),
    (1, 8, 5, 7, 3),
    (4, 3, 5, 7, 1),
    (1, 2, 9, 5, 7),
    (6, 5, 2, 7, 1),
]


def table1_instance(symbol, seed=0) -> SurfaceInstance:
    """The default-parameter instance used for Table-1 regressions."""
    return SurfaceInstance(default_instance(symbol), seed=seed)


def sampling_instance(symbol, seed=0) -> SurfaceInstance:
    """An instance of the symbol on which exact rational points can be drawn.

    The smooth symbol is served by the five-points plane model; singular
    symbols search the eigenvalue candidates until the cone construction
    yields a point.
    """
    if isinstance(symbol, str):
        symbol = SegreSymbol.parse(symbol)
    if str(symbol) == "[11111]":
        from .blowup import smooth_segre_instance
        return smooth_segre_instance(seed=seed)
    n_units = len(symbol.units)
    last = None
    for values in EIGENVALUE_CANDIDATES:
        params = [Fraction(v) for v in values[:n_units]]
        if len(set(params)) != n_units:
            continue
        try:
            pencil = normal_form(symbol, params)
            inst = SurfaceInstance(pencil, seed=seed)
            sample_rational_points(inst, 1,
                                   rng=random.Random(seed + 1),
                                   max_attempts=200)
            return inst
        except SegreCuspError as exc:
            last = exc
            continue
    raise RetryExhausted(
        f"no sampling-friendly instance of {symbol} found: {last}")

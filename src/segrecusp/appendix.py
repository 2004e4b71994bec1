"""The seven worked examples of surfaces with a line through two singular points.

Each case carries the explicit pair of quadrics, the line joining the two
singularities, the affine chart used to present the surface as a graph
z = F(x, y), w = G(x, y) along that line, and the expected multiplicity data:
the component over the line sits in the fiber-supported divisor with
multiplicity m in {2, 3, 4}, and the line is never a branch divisor of the
induced double covering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CrossCheckMismatch
from .fields import QQ, RationalFunctions
from .linalg import sym_matrix
from .pencil import QuadricPencil, SegreSymbol
from .surface import AdaptedChart, ProjectivePoint, SurfaceInstance
from .lines import LineOnSurface


def _e(i, scale=1):
    return [Fraction(scale) if k == i else Fraction(0) for k in range(5)]


@dataclass
class AppendixCase:
    name: str
    symbol: str
    params: tuple
    P: list
    Q: list
    line_points: tuple            # indices (i, j) of the coordinate line
    chart_columns: list           # c0, c1(x), c2(y), c3(z), c4(w)
    expected_m: int
    expected_branch: int
    special_hyperplane: tuple = None
    special_multiple: int = None

    def pencil(self):
        return QuadricPencil(self.P, self.Q)

    def surface(self, seed=0):
        return SurfaceInstance(self.pencil(), seed=seed)

    def line(self):
        i, j = self.line_points
        return LineOnSurface(ProjectivePoint.make(QQ, _e(i)),
                             ProjectivePoint.make(QQ, _e(j)), "exact")

    def chart(self, surface):
        return AdaptedChart(surface=surface, field=QQ,
                            columns=[list(c) for c in self.chart_columns],
                            base_point=ProjectivePoint.make(
                                QQ, self.chart_columns[0]))


def _case_2sing_A1A1_two_pencils(a, b, c):
    # two pencils of double conics; F and G have closed forms
    return AppendixCase(
        name="double_A1_pair_with_two_conic_pencils",
        symbol="[1(11)(11)]", params=(a, b, c),
        P=sym_matrix(5, {(0, 1): a, (2, 3): b, (4, 4): c}),
        Q=sym_matrix(5, {(0, 1): 1, (2, 3): 1, (4, 4): 1}),
        line_points=(0, 2),
        chart_columns=[_e(0), _e(2), _e(4), _e(3), _e(1)],
        expected_m=2, expected_branch=0)


def _case_3A1(a, b, c):
    return AppendixCase(
        name="three_A1_points",
        symbol="[12(11)]", params=(a, b, c),
        P=sym_matrix(5, {(0, 1): 2 * a, (1, 1): 1, (2, 3): b, (4, 4): c}),
        Q=sym_matrix(5, {(0, 1): 2, (2, 3): 1, (4, 4): 1}),
        line_points=(0, 2),
        chart_columns=[_e(0), _e(2), _e(4), _e(3), _e(1, Fraction(-1, 2))],
        expected_m=2, expected_branch=0)


def _case_2A1(a, b, c):
    return AppendixCase(
        name="two_A1_points",
        symbol="[122]", params=(a, b, c),
        P=sym_matrix(5, {(0, 1): 2 * a, (1, 1): 1, (2, 3): 2 * b, (3, 3): 1,
                        (4, 4): c}),
        Q=sym_matrix(5, {(0, 1): 2, (2, 3): 2, (4, 4): 1}),
        line_points=(0, 2),
        chart_columns=[_e(0), _e(2), _e(4), _e(3), _e(1)],
        expected_m=2, expected_branch=0)


def _case_A2_2A1(a, b):
    return AppendixCase(
        name="A2_plus_two_A1",
        symbol="[(11)3]", params=(a, b),
        P=sym_matrix(5, {(0, 2): 2 * a, (1, 1): a, (1, 2): 2, (3, 4): b}),
        Q=sym_matrix(5, {(0, 2): 2, (1, 1): 1, (3, 4): 1}),
        line_points=(0, 3),
        chart_columns=[_e(0), _e(3), _e(1), _e(4), _e(2, Fraction(-1, 2))],
        expected_m=3, expected_branch=0,
        special_hyperplane=(0, 0, 0, 0, 1), special_multiple=3)


def _case_A1A2(a, b):
    return AppendixCase(
        name="A1_plus_A2",
        symbol="[23]", params=(a, b),
        P=sym_matrix(5, {(0, 2): 2 * a, (1, 1): a, (1, 2): 2, (3, 4): 2 * b,
                        (4, 4): 1}),
        Q=sym_matrix(5, {(0, 2): 2, (1, 1): 1, (3, 4): 2}),
        line_points=(0, 3),
        chart_columns=[_e(0), _e(3), _e(1), _e(4), _e(2, Fraction(-1, 2))],
        expected_m=3, expected_branch=0,
        special_hyperplane=(0, 0, 0, 0, 1), special_multiple=3)


def _case_A3_2A1(a, b):
    return AppendixCase(
        name="A3_plus_two_A1",
        symbol="[(11)(12)]", params=(a, b),
        P=sym_matrix(5, {(0, 1): 2 * a, (1, 1): 1, (2, 2): a, (3, 4): b}),
        Q=sym_matrix(5, {(0, 1): 2, (2, 2): 1, (3, 4): 1}),
        line_points=(0, 3),
        chart_columns=[_e(0), _e(3), _e(2), _e(4), _e(1, Fraction(-1, 2))],
        expected_m=4, expected_branch=0,
        special_hyperplane=(0, 0, 0, 0, 1), special_multiple=4)


def _case_A1A3(a, b):
    return AppendixCase(
        name="A1_plus_A3",
        symbol="[(12)2]", params=(a, b),
        P=sym_matrix(5, {(0, 1): 2 * a, (1, 1): 1, (2, 3): 2 * b, (3, 3): 1,
                        (4, 4): b}),
        Q=sym_matrix(5, {(0, 1): 2, (2, 3): 2, (4, 4): 1}),
        line_points=(0, 2),
        chart_columns=[_e(2), _e(0), _e(4), _e(1), _e(3, Fraction(-1, 2))],
        expected_m=4, expected_branch=0,
        special_hyperplane=(0, 1, 0, 0, 0), special_multiple=4)


def appendix_cases(a=1, b=2, c=3):
    """The seven explicit cases, instantiated at rational parameters."""
    return [
        _case_2sing_A1A1_two_pencils(a, b, c),
        _case_3A1(a, b, c),
        _case_2A1(a, b, c),
        _case_A2_2A1(a, b),
        _case_A1A2(a, b),
        _case_A3_2A1(a, b),
        _case_A1A3(a, b),
    ]


def closed_forms_first_case(a, b, c):
    """Exact graph functions and Hessian coefficient for the first case.

    F = (a - c)/(b - a) * y**2 / x,  G = (c - b)/(b - a) * y**2, and the
    Hessian form reduces to K * lam * mu with
    K = 4 (a - c)(c - b)/(b - a)**2 * y**2/x**3.
    """
    Kx = RationalFunctions("x")
    x = Kx.gen
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    f_coeff = Kx.coerce(Fraction(a - c, b - a)) / x
    g_coeff = Kx.coerce(Fraction(c - b, b - a))
    k_coeff = Kx.coerce(4 * (a - c) * (c - b) / (b - a) ** 2) / (x * x * x)
    return f_coeff, g_coeff, k_coeff


def verify_appendix():
    """Replay all seven computations; returns a list of result dicts.

    Each line report starts at :data:`segrecusp.jets.START_ORDER` and
    escalates; a special section's line multiple is read exactly over Q(x)
    off that report's graph
    (:func:`segrecusp.cusplocus.section_line_multiple`).
    """
    from .cusplocus import line_report, section_line_multiple

    results = []
    for case in appendix_cases():
        surf = case.surface()
        symbol = surf.pencil.segre_symbol()
        if symbol != SegreSymbol.parse(case.symbol):
            raise CrossCheckMismatch(
                f"{case.name}: symbol {symbol} != {case.symbol}")
        rep = line_report(surf, case.line(), chart=case.chart(surf))
        entry = {
            "case": case.name,
            "symbol": str(symbol),
            "m": rep.m,
            "disc_order": rep.disc_order,
            "branch_mult": rep.branch_mult,
            "pass": (rep.m == case.expected_m
                     and rep.branch_mult == case.expected_branch),
        }
        if case.special_hyperplane is not None:
            k = section_line_multiple(rep, case.special_hyperplane)
            entry["special_section"] = f"NonReducedLineMultiple({k})"
            entry["pass"] = entry["pass"] and k == case.special_multiple
        if case.name == "double_A1_pair_with_two_conic_pencils":
            f_c, g_c, k_c = closed_forms_first_case(*case.params)
            F, G = rep.F, rep.G
            okF = F.coeffs == {(2,): f_c}
            okG = G.coeffs == {(2,): g_c}
            a_j, b_j, c_j = rep.form.coefficients()
            okH = (a_j.is_zero() and c_j.is_zero()
                   and b_j.coeffs == {(2,): k_c})
            entry["closed_forms"] = bool(okF and okG and okH)
            entry["pass"] = entry["pass"] and entry["closed_forms"]
        results.append(entry)
    return results

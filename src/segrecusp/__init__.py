"""Exact computation of cuspidal-locus data for Segre quartic surfaces.

The package computes, over exact coefficient domains (the rationals, one
quadratic extension, or rational functions in one variable): Segre symbols
of pencils of quadrics on CP4, singular points with their ADE types, the
line census, the Hessian binary quadratic at points and along lines, germ
classifications of hyperplane sections, branch multiplicities of the
induced double covering, and the pointwise trichotomy governing the
cuspidal locus of the dual variety.
"""

from .errors import SegreCuspError
from .fields import QQ, QuadraticExtension, RationalFunctions
from .jets import (BinaryQuadratic, Jet, hensel_solve, jet_from_poly,
                   splitting_reduce, y_order)
from .pencil import (QuadricPencil, SegreSymbol, TABLE1_SYMBOLS,
                     default_instance, normal_form, validate_segre)
from .surface import (ADEClass, AdaptedChart, ProjectivePoint,
                      SurfaceInstance, adapted_chart, classify_singularity,
                      double_conic_hyperplane, sample_rational_points)
from .lines import LineOnSurface, enumerate_lines
from .cusplocus import (branch_scan, classify_section_germ,
                        cusp_locus_summary, hessian_form_at, line_report,
                        point_case, tacnodal_hyperplane_on_line)
from .blowup import smooth_segre_instance, surface_through_line
from .instances import sampling_instance, table1_instance
from .report import SurfaceConfig, load_surface_config

__version__ = "0.1.0"

__all__ = [
    "ADEClass", "AdaptedChart", "BinaryQuadratic", "Jet", "LineOnSurface",
    "ProjectivePoint", "QQ", "QuadraticExtension", "QuadricPencil",
    "RationalFunctions", "SegreCuspError", "SegreSymbol", "SurfaceConfig",
    "SurfaceInstance", "TABLE1_SYMBOLS", "adapted_chart", "branch_scan",
    "classify_section_germ", "classify_singularity", "cusp_locus_summary",
    "default_instance", "double_conic_hyperplane", "enumerate_lines",
    "hensel_solve", "hessian_form_at", "jet_from_poly",
    "line_report", "load_surface_config", "normal_form", "point_case",
    "sample_rational_points", "sampling_instance", "smooth_segre_instance",
    "splitting_reduce", "surface_through_line", "table1_instance",
    "tacnodal_hyperplane_on_line", "validate_segre", "y_order",
]

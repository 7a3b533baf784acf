"""Toolkit for invariant Fatou components of C^2 automorphisms.

The package re-exports the main names of its modules; the API table of
README.md lists each module's public names and what the module is for.
"""

import logging

from .algebra import Series1C2, Series2, series1_eval, series2_exp, series2_mul
from .diophantine import GOLDEN, SILVER, QuadraticIrrational, check_sector_lemma, \
    check_siegel, continued_fraction, max_c
from .dynamics import Grid2D, RegionUNM, estimate_limit_map, invariant_curve, \
    iterate, track_product_sum, verify_forward_invariance, waxis_coverage
from .linearization import majorant_sigma, majorant_split, parameter_sweep, \
    quadratic_test_family, solve_psi
from .maps import AutoMap, classify_fixed_point, four_map_composite, rank0_map, \
    rank1_map, rotation_map, solve_overshear_coefficients, solve_shear_coefficients

__version__ = "0.1.0"
logging.getLogger("fatou").addHandler(logging.NullHandler())   # silent unless configured

__all__ = [
    "Series2",
    "Series1C2",
    "series2_mul",
    "series2_exp",
    "series1_eval",
    "AutoMap",
    "four_map_composite",
    "rank0_map",
    "rank1_map",
    "rotation_map",
    "solve_shear_coefficients",
    "solve_overshear_coefficients",
    "classify_fixed_point",
    "RegionUNM",
    "Grid2D",
    "iterate",
    "verify_forward_invariance",
    "estimate_limit_map",
    "track_product_sum",
    "waxis_coverage",
    "invariant_curve",
    "solve_psi",
    "majorant_sigma",
    "majorant_split",
    "parameter_sweep",
    "quadratic_test_family",
    "QuadraticIrrational",
    "GOLDEN",
    "SILVER",
    "continued_fraction",
    "check_siegel",
    "max_c",
    "check_sector_lemma",
    "__version__",
]

"""Constructive two-sided growth certification for log-convex radial
weights: tangent-line lacunary constructions on the unit disk, the
three-circles converse, and the unit-ball generalization over pluggable
homogeneous polynomial families."""

__version__ = "0.1.0"

from .ball_extension import (BallFunctionSystem, FamilyReport,
                             PolynomialFamily, ball_lower_bound_check,
                             build_ball_functions, coordinate_family_d2,
                             monomial_family, sphere_points, verify_family)
from .construction import (ConstructionError, ConstructionParams,
                           ConstructionState, ExponentCollisionError,
                           FloatFloorError, LemmaReport, NotStrictlyConvexError,
                           SlowGrowthError, TangentLine, h_for_delta,
                           next_tangent, run_construction,
                           verify_tangent_lemmas)
from .envelope import (EnvelopeResult, HadamardReport, hadamard_check,
                       log_convex_envelope, polynomial_callable,
                       random_polynomials)
from .series import (AdjustedPair, LacunarySeries, SandwichReport, ScaledArray,
                     SeriesPair, eval_series, eval_series_grid, sandwich_check,
                     split_parity, zero_adjust)
from .weight_model import (CONSTRUCTIBLE_FAMILIES, ConvexityReport,
                           WeightFunction, check_log_convexity, make_weight,
                           weight_from_knots, weight_from_spec, weight_to_spec)

__all__ = [
    "AdjustedPair", "BallFunctionSystem", "CONSTRUCTIBLE_FAMILIES",
    "ConstructionError", "ConstructionParams", "ConstructionState",
    "ConvexityReport", "EnvelopeResult", "ExponentCollisionError",
    "FamilyReport", "FloatFloorError", "HadamardReport", "LacunarySeries",
    "LemmaReport", "NotStrictlyConvexError", "PolynomialFamily",
    "SandwichReport", "ScaledArray", "SeriesPair", "SlowGrowthError",
    "TangentLine",
    "WeightFunction", "ball_lower_bound_check", "build_ball_functions",
    "check_log_convexity", "coordinate_family_d2", "eval_series",
    "eval_series_grid", "h_for_delta",
    "hadamard_check", "log_convex_envelope", "make_weight",
    "monomial_family", "next_tangent", "polynomial_callable",
    "random_polynomials", "run_construction",
    "sandwich_check", "sphere_points", "split_parity", "verify_family",
    "verify_tangent_lemmas", "weight_from_knots", "weight_from_spec",
    "weight_to_spec", "zero_adjust",
]

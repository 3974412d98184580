"""Constructive two-sided growth certification for log-convex radial
weights: tangent-line lacunary constructions on the unit disk, the
three-circles converse, and the unit-ball generalization over pluggable
homogeneous polynomial families."""

__version__ = "0.1.0"

from .ball_extension import (BallFunctionSystem, FamilyReport,
                             PolynomialFamily, ball_lower_bound_check,
                             build_ball_functions, coordinate_family_d2,
                             family_from_manifest, monomial_family,
                             provider_from_interleaved, sphere_points,
                             verify_family)
from .construction import (ConstructionError, ConstructionParams,
                           ConstructionState, ExponentCollisionError,
                           LemmaReport, NotStrictlyConvexError,
                           SlowGrowthError, TangentLine, h_for_delta,
                           next_tangent, run_construction,
                           verify_tangent_lemmas)
from .envelope import (EnvelopeResult, EquivalenceConstants, HadamardReport,
                       equivalence_constants, hadamard_check, hull_weight,
                       log_convex_envelope, max_modulus, polynomial_callable,
                       random_polynomials)
from .series import (AdjustedPair, LacunarySeries, SandwichReport, ScaledArray,
                     ScaledComplex, SeriesPair, eval_series,
                     eval_series_grid, frequency_profile, modulus_sum,
                     sandwich_check, sandwich_samples, split_parity,
                     tail_margin, zero_adjust)
from .weight_model import (CONSTRUCTIBLE_FAMILIES, ConvexityReport,
                           DoublingResult, WeightFunction, check_doubling,
                           check_log_convexity, check_unbounded, make_weight,
                           weight_from_knots, weight_from_spec, weight_to_spec)

__all__ = [
    "AdjustedPair", "BallFunctionSystem", "CONSTRUCTIBLE_FAMILIES",
    "ConstructionError", "ConstructionParams", "ConstructionState",
    "ConvexityReport", "DoublingResult", "EnvelopeResult",
    "EquivalenceConstants", "ExponentCollisionError", "FamilyReport",
    "HadamardReport", "LacunarySeries", "LemmaReport",
    "NotStrictlyConvexError", "PolynomialFamily",
    "SandwichReport", "ScaledArray", "ScaledComplex", "SeriesPair", "SlowGrowthError",
    "TangentLine", "WeightFunction", "ball_lower_bound_check",
    "build_ball_functions", "check_doubling",
    "check_log_convexity", "check_unbounded", "coordinate_family_d2",
    "equivalence_constants", "eval_series", "eval_series_grid",
    "family_from_manifest", "frequency_profile", "h_for_delta",
    "hadamard_check", "hull_weight", "log_convex_envelope",
    "make_weight", "max_modulus", "modulus_sum",
    "monomial_family", "next_tangent", "polynomial_callable",
    "provider_from_interleaved",
    "random_polynomials", "run_construction", "sandwich_check", "sandwich_samples",
    "sphere_points", "split_parity", "tail_margin", "verify_family",
    "verify_tangent_lemmas", "weight_from_knots", "weight_from_spec",
    "weight_to_spec", "zero_adjust",
]

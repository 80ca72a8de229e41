"""Rescaling limits of one-parameter families of rational maps.

A family f_t(z) = P(z, t) / Q(z, t) with Puiseux series coefficients is
viewed through moving affine frames M(z) = c(t) + t^h z.  Reducing the
conjugated family at t = 0 gives a limit map per frame; advancing frames
until the class orbit repeats produces rescaling cycles, whose composed
limits are classified (multiple fixed points, polynomial-like ends,
postcritical finiteness) and numerically spot-checked at small parameters.
"""

from .coefficients import GaussianRational
from .errors import (AdvanceNotTerminating, AssertionFailed,
                     DegenerateFamily, DegreeCapExceeded, GridDegenerate,
                     ParseError, PrecisionExhausted, RamificationCapExceeded,
                     RescalingError)
from .puiseux import PuiseuxSeries
from .maps import (AffineFrame, MapL, ReducedMap, compose_families,
                   compose_reduced, conjugate, gauss_normalize,
                   iterate_family, precompose_affine, reduce_family,
                   resultant_series, resultant_valuation)
from .frames import (FrameClass, PeriodSetReport, RescalingCycle, ScanResult,
                     StepResult, advance, canonicalize,
                     cycle_limit_crosscheck, equivalent_via_reduction,
                     escape_bound, find_cycle, frame_size, monomial_seed_scan,
                     period_set_check)
from .classify import (DichotomyReport, LimitClassification, PcfReport,
                       classify_limit, multiple_fixed_point, pcf_check,
                       polynomial_like, quadratic_dichotomy_report)
from .verify import (VerificationReport, chordal_distance, sphere_grid,
                     verify_rescaling)
from .famparse import parse_family, parse_frame

__version__ = "0.1.0"

__all__ = [
    "AdvanceNotTerminating", "AffineFrame", "AssertionFailed",
    "DegenerateFamily", "DegreeCapExceeded", "DichotomyReport", "FrameClass",
    "GaussianRational", "GridDegenerate", "LimitClassification", "MapL",
    "ParseError", "PcfReport", "PeriodSetReport", "PrecisionExhausted",
    "PuiseuxSeries", "RamificationCapExceeded", "ReducedMap",
    "RescalingCycle", "RescalingError", "ScanResult", "StepResult",
    "VerificationReport",
    "advance", "canonicalize", "chordal_distance", "classify_limit",
    "compose_families", "compose_reduced", "conjugate",
    "cycle_limit_crosscheck",
    "equivalent_via_reduction", "escape_bound", "find_cycle", "frame_size",
    "gauss_normalize",
    "iterate_family", "monomial_seed_scan", "multiple_fixed_point",
    "parse_family", "parse_frame", "pcf_check", "period_set_check",
    "polynomial_like", "precompose_affine", "quadratic_dichotomy_report",
    "reduce_family", "resultant_series", "resultant_valuation",
    "sphere_grid", "verify_rescaling",
]
